"""Dataset ingestion and result serialization.

Datasets travel as a long-form CSV plus a JSON sidecar:

* CSV with header ``respondent_id,item,stage``, one row per observed
  (respondent, item) cell; a missing stage cell marks the item as
  unranked, and absent rows mean the same thing.
* Sidecar ``<name>.meta.json`` declaring the canonical item order, the
  stage count ``l``, and a ``stage_label_offset`` mapping internal stage
  1 to the label the questionnaire actually used.

read_dataset checks each cell once, where it enters: one streaming pass
over the rows keeps each row's (respondent, item) cell and its stage, each
distinct stage text parsed and checked once, and the duplicate and
never-observed checks then run as array operations over those cells. Every
refusal names the first faulty row in file order. Writers do O(1) string
work per cell: the CSV quotes each label and respondent id once, and the
trace formats each line without json.

Fit artifacts are a JSON report, a line-delimited JSON trace (one object
per retained sample), and an SVG heatmap with one rect per (item, stage)
cell. All writers are byte-stable: identical inputs produce identical
files.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import FormatError
from .inference import FitResult, McmcTrace
from .mallows import MallowsParams
from .rankings import MISSING, CentralRanking, ItemSet, PartialRanking, StageDomain, stage_matrix

_SIDEKICK_SUFFIX = ".meta.json"


@dataclass(frozen=True)
class QuestionnaireDataset:
    """Validated survey responses over a shared item set and stage domain."""

    items: ItemSet
    stage_domain: StageDomain
    stage_label_offset: int
    responses: tuple[tuple[str, PartialRanking], ...]
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "responses", tuple(self.responses))
        ids = [rid for rid, _ in self.responses]
        if len(set(ids)) != len(ids):
            raise ValueError("respondent ids must be unique")
        stages, count = stage_matrix(self.rankings(), self.items.n, self.stage_domain)
        if count < self.m:
            rid, ranking = self.responses[count]
            raise ValueError(
                f"respondent {rid!r} has {ranking.n} entries, expected {self.items.n}"
            )
        observed = (stages != 0).any(axis=0)
        if self.responses and not observed.all():
            silent = [self.items.labels[i] for i in np.flatnonzero(~observed)]
            raise ValueError(f"items never observed by any respondent: {silent}")

    @property
    def m(self) -> int:
        return len(self.responses)

    def rankings(self) -> list[PartialRanking]:
        return [ranking for _, ranking in self.responses]

    def external_label(self, internal_stage: int) -> int:
        return internal_stage + self.stage_label_offset - 1

    def internal_stage(self, external_label: int) -> int:
        return external_label - self.stage_label_offset + 1


def _whole(value) -> int:
    """int(value), refusing a number that int() would truncate (2.5, but not
    2.0) and a JSON boolean, which int() would read as 0 or 1."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def parse_int(text: str) -> int:
    """The integer written in text: optional surrounding whitespace, an
    optional sign and ASCII digits only (ValueError otherwise). int() alone
    would also read "1_0" as 10 and the Arabic-Indic digit three as 3."""
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    return int(body)


def _not_utf8(path: Path, what: str) -> FormatError:
    """The refusal of a file that is not UTF-8 text, naming the line of its
    first byte that does not decode. The CSV reader decodes in blocks, so
    its error can surface rows before that byte: the file is read again,
    on this error path only, to find it."""
    data = path.read_bytes()
    start = len(data)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        start = err.start
    line = data.count(b"\n", 0, start) + 1
    return FormatError(f"{what} {path}: line {line} is not UTF-8 text")


def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(path, what) from None


def _json_object(path: Path, what: str) -> dict:
    """The JSON object in a UTF-8 file; any other content is a FormatError."""
    try:
        payload = json.loads(_read_text(path, what))
    except ValueError as err:  # JSONDecodeError, or an integer past int()'s digit limit
        raise FormatError(f"{what} is not valid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise FormatError(f"{what} must hold a JSON object")
    return payload


def sidecar_path(csv_path: str | Path) -> Path:
    return Path(csv_path).with_suffix(_SIDEKICK_SUFFIX)


def read_dataset(path: str | Path) -> QuestionnaireDataset:
    """Load and validate a dataset from a CSV and its sidecar.

    Rows with an empty stage cell become MISSING entries. Stage labels
    are shifted by the declared offset into the internal range 1..l.
    """
    path = Path(path)
    meta_path = sidecar_path(path)
    if not path.exists():
        raise FormatError(f"dataset file not found: {path}")
    if not meta_path.exists():
        raise FormatError(f"dataset sidecar not found: {meta_path}")

    meta = _json_object(meta_path, "sidecar")
    for key in ("items", "l", "stage_label_offset"):
        if key not in meta:
            raise FormatError(f"sidecar is missing the {key!r} key")
    try:
        if not isinstance(meta["items"], list):
            raise ValueError("items is not a JSON array")
        items = ItemSet(tuple(meta["items"]))
        domain = StageDomain(_whole(meta["l"]))
        offset = _whole(meta["stage_label_offset"])
    except (TypeError, ValueError, OverflowError) as err:
        raise FormatError(f"sidecar has malformed items, l or stage_label_offset: {err}") from err
    provenance = str(meta.get("provenance", ""))
    item_index = {label: i for i, label in enumerate(items.labels)}
    n = items.n

    # One pass keeps each row's cell, respondent * n + item with respondents
    # numbered in order of first appearance, and its internal stage (0 when
    # blank). A fault in a row ends the pass, as does text that the csv
    # module or the UTF-8 decoder cannot read. Duplicate cells are found
    # after it, over every cell read, so a duplicate in an earlier row, or in
    # the faulty row itself if its item is known, is reported first, as when
    # every row was checked in turn.
    respondents: dict[str, int] = {}
    stage_of: dict[str, int] = {}
    cells: list[int] = []
    stages: list[int] = []
    fault: Exception | None = None
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
        except csv.Error as err:
            raise FormatError(str(err), row=1) from err
        except UnicodeDecodeError:
            raise _not_utf8(path, "dataset file") from None
        if header != ["respondent_id", "item", "stage"]:
            raise FormatError(
                f"expected header respondent_id,item,stage, got {header}"
            )
        row_no = 1
        try:
            for row_no, row in enumerate(reader, start=2):
                if len(row) != 3:
                    fault = FormatError("expected 3 columns", row=row_no)
                    break
                rid, item, stage_text = row
                column = item_index.get(item)
                if column is None:
                    fault = FormatError(f"unknown item {item!r}", row=row_no)
                    break
                cells.append(respondents.setdefault(rid, len(respondents)) * n + column)
                stage = stage_of.get(stage_text)
                if stage is None:
                    try:
                        stage = stage_of[stage_text] = _internal_stage(stage_text, offset, domain)
                    except ValueError as err:
                        fault = FormatError(str(err), row=row_no)
                        break
                stages.append(stage)
        except csv.Error as err:
            # The reader failed on the row after the last one it returned.
            fault = FormatError(str(err), row=row_no + 1)
        except UnicodeDecodeError:
            fault = _not_utf8(path, "dataset file")

    cells = np.array(cells, dtype=np.int64)
    if len(cells) and np.bincount(cells).max() > 1:
        # The first row whose cell an earlier row already had.
        order = np.argsort(cells, kind="stable")
        repeat = int(order[1:][cells[order[1:]] == cells[order[:-1]]].min())
        rid, column = divmod(int(cells[repeat]), n)
        raise FormatError(
            f"duplicate cell for respondent {list(respondents)[rid]!r}, "
            f"item {items.labels[column]!r}",
            row=repeat + 2,
        )
    if fault is not None:
        raise fault

    # Object entries keep stages of any size exact, as the sidecar's l may be.
    ids = list(respondents)
    matrix = np.zeros(len(ids) * n, dtype=object)
    matrix[cells] = stages
    matrix = matrix.reshape(len(ids), n)
    observed = matrix > 0
    silent = ~observed.any(axis=1)
    if silent.any():
        raise FormatError(f"respondent {ids[int(silent.argmax())]!r} observed no items")
    matrix[~observed] = MISSING
    responses = tuple(zip(ids, map(PartialRanking, matrix.tolist())))
    try:
        return QuestionnaireDataset(
            items=items,
            stage_domain=domain,
            stage_label_offset=offset,
            responses=responses,
            provenance=provenance,
        )
    except ValueError as err:
        raise FormatError(str(err)) from err


def _internal_stage(text: str, offset: int, domain: StageDomain) -> int:
    """The internal stage of a stage cell, 0 for a blank one (ValueError
    when it is not an integer label of the domain)."""
    if text.strip() == "":
        return 0
    try:
        label = parse_int(text)
    except ValueError:
        raise ValueError(f"stage {text!r} is not an integer") from None
    internal = label - offset + 1
    if not domain.contains(internal):
        raise ValueError(
            f"stage label {label} falls outside the declared domain "
            f"({offset}..{offset + domain.l - 1})"
        )
    return internal


def write_dataset(ds: QuestionnaireDataset, path: str | Path) -> None:
    """Write the CSV and sidecar; the inverse of read_dataset."""
    write_raw_dataset(
        ds.items,
        ds.stage_domain.l,
        ds.stage_label_offset,
        ds.responses,
        path,
        provenance=ds.provenance,
    )


def write_raw_dataset(
    items: ItemSet,
    l: int,
    stage_label_offset: int,
    responses: Sequence[tuple[str, PartialRanking]],
    path: str | Path,
    provenance: str = "",
) -> None:
    """Dataset writer that skips QuestionnaireDataset validation.

    Heavy censoring can leave an item observed by nobody; such data is
    still worth writing out, even though read_dataset will refuse it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [f",{_csv_cell(label)}," for label in items.labels]
    shift = stage_label_offset - 1
    with path.open("w", encoding="utf-8") as out:
        out.write("respondent_id,item,stage\n")
        for rid, ranking in responses:
            quoted = _csv_cell(rid)
            out.write("".join([
                f"{quoted}{column}{stage + shift}\n"
                for column, stage in zip(columns, ranking.stages) if stage is not MISSING
            ]))

    meta = {
        "items": list(items.labels),
        "l": l,
        "stage_label_offset": stage_label_offset,
        "provenance": provenance,
    }
    write_json(meta, sidecar_path(path))


def _csv_cell(value: str) -> str:
    if any(c in value for c in ",\"\r\n"):
        return '"' + value.replace('"', '""') + '"'
    return value


def write_json(payload: Mapping, path: str | Path) -> None:
    """Serialize a JSON document byte-stably (sorted keys, fixed layout)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def item_response_rates(ds: QuestionnaireDataset) -> np.ndarray:
    """Fraction of respondents with an observed entry, per item."""
    stages, _ = stage_matrix(ds.rankings(), ds.items.n, ds.stage_domain)
    return (stages != 0).sum(axis=0, dtype=np.int64) / max(ds.m, 1)


def filter_items(ds: QuestionnaireDataset, min_rate: float) -> QuestionnaireDataset:
    """Drop items whose response rate falls below min_rate.

    Responses are re-projected onto the surviving items; respondents left
    with nothing observed are dropped (logged, not an error).
    """
    if not (0.0 <= min_rate <= 1.0):
        raise ValueError(f"min_rate must lie in [0, 1], got {min_rate}")
    rates = item_response_rates(ds)
    keep = [i for i in range(ds.items.n) if rates[i] >= min_rate]
    if not keep:
        raise ValueError(
            f"no items reach a response rate of {min_rate}; nothing to keep"
        )
    if len(keep) == ds.items.n:
        return ds

    responses = []
    dropped = 0
    for rid, ranking in ds.responses:
        stages = tuple(ranking.stages[i] for i in keep)
        if all(v is MISSING for v in stages):
            dropped += 1
            continue
        responses.append((rid, PartialRanking(stages)))
    if dropped:
        logging.getLogger(__name__).info(
            "filter_items dropped %d respondent(s) left with no observed items",
            dropped,
        )
    return QuestionnaireDataset(
        items=ItemSet(tuple(ds.items.labels[i] for i in keep)),
        stage_domain=ds.stage_domain,
        stage_label_offset=ds.stage_label_offset,
        responses=tuple(responses),
        provenance=ds.provenance,
    )


def read_ranking_file(path: str | Path) -> tuple[list, int]:
    """Read a ranking JSON file: {"stages": [...], "stage_label_offset": k}.

    Entries are integers or null (unranked). Returns the stages shifted to
    internal numbering along with the declared offset (default 1).
    """
    path = Path(path)
    if not path.exists():
        raise FormatError(f"ranking file not found: {path}")
    payload = _json_object(path, "ranking file")
    if not isinstance(payload.get("stages"), list):
        raise FormatError('ranking file must be an object with a "stages" array')
    try:
        offset = _whole(payload.get("stage_label_offset", 1))
    except (TypeError, ValueError, OverflowError) as err:
        raise FormatError(f"ranking file has a malformed stage_label_offset: {err}") from err
    stages = []
    for k, value in enumerate(payload["stages"]):
        if value is None:
            stages.append(MISSING)
        else:
            try:
                stages.append(_whole(value) - offset + 1)
            except (TypeError, ValueError, OverflowError):
                raise FormatError(f"stage entry {k} is not an integer or null")
    if not stages:
        raise FormatError("ranking file has no stages")
    return stages, offset


def checked_center(stages: Sequence, n: int, domain: StageDomain, source: str) -> CentralRanking:
    """The stages as a center of n items in the domain. Another item count, an
    unranked item, a stage that is not an integer (a boolean included) or
    one outside 1..l is a FormatError naming the source."""
    if len(stages) != n:
        raise FormatError(f"{source} has {len(stages)} items, expected n={n}")
    try:
        center = CentralRanking(tuple(stages))
        center.check_domain(domain)
    except ValueError as err:
        raise FormatError(f"{source}: {err}") from None
    return center


def read_truth(data_path: str | Path, n: int, domain: StageDomain) -> MallowsParams | None:
    """The model in the truth.json beside the data, if there is one.

    A file that lacks center_internal or lambda, or whose center has another
    item count, gives no truth to compare with. Any other fault is a
    FormatError: a center that checked_center refuses, or a lambda that is
    not a positive finite JSON number.
    """
    path = Path(data_path).parent / "truth.json"
    if not path.exists():
        return None
    truth = _json_object(path, "truth.json")
    stages, spread = truth.get("center_internal"), truth.get("lambda")
    if not isinstance(stages, list) or len(stages) != n or "lambda" not in truth:
        return None
    center = checked_center(stages, n, domain, "truth.json center_internal")
    if isinstance(spread, (int, float)) and not isinstance(spread, bool):
        try:
            return MallowsParams(center, float(spread), domain)
        except (ValueError, OverflowError):  # not positive and finite, or past float's range
            pass
    raise FormatError(f"truth.json lambda {json.dumps(spread)} is not a positive finite number")


def write_ranking_file(
    stages: Sequence, path: str | Path, stage_label_offset: int = 1
) -> None:
    labels = [
        None if v is MISSING else int(v) + stage_label_offset - 1 for v in stages
    ]
    write_json({"stages": labels, "stage_label_offset": stage_label_offset}, path)


def write_fit_report(
    result: FitResult,
    ds: QuestionnaireDataset,
    path: str | Path,
    manifest: Mapping | None = None,
    evaluation: Mapping | None = None,
) -> None:
    """Write the fit summary as a single JSON document.

    The MAP center appears both in internal stages and in the external
    labels declared by the dataset's stage_label_offset.
    """
    internal = list(result.pi_map.stages)
    report = {
        "items": list(ds.items.labels),
        "map_center_internal": internal,
        "map_center_labels": [ds.external_label(v) for v in internal],
        "stage_label_offset": ds.stage_label_offset,
        "lambda_map": result.lambda_map,
        "acceptance_rates": {
            "center": result.trace.accept_rate_center,
            "spread": result.trace.accept_rate_spread,
        },
        "retained_samples": len(result.trace),
        "manifest": dict(manifest) if manifest is not None else None,
        "evaluation": dict(evaluation) if evaluation is not None else None,
    }
    write_json(report, path)


def write_trace(trace: McmcTrace, path: str | Path) -> None:
    """Write one JSON object per retained sample, line-delimited, each line
    as it is formatted. An empty trace is one empty line.

    Each line is the text json.dumps(..., separators=(",", ":")) gives: json
    writes a float as float.__repr__ does, and only finite floats reach a
    trace, because mcmc_fit starts from a finite log posterior and spread
    and never accepts a proposal whose log ratio is -inf or NaN.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        if len(trace) == 0:
            handle.write("\n")
        for it, spread, log_post, row in zip(
            trace.iterations, trace.spreads, trace.log_posteriors, trace.centers
        ):
            stages = str(row.tolist()).replace(" ", "")
            handle.write(f'{{"iter":{int(it)},"lambda":{float(spread)!r},'
                         f'"log_post":{float(log_post)!r},"stages":{stages}}}\n')


def read_trace(path: str | Path) -> list[dict]:
    with Path(path).open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


_SVG_CELL = 42
_SVG_LEFT = 260
_SVG_TOP = 40


def write_heatmap_svg(
    marginals: np.ndarray,
    ds: QuestionnaireDataset,
    path: str | Path,
    manifest: Mapping | None = None,
) -> None:
    """Render stage marginals as an SVG grid, one rect per (item, stage).

    Cell shading scales linearly with the marginal frequency; column
    headers use the dataset's external stage labels.
    """
    marginals = np.asarray(marginals, dtype=float)
    n, l = marginals.shape
    if n != ds.items.n or l != ds.stage_domain.l:
        raise ValueError(
            f"marginals are {marginals.shape}, dataset wants ({ds.items.n}, {ds.stage_domain.l})"
        )
    width = _SVG_LEFT + l * _SVG_CELL + 20
    height = _SVG_TOP + n * _SVG_CELL + 20
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Streamed, a row's cells 1,024 at a time: a cell's rect is about 145
    # bytes of text, and the capacity rule admits l up to about 2^28 / n.
    with path.open("w", encoding="utf-8") as out:
        out.write('<?xml version="1.0" encoding="UTF-8"?>\n'
                  f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                  f'width="{width}" height="{height}" '
                  f'font-family="sans-serif" font-size="12">\n')
        if manifest is not None:
            # An XML comment may not hold "--". "-\u002d" is the same JSON text,
            # and no "--" is left, even where "---" stood.
            blob = json.dumps(dict(manifest), sort_keys=True, separators=(",", ":"))
            blob = blob.replace("--", "-\\u002d")
            out.write(f"<!-- manifest: {blob} -->\n")
        out.writelines(
            f'<text x="{_SVG_LEFT + s * _SVG_CELL + _SVG_CELL // 2}" y="{_SVG_TOP - 10}" '
            f'text-anchor="middle">{ds.external_label(s + 1)}</text>\n'
            for s in range(l)
        )
        for i in range(n):
            y = _SVG_TOP + i * _SVG_CELL
            out.write(f'<text x="{_SVG_LEFT - 8}" y="{y + _SVG_CELL // 2 + 4}" '
                      f'text-anchor="end">{_xml_escape(ds.items.labels[i])}</text>\n')
            cell = (f'" y="{y}" width="{_SVG_CELL - 2}" height="{_SVG_CELL - 2}" '
                    'fill="#2a6f97" fill-opacity="')
            for start in range(0, l, 1024):
                shades = marginals[i, start:start + 1024].tolist()
                xs = range(_SVG_LEFT + start * _SVG_CELL, _SVG_LEFT + l * _SVG_CELL, _SVG_CELL)
                out.write("".join(
                    f'<rect x="{x}{cell}{shade:.6f}" stroke="#444444" stroke-width="0.5"/>\n'
                    for x, shade in zip(xs, shades)
                ))
        out.write("</svg>\n")


def _xml_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def demo_dataset_path() -> Path:
    """Location of the bundled synthetic demonstration dataset."""
    return Path(__file__).parent / "data" / "wellbeing_survey_synthetic.csv"
