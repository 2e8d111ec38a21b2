import csv
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagemallows.errors import FormatError
from stagemallows.inference import FitResult, McmcTrace
from stagemallows.io import (
    QuestionnaireDataset,
    demo_dataset_path,
    filter_items,
    item_response_rates,
    read_dataset,
    read_ranking_file,
    read_trace,
    sidecar_path,
    write_dataset,
    write_fit_report,
    write_heatmap_svg,
    write_ranking_file,
    write_trace,
)
from stagemallows.rankings import (
    MISSING,
    CentralRanking,
    ItemSet,
    PartialRanking,
    StageDomain,
)

from oracles import naive_read_dataset


@pytest.fixture
def small_ds():
    return QuestionnaireDataset(
        items=ItemSet(("alpha", "beta", "gamma")),
        stage_domain=StageDomain(3),
        stage_label_offset=1,
        responses=(
            ("r1", PartialRanking((1, 2, 3))),
            ("r2", PartialRanking((2, MISSING, 1))),
            ("r3", PartialRanking((MISSING, 1, MISSING))),
        ),
        provenance="unit fixture",
    )


def _write_csv(tmp_path, text, meta):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(text, encoding="utf-8")
    sidecar_path(csv_path).write_text(json.dumps(meta), encoding="utf-8")
    return csv_path


GOOD_META = {"items": ["alpha", "beta"], "l": 3, "stage_label_offset": 1}


class TestReadDataset:
    def test_round_trip_identity(self, small_ds, tmp_path):
        path = tmp_path / "ds.csv"
        write_dataset(small_ds, path)
        again = read_dataset(path)
        assert again == small_ds

    def test_empty_stage_cell_is_missing(self, tmp_path):
        path = _write_csv(
            tmp_path,
            "respondent_id,item,stage\nr1,alpha,1\nr1,beta,\nr2,beta,2\n",
            GOOD_META,
        )
        ds = read_dataset(path)
        assert ds.responses[0][1].stages == (1, MISSING)
        assert ds.responses[0][1].r == 1

    def test_duplicate_cell_names_row(self, tmp_path):
        path = _write_csv(
            tmp_path,
            "respondent_id,item,stage\nr1,alpha,1\nr1,alpha,2\nr1,beta,1\n",
            GOOD_META,
        )
        with pytest.raises(FormatError) as err:
            read_dataset(path)
        assert "row 3" in str(err.value)

    def test_stage_outside_domain_names_row(self, tmp_path):
        path = _write_csv(
            tmp_path,
            "respondent_id,item,stage\nr1,alpha,1\nr1,beta,4\n",
            GOOD_META,
        )
        with pytest.raises(FormatError) as err:
            read_dataset(path)
        assert "row 3" in str(err.value)

    def test_offset_shifting(self, tmp_path):
        meta = {"items": ["alpha", "beta"], "l": 4, "stage_label_offset": 2}
        path = _write_csv(
            tmp_path,
            "respondent_id,item,stage\nr1,alpha,2\nr1,beta,5\n",
            meta,
        )
        ds = read_dataset(path)
        assert ds.responses[0][1].stages == (1, 4)

    def test_label_below_offset_rejected(self, tmp_path):
        meta = {"items": ["alpha", "beta"], "l": 4, "stage_label_offset": 2}
        path = _write_csv(
            tmp_path, "respondent_id,item,stage\nr1,alpha,1\nr1,beta,2\n", meta
        )
        with pytest.raises(FormatError):
            read_dataset(path)

    def test_unknown_item_rejected(self, tmp_path):
        path = _write_csv(
            tmp_path, "respondent_id,item,stage\nr1,delta,1\n", GOOD_META
        )
        with pytest.raises(FormatError) as err:
            read_dataset(path)
        assert "delta" in str(err.value)

    def test_zero_observed_respondent_rejected(self, tmp_path):
        path = _write_csv(
            tmp_path,
            "respondent_id,item,stage\nr1,alpha,\nr1,beta,\nr2,alpha,1\n",
            GOOD_META,
        )
        with pytest.raises(FormatError) as err:
            read_dataset(path)
        assert "r1" in str(err.value)

    def test_missing_sidecar_rejected(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("respondent_id,item,stage\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_dataset(path)

    def test_bad_header_rejected(self, tmp_path):
        path = _write_csv(tmp_path, "who,what,when\n", GOOD_META)
        with pytest.raises(FormatError):
            read_dataset(path)

    def test_never_observed_item_rejected(self, tmp_path):
        path = _write_csv(
            tmp_path, "respondent_id,item,stage\nr1,alpha,1\n", GOOD_META
        )
        with pytest.raises(FormatError) as err:
            read_dataset(path)
        assert "beta" in str(err.value)

    # The csv module refuses a field longer than csv.field_size_limit().
    def test_oversized_field_names_its_row(self, tmp_path):
        cell = "1" * (csv.field_size_limit() + 1)
        path = _write_csv(
            tmp_path, f"respondent_id,item,stage\nr1,alpha,1\nr1,beta,{cell}\n", GOOD_META
        )
        with pytest.raises(FormatError) as err:
            read_dataset(path)
        assert err.value.row == 3
        assert str(err.value).startswith("row 3: field larger than field limit")

    def test_oversized_header_field_is_a_format_error(self, tmp_path):
        cell = "x" * (csv.field_size_limit() + 1)
        path = _write_csv(tmp_path, f"respondent_id,item,{cell}\nr1,alpha,1\n", GOOD_META)
        with pytest.raises(FormatError) as err:
            read_dataset(path)
        assert str(err.value).startswith("row 1: field larger than field limit")

    def test_round_trip_keeps_carriage_returns(self, tmp_path):
        ds = QuestionnaireDataset(
            items=ItemSet(("a\rb", "c")),
            stage_domain=StageDomain(2),
            stage_label_offset=1,
            responses=(("r\r1", PartialRanking((1, 2))), ("r2", PartialRanking((2, 1)))),
        )
        path = tmp_path / "ds.csv"
        write_dataset(ds, path)
        assert read_dataset(path) == ds


# Every refusal of read_dataset, with its whole message: CSV body (after the
# header), sidecar, and the expected str(FormatError). Where a file has two
# faults, the first in file order is the one reported.
_REFUSALS = {
    "short-row": ("r1,alpha,1\nr1,beta\n", GOOD_META, "row 3: expected 3 columns"),
    "long-row": ("r1,alpha,1,x\n", GOOD_META, "row 2: expected 3 columns"),
    "unknown-item": ("r1,delta,1\n", GOOD_META, "row 2: unknown item 'delta'"),
    "duplicate": ("r1,alpha,1\nr1,alpha,2\nr1,beta,1\n", GOOD_META,
                  "row 3: duplicate cell for respondent 'r1', item 'alpha'"),
    "duplicate-empty": ("r1,alpha,\nr1,alpha,\nr1,beta,1\n", GOOD_META,
                        "row 3: duplicate cell for respondent 'r1', item 'alpha'"),
    "duplicate-apart": ("r1,beta,\nr2,alpha,1\nr1,beta,2\n", GOOD_META,
                        "row 4: duplicate cell for respondent 'r1', item 'beta'"),
    "not-integer": ("r1,alpha,x\n", GOOD_META, "row 2: stage 'x' is not an integer"),
    "decimal": ("r1,alpha,1.0\n", GOOD_META, "row 2: stage '1.0' is not an integer"),
    "above-domain": ("r1,alpha,4\n", GOOD_META,
                     "row 2: stage label 4 falls outside the declared domain (1..3)"),
    "below-offset": ("r1,alpha,1\n", {**GOOD_META, "l": 4, "stage_label_offset": 2},
                     "row 2: stage label 1 falls outside the declared domain (2..5)"),
    "respondent-without-items": ("r1,alpha,\nr1,beta, \nr2,alpha,1\nr2,beta,1\n", GOOD_META,
                                 "respondent 'r1' observed no items"),
    "item-never-observed": ("r1,alpha,1\n", GOOD_META,
                            "items never observed by any respondent: ['beta']"),
    "duplicate-then-bad-stage": ("r1,alpha,1\nr1,alpha,1\nr1,beta,x\n", GOOD_META,
                                 "row 3: duplicate cell for respondent 'r1', item 'alpha'"),
    "bad-stage-then-duplicate": ("r1,alpha,x\nr1,beta,1\nr1,beta,1\n", GOOD_META,
                                 "row 2: stage 'x' is not an integer"),
    "duplicate-with-bad-stage": ("r1,alpha,1\nr1,alpha,x\n", GOOD_META,
                                 "row 3: duplicate cell for respondent 'r1', item 'alpha'"),
    "unknown-item-then-duplicate": ("r1,alpha,1\nr1,delta,1\nr1,alpha,1\n", GOOD_META,
                                    "row 3: unknown item 'delta'"),
    "duplicate-then-short-row": ("r1,alpha,1\nr1,alpha,1\nr1\n", GOOD_META,
                                 "row 3: duplicate cell for respondent 'r1', item 'alpha'"),
    "domain-then-respondent-without-items": ("r2,beta,\nr1,alpha,9\n", GOOD_META,
                                             "row 3: stage label 9 falls outside the "
                                             "declared domain (1..3)"),
    "respondent-without-items-and-item-never-observed": (
        "r1,alpha,\nr2,alpha,1\n", GOOD_META, "respondent 'r1' observed no items"),
    "bad-header": (None, GOOD_META,
                   "expected header respondent_id,item,stage, got ['who', 'what', 'when']"),
    "malformed-l": ("r1,alpha,1\n", {**GOOD_META, "l": 2.5},
                    "sidecar has malformed items, l or stage_label_offset: "
                    "2.5 is not a whole number"),
    "boolean-offset": ("r1,alpha,1\n", {**GOOD_META, "stage_label_offset": True},
                       "sidecar has malformed items, l or stage_label_offset: "
                       "True is not a whole number"),
    "missing-key": ("r1,alpha,1\n", {"items": ["alpha", "beta"], "l": 3},
                    "sidecar is missing the 'stage_label_offset' key"),
    "sidecar-not-object": ("r1,alpha,1\n", ["alpha"], "sidecar must hold a JSON object"),
}


@pytest.mark.parametrize("body,meta,message", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_every_refusal_keeps_its_message_and_row(tmp_path, body, meta, message):
    text = "who,what,when\n" if body is None else "respondent_id,item,stage\n" + body
    with pytest.raises(FormatError) as err:
        read_dataset(_write_csv(tmp_path, text, meta))
    assert str(err.value) == message
    row = message.split(":")[0]
    assert err.value.row == (int(row[4:]) if row.startswith("row ") else None)


@pytest.mark.parametrize("cell", ["1_0", "\u0663"])
def test_stage_cell_is_ascii_digits_with_an_optional_sign(tmp_path, cell):
    # int() alone reads "1_0" as 10 and the Arabic-Indic digit three as 3.
    meta = {**GOOD_META, "l": 10}
    with pytest.raises(FormatError) as err:
        read_dataset(_write_csv(tmp_path, f"respondent_id,item,stage\nr1,alpha,{cell}\n", meta))
    assert str(err.value) == f"row 2: stage {cell!r} is not an integer"


def test_file_refusals_name_the_file(tmp_path):
    path = tmp_path / "data.csv"
    with pytest.raises(FormatError, match="^dataset file not found: "):
        read_dataset(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(FormatError, match="^dataset sidecar not found: .*data.meta.json$"):
        read_dataset(path)
    sidecar_path(path).write_text("{", encoding="utf-8")
    with pytest.raises(FormatError, match="^sidecar is not valid JSON: Expecting"):
        read_dataset(path)
    sidecar_path(path).write_text(json.dumps(GOOD_META), encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_dataset(path)
    assert str(err.value) == "expected header respondent_id,item,stage, got None"


# Labels and ids with the characters the CSV quotes, blanks and digits.
_TEXT = st.text(st.sampled_from('ab1 ,"é'), min_size=1, max_size=5)


@st.composite
def _dataset_files(draw):
    """(CSV text, sidecar) of a well-formed dataset, its cells in any order:
    unranked items as empty or blank cells or no row, and stage labels
    shifted by an offset, with optional blanks and sign."""
    labels = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    l = draw(st.integers(1, 4))
    offset = draw(st.integers(-3, 3))
    ids = draw(st.lists(_TEXT, min_size=1, max_size=6, unique=True))
    stage = st.none() | st.integers(1, l)
    table = [draw(st.lists(stage, min_size=len(labels), max_size=len(labels))) for _ in ids]
    # Every respondent observes an item, and every item is observed.
    for k, stages in enumerate(table):
        if all(v is None for v in stages):
            stages[k % len(labels)] = 1
    for i in range(len(labels)):
        if all(stages[i] is None for stages in table):
            table[0][i] = l
    rows = []
    for rid, stages in zip(ids, table):
        for item, stage in zip(labels, stages):
            if stage is None:
                cell = draw(st.sampled_from([None, "", "  "]))
            else:
                label = stage + offset - 1
                forms = ["{}", " {} ", "+{}"] if label >= 0 else ["{}", " {} "]
                cell = draw(st.sampled_from(forms)).format(label)
            if cell is not None:
                rows.append((rid, item, cell))
    rows = draw(st.permutations(rows))
    lines = [["respondent_id", "item", "stage"], *rows]
    meta = {"items": labels, "l": l, "stage_label_offset": offset}
    return lines, meta


@given(_dataset_files())
@settings(max_examples=150, deadline=None)
def test_reader_matches_a_plain_csv_loop(file):
    lines, meta = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        with path.open("w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(lines)
        sidecar_path(path).write_text(json.dumps(meta), encoding="utf-8")
        ds = read_dataset(path)
        ids, stages = naive_read_dataset(path)
        write_dataset(ds, path)
        again = read_dataset(path)
    assert [rid for rid, _ in ds.responses] == ids
    assert [ranking.stages for _, ranking in ds.responses] == stages
    assert again == ds


def test_bundled_survey_matches_a_plain_csv_loop():
    ds = read_dataset(demo_dataset_path())
    ids, stages = naive_read_dataset(demo_dataset_path())
    assert [rid for rid, _ in ds.responses] == ids
    assert [ranking.stages for _, ranking in ds.responses] == stages


class TestDatasetRefusals:
    """QuestionnaireDataset refuses respondents that do not fit its items and
    domain, the first faulty respondent in order being the one named."""

    @staticmethod
    def build(*stages, l=3):
        return QuestionnaireDataset(
            items=ItemSet(("a", "b")), stage_domain=StageDomain(l), stage_label_offset=1,
            responses=tuple((f"r{k}", PartialRanking(s)) for k, s in enumerate(stages)),
        )

    def test_out_of_domain(self):
        with pytest.raises(ValueError, match=r"^entry 1 has stage 4 outside 1\.\.3$"):
            self.build((1, 2), (1, 4))

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="^respondent 'r1' has 3 entries, expected 2$"):
            self.build((1, 2), (1, 2, 3))

    def test_first_faulty_respondent_is_named(self):
        with pytest.raises(ValueError, match="^entry 0 has stage 5 outside"):
            self.build((5, 1), (1, 2, 3))
        with pytest.raises(ValueError, match="^respondent 'r0' has 1 entries"):
            self.build((1,), (5, 1))

    def test_duplicate_ids(self):
        with pytest.raises(ValueError, match="^respondent ids must be unique$"):
            QuestionnaireDataset(
                items=ItemSet(("a",)), stage_domain=StageDomain(2), stage_label_offset=1,
                responses=(("r", PartialRanking((1,))), ("r", PartialRanking((2,)))),
            )

    @pytest.mark.parametrize("entry", [True, 1.0, 2.5, "2"])
    def test_bool_float_and_text_entries(self, entry):
        with pytest.raises(ValueError, match="^entry 0 must be an int stage or MISSING"):
            self.build((entry, 1))

    def test_numpy_integers_are_plain_stages(self):
        ds = self.build((np.int64(1), np.int32(3)), (np.uint8(2), MISSING))
        assert ds.responses[0][1].stages == (1, 3)
        assert all(type(v) is int for v in ds.responses[0][1].stages)
        assert ds == self.build((1, 3), (2, MISSING))


class TestBundledDataset:
    def test_shape_and_rates(self):
        ds = read_dataset(demo_dataset_path())
        assert ds.items.n == 8
        assert ds.m == 30
        assert ds.stage_domain.l == 4
        assert ds.stage_label_offset == 2
        rates = item_response_rates(ds)
        published = np.array([76.7, 63.3, 56.7, 43.3, 60.0, 53.3, 60.0, 36.7]) / 100
        assert np.all(np.abs(rates - published) <= 0.05)
        assert "ynthetic" in ds.provenance

    def test_specific_rates(self):
        ds = read_dataset(demo_dataset_path())
        rates = item_response_rates(ds)
        assert rates[0] == pytest.approx(23 / 30, abs=1e-9)
        assert rates[-1] == pytest.approx(11 / 30, abs=1e-9)

    def test_demo_script_writes_into_the_current_directory(self, tmp_path):
        bundled = demo_dataset_path().parent
        before = {path.name: path.read_bytes() for path in bundled.iterdir()}
        root = Path(__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, str(root / "scripts" / "generate_demo_data.py")],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))},
        )
        assert result.returncode == 0, result.stderr
        assert {path.name: path.read_bytes() for path in bundled.iterdir()} == before
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(before)
        assert read_dataset(tmp_path / "wellbeing_survey_synthetic.csv").m == 30


class TestFilterItems:
    def test_zero_threshold_is_identity(self, small_ds):
        assert filter_items(small_ds, 0.0) is small_ds

    def test_thirty_percent_keeps_all_bundled_items(self):
        ds = read_dataset(demo_dataset_path())
        assert filter_items(ds, 0.30).items.n == 8

    def test_fifty_percent_keeps_six_bundled_items(self):
        ds = read_dataset(demo_dataset_path())
        kept = filter_items(ds, 0.50)
        assert kept.items.n == 6
        assert "Increased sensitivity to sound / tinnitus" not in kept.items.labels
        assert "Difficulty swallowing" not in kept.items.labels

    def test_idempotent(self):
        ds = read_dataset(demo_dataset_path())
        once = filter_items(ds, 0.5)
        twice = filter_items(once, 0.5)
        assert once == twice

    def test_drops_emptied_respondents(self, small_ds):
        # gamma and alpha are each observed twice, beta twice; rate 2/3 each.
        # A 0.9 threshold keeps nothing, which is an error.
        with pytest.raises(ValueError):
            filter_items(small_ds, 0.9)

    def test_respondent_dropped_when_left_empty(self):
        ds = QuestionnaireDataset(
            items=ItemSet(("a", "b")),
            stage_domain=StageDomain(2),
            stage_label_offset=1,
            responses=(
                ("r1", PartialRanking((1, 2))),
                ("r2", PartialRanking((1, 2))),
                ("r3", PartialRanking((MISSING, 1))),
            ),
        )
        kept = filter_items(ds, 0.8)  # b has rate 1.0, a has 2/3
        assert kept.items.labels == ("b",)
        assert kept.m == 3


class TestRankingFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "rank.json"
        write_ranking_file((1, MISSING, 3), path, stage_label_offset=2)
        stages, offset = read_ranking_file(path)
        assert stages == [1, MISSING, 3]
        assert offset == 2

    def test_default_offset(self, tmp_path):
        path = tmp_path / "rank.json"
        path.write_text('{"stages": [1, 2, null]}', encoding="utf-8")
        stages, offset = read_ranking_file(path)
        assert stages == [1, 2, MISSING]
        assert offset == 1

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "rank.json"
        path.write_text('{"stages": ["x"]}', encoding="utf-8")
        with pytest.raises(FormatError):
            read_ranking_file(path)


def _tiny_result():
    trace = McmcTrace(
        n=2,
        l=3,
        iterations=np.array([5, 6, 7]),
        centers=np.array([[1, 3], [1, 3], [2, 3]]),
        spreads=np.array([0.8, 0.9, 1.0]),
        log_posteriors=np.array([-3.0, -2.5, -4.0]),
        accept_rate_center=0.4,
        accept_rate_spread=0.6,
    )
    marginals = np.array([[2 / 3, 1 / 3, 0.0], [0.0, 0.0, 1.0]])
    return FitResult(
        pi_map=CentralRanking((1, 3)),
        lambda_map=0.9,
        trace=trace,
        marginals=marginals,
    )


@pytest.fixture
def two_item_ds():
    return QuestionnaireDataset(
        items=ItemSet(("first", "second")),
        stage_domain=StageDomain(3),
        stage_label_offset=2,
        responses=(("r1", PartialRanking((1, 3))),),
    )


class TestReports:
    def test_report_round_trip_and_labels(self, tmp_path, two_item_ds):
        path = tmp_path / "report.json"
        write_fit_report(_tiny_result(), two_item_ds, path, manifest={"seed": 3})
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["map_center_internal"] == [1, 3]
        assert report["map_center_labels"] == [2, 4]
        assert report["lambda_map"] == 0.9
        assert report["acceptance_rates"] == {"center": 0.4, "spread": 0.6}
        assert report["manifest"] == {"seed": 3}

    def test_trace_format(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        write_trace(_tiny_result().trace, path)
        records = read_trace(path)
        assert records[0] == {
            "iter": 5,
            "lambda": 0.8,
            "log_post": -3.0,
            "stages": [1, 3],
        }
        assert len(records) == 3

    def test_trace_bytes_are_one_compact_line_per_sample(self, tmp_path):
        trace = _tiny_result().trace
        path = tmp_path / "trace.ndjson"
        write_trace(trace, path)
        lines = [
            json.dumps({"iter": int(it), "lambda": float(s), "log_post": float(lp),
                        "stages": [int(v) for v in row]}, separators=(",", ":"))
            for it, s, lp, row in zip(trace.iterations, trace.spreads,
                                      trace.log_posteriors, trace.centers)
        ]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
        empty = McmcTrace(n=2, l=3, iterations=np.empty(0, dtype=np.int64),
                          centers=np.empty((0, 2), dtype=np.int32), spreads=np.empty(0),
                          log_posteriors=np.empty(0), accept_rate_center=0.0,
                          accept_rate_spread=0.0)
        write_trace(empty, path)
        assert path.read_bytes() == b"\n"

    def test_trace_is_streamed(self, tmp_path):
        """Writing 20,000 samples holds less than the file's own size."""
        count, n = 20_000, 8
        rng = np.random.default_rng(0)
        trace = McmcTrace(
            n=n, l=4, iterations=np.arange(1, count + 1),
            centers=rng.integers(1, 5, size=(count, n), dtype=np.int32),
            spreads=rng.random(count) + 0.5, log_posteriors=-100 * rng.random(count),
            accept_rate_center=0.2, accept_rate_spread=0.5,
        )
        path = tmp_path / "trace.ndjson"
        tracemalloc.start()
        try:
            write_trace(trace, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size
        assert len(read_trace(path)) == count

    def test_byte_stability(self, tmp_path, two_item_ds):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_fit_report(_tiny_result(), two_item_ds, a)
        write_fit_report(_tiny_result(), two_item_ds, b)
        assert a.read_bytes() == b.read_bytes()


class TestHeatmap:
    def test_one_rect_per_cell(self, tmp_path, two_item_ds):
        path = tmp_path / "heat.svg"
        write_heatmap_svg(_tiny_result().marginals, two_item_ds, path)
        text = path.read_text(encoding="utf-8")
        assert text.count("<rect") == 2 * 3
        assert text.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in text

    def test_one_hot_rows_fully_shade_one_cell(self, tmp_path, two_item_ds):
        marginals = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        path = tmp_path / "heat.svg"
        write_heatmap_svg(marginals, two_item_ds, path)
        text = path.read_text(encoding="utf-8")
        assert text.count('fill-opacity="1.000000"') == 2

    def test_external_stage_labels(self, tmp_path, two_item_ds):
        path = tmp_path / "heat.svg"
        write_heatmap_svg(_tiny_result().marginals, two_item_ds, path)
        text = path.read_text(encoding="utf-8")
        # offset 2, l=3: columns are labeled 2, 3, 4
        assert ">2</text>" in text and ">4</text>" in text

    def test_shape_mismatch_rejected(self, tmp_path, two_item_ds):
        with pytest.raises(ValueError):
            write_heatmap_svg(np.zeros((3, 3)), two_item_ds, tmp_path / "x.svg")

    def test_wide_matrix_streams_in_little_memory(self, tmp_path):
        # 3 items over 100,000 stages: about 43 MB of SVG, written as it is
        # formed, so the peak stays far below the text's size.
        ds = QuestionnaireDataset(
            items=ItemSet(("a", "b", "c")),
            stage_domain=StageDomain(100_000),
            stage_label_offset=1,
            responses=(),
        )
        marginals = np.full((3, 100_000), 1e-5)
        path = tmp_path / "wide.svg"
        tracemalloc.start()
        try:
            write_heatmap_svg(marginals, ds, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20
        with path.open(encoding="utf-8") as svg:
            assert sum(line.startswith("<rect") for line in svg) == 3 * 100_000
