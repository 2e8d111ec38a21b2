"""Command-line surface: simulate, fit, eval, and distance.

Every command is deterministic given its seed, and every machine-readable
artifact lands in files; standard output stays human-readable. Commands
exit 0 on success, 2 on usage or format problems (an input that cannot be
read or an output that cannot be made included), 3 when a ranking space
is past the capacity rule (mallows.check_capacity), and 4 when the chain
cannot start from a finite log-posterior.
"""

from __future__ import annotations

import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import CapacityError, FormatError, InitializationError
from .inference import McmcConfig, PriorConfig, mcmc_fit
from .io import (
    QuestionnaireDataset,
    checked_center,
    filter_items,
    parse_int,
    read_dataset,
    read_ranking_file,
    read_truth,
    write_fit_report,
    write_heatmap_svg,
    write_json,
    write_raw_dataset,
    write_trace,
)
from .mallows import MallowsParams, check_capacity
from .rankings import (
    CentralRanking,
    DistanceConfig,
    ItemSet,
    PairKind,
    StageDomain,
    kendall_tau_partial,
    pair_tally,
    ranking_from_values,
)
from .synth import SynthConfig, generate

EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INIT = 4


def _mapped_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError as err:
            raise click.UsageError(str(err))
        except (FormatError, OSError) as err:  # OSError: a path not readable or writable
            _die(str(err), EXIT_USAGE)
        except CapacityError as err:
            _die(str(err), EXIT_CAPACITY)
        except InitializationError as err:
            _die(str(err), EXIT_INIT)

    return wrapper


def _die(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_center(text: str, n: int, domain: StageDomain) -> CentralRanking:
    """--center accepts a ranking file or a comma list of internal stages."""
    if Path(text).is_file():
        stages, _ = read_ranking_file(text)
        return checked_center(stages, n, domain, f"center file {text}")
    try:
        stages = [parse_int(tok) for tok in text.split(",")]
    except ValueError:
        raise click.UsageError(
            f"--center must be a ranking file or a comma list of stages, got {text!r}"
        )
    return checked_center(stages, n, domain, "--center")


def _uniform_center(rng: np.random.Generator, n: int, l: int) -> CentralRanking:
    return CentralRanking(tuple(int(v) for v in rng.integers(1, l + 1, n)))


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def _output_dir(ctx, param, path: Path) -> Path:
    """Refuse, before any draw or chain, an output directory that mkdir could
    not make or that could not be written in. The commands make it only after
    their work, so that a run that exits 3 or 4 leaves nothing behind."""
    nearest = next((p for p in (path, *path.parents) if os.path.lexists(p)), path)
    if not (nearest.is_dir() and os.access(nearest, os.W_OK | os.X_OK)):
        raise click.BadParameter(f"{nearest} is not a writable directory", ctx, param)
    return path


def _option_group(*options):
    """One decorator applying the given click options in the listed order."""

    def decorate(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn

    return decorate


def _manifest(subcommand: str, settings: dict, outputs: dict, inputs: dict | None = None,
              **resolved) -> dict:
    """The fully resolved settings of one command invocation.

    Echoed into every JSON artifact so any output can be reproduced
    byte-for-byte by re-running the command with these settings. The config
    is every option but --seed and the paths, with the resolved values (the
    centers a run draws or reads, and the seeds it derives) in place.
    """
    config = {key: value for key, value in settings.items()
              if key not in ("seed", "data", "out", "out_dir")}
    return {"subcommand": subcommand, "seed": settings["seed"], "config": config | resolved,
            "inputs": inputs or {}, "outputs": outputs, "version": __version__}


_synth_options = _option_group(
    click.option("--n", type=int, required=True, help="Number of items."),
    click.option("--l", type=int, required=True, help="Number of stages."),
    click.option("--lambda", "lambda", type=float, required=True, help="True spread."),
    click.option("--center", type=str, default=None,
                 help="True center: comma list of stages or a ranking file."),
    click.option("--center-random", is_flag=True,
                 help="Draw the true center uniformly from the space."),
    click.option("--M", "M", type=int, required=True, help="Number of respondents."),
    click.option("--missing-pct", type=float, default=SynthConfig.missing_percent,
                 show_default=True, help="Percent of respondents to right-censor."),
    click.option("--censor-location-factor", type=float,
                 default=SynthConfig.censor_location_factor, show_default=True),
    click.option("--censor-scale", type=float, default=SynthConfig.censor_scale,
                 show_default=True),
)


def _synth_config(rng: np.random.Generator, settings: dict) -> SynthConfig:
    """Settings of --n ... --censor-scale; a random true center comes from rng."""
    n, l, center = settings["n"], settings["l"], settings["center"]
    if (center is None) == (not settings["center_random"]):
        raise click.UsageError("provide exactly one of --center / --center-random")
    # Refuse a space past capacity before building an n-item center.
    check_capacity(n, l)
    domain = StageDomain(l)
    truth_center = (
        _uniform_center(rng, n, l) if center is None else _parse_center(center, n, domain)
    )
    return SynthConfig(
        truth=MallowsParams(truth_center, settings["lambda"], domain),
        size=settings["M"],
        missing_percent=settings["missing_pct"],
        censor_location_factor=settings["censor_location_factor"],
        censor_scale=settings["censor_scale"],
    )


_chain_options = _option_group(
    click.option("--iterations", type=int, default=McmcConfig.iterations, show_default=True),
    click.option("--burn-in", type=int, default=McmcConfig.burn_in, show_default=True),
    click.option("--thinning", type=int, default=McmcConfig.thinning, show_default=True),
    click.option("--proposal-scale", type=float, default=McmcConfig.lambda_proposal_scale,
                 show_default=True,
                 help="Standard deviation of the spread's truncated-normal walk; 0 pins "
                      "the spread."),
    click.option("--prior-spread", type=float, default=None,
                 help="Fix the center prior's spread (default: couple to lambda)."),
)


def _chain_config(settings: dict, prior_center: CentralRanking, lambda_init: float,
                  seed: int, start_center: CentralRanking | None
                  ) -> tuple[McmcConfig, PriorConfig]:
    """The chain and prior settings of --iterations ... --prior-spread."""
    mcmc = McmcConfig(
        iterations=settings["iterations"],
        burn_in=settings["burn_in"],
        thinning=settings["thinning"],
        lambda_init=lambda_init,
        lambda_proposal_scale=settings["proposal_scale"],
        seed=seed,
        start_center=start_center,
    )
    return mcmc, PriorConfig(center=prior_center, pi_spread=settings["prior_spread"])


_p_option = click.option("--p", type=float, default=DistanceConfig.p, show_default=True)
_seed_option = click.option("--seed", type=int, default=0, show_default=True)


@click.group()
@click.version_option(version=__version__)
def cli():
    """Fit and simulate Mallows models over staged rankings."""


# ---------------------------------------------------------------- simulate


@cli.command("simulate")
@_synth_options
@click.option("--p", type=float, default=DistanceConfig.p, show_default=True,
              help="Tie penalty for the distance.")
@_seed_option
@click.option("--out", type=click.Path(path_type=Path), required=True,
              callback=_output_dir, help="Output directory.")
@_mapped_errors
def cmd_simulate(**settings):
    """Draw a synthetic censored dataset from a known model."""
    cfg = DistanceConfig(p=settings["p"])
    seed, n, size, out = settings["seed"], settings["n"], settings["M"], settings["out"]
    rng = np.random.default_rng(seed)
    synth_cfg = _synth_config(rng, settings)
    synth_seed = _sub_seed(rng)
    data, truth = generate(replace(synth_cfg, seed=synth_seed), cfg)
    width = len(str(size))
    responses = [(f"S{k + 1:0{width}d}", r) for k, r in enumerate(data)]
    censored_ids = [rid for rid, r in responses if not r.is_complete]
    manifest = _manifest(
        "simulate", settings,
        {"dataset": "dataset.csv", "sidecar": "dataset.meta.json", "truth": "truth.json"},
        center=list(truth.center.stages), synth_seed=synth_seed,
    )

    out.mkdir(parents=True, exist_ok=True)
    items = ItemSet(tuple(f"item{k + 1:02d}" for k in range(n)))
    write_raw_dataset(
        items, settings["l"], 1, responses, out / "dataset.csv",
        provenance=f"synthetic dataset simulated with seed {seed}",
    )
    write_json(
        {
            "center_internal": list(truth.center.stages),
            "lambda": truth.spread,
            "n": n,
            "l": settings["l"],
            "censored_respondents": censored_ids,
            "manifest": manifest,
        },
        out / "truth.json",
    )
    write_json(manifest, out / "manifest.json")
    click.echo(
        f"wrote {size} respondents ({len(censored_ids)} censored) to {out / 'dataset.csv'}"
    )


# --------------------------------------------------------------------- fit


def _resolve_prior_center(
    spec: str, ds: QuestionnaireDataset, rng: np.random.Generator
) -> CentralRanking:
    if spec == "uniform-random":
        return _uniform_center(rng, ds.items.n, ds.stage_domain.l)
    stages, _ = read_ranking_file(spec)
    return checked_center(stages, ds.items.n, ds.stage_domain, f"prior center file {spec}")


def _evaluation_block(truth: MallowsParams, result, cfg: DistanceConfig) -> dict:
    """The fit's MAP estimate against the model that generated its data."""
    return {
        "dp_to_truth": kendall_tau_partial(result.pi_map, truth.center, cfg),
        "lambda_abs_error": abs(result.lambda_map - truth.spread),
        "truth_lambda": truth.spread,
        "truth_center_internal": list(truth.center.stages),
    }


@cli.command("fit")
@click.option("--data", type=click.Path(path_type=Path), required=True,
              help="Dataset CSV (sidecar found alongside).")
@click.option("--prior-center", type=str, required=True,
              help='Ranking file, or "uniform-random".')
@_chain_options
@click.option("--lambda-init", type=float, default=McmcConfig.lambda_init, show_default=True)
@click.option("--init-center", type=click.Choice(["prior", "random"]),
              default="prior", show_default=True,
              help="Start the chain at the prior center or a uniform draw.")
@click.option("--min-response-rate", type=float, default=0.0, show_default=True,
              help="Drop items ranked by fewer than this fraction of respondents.")
@_p_option
@_seed_option
@click.option("--out-dir", type=click.Path(path_type=Path), required=True,
              callback=_output_dir)
@_mapped_errors
def cmd_fit(**settings):
    """Fit the model to a dataset and write report, trace, and heatmap."""
    rate, data, out_dir = settings["min_response_rate"], settings["data"], settings["out_dir"]
    if not 0.0 <= rate <= 1.0:
        raise click.UsageError(f"--min-response-rate must lie in [0, 1], got {rate}")
    cfg = DistanceConfig(p=settings["p"])
    ds = read_dataset(data)
    if rate > 0.0:
        ds = filter_items(ds, rate)

    truth = read_truth(data, ds.items.n, ds.stage_domain)
    rng = np.random.default_rng(settings["seed"])
    prior_center = _resolve_prior_center(settings["prior_center"], ds, rng)
    start = (
        _uniform_center(rng, ds.items.n, ds.stage_domain.l)
        if settings["init_center"] == "random"
        else None
    )
    chain_seed = _sub_seed(rng)
    mcmc, prior = _chain_config(settings, prior_center, settings["lambda_init"],
                                chain_seed, start)
    result = mcmc_fit(ds.rankings(), ds.stage_domain, prior, mcmc, cfg)
    manifest = _manifest(
        "fit", settings,
        {"report": "report.json", "trace": "trace.ndjson", "heatmap": "heatmap.svg"},
        inputs={"data": str(data)},
        prior_center=list(prior_center.stages),
        start_center=None if start is None else list(start.stages),
        chain_seed=chain_seed,
    )
    evaluation = None if truth is None else _evaluation_block(truth, result, cfg)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_fit_report(
        result, ds, out_dir / "report.json", manifest=manifest, evaluation=evaluation,
    )
    write_trace(result.trace, out_dir / "trace.ndjson")
    write_heatmap_svg(result.marginals, ds, out_dir / "heatmap.svg", manifest=manifest)
    write_json(manifest, out_dir / "manifest.json")

    labels = [ds.external_label(v) for v in result.pi_map.stages]
    click.echo(f"MAP center (stage labels): {labels}")
    click.echo(f"MAP lambda: {result.lambda_map:.6g}")
    click.echo(
        "acceptance rates: center "
        f"{result.trace.accept_rate_center:.3f}, "
        f"spread {result.trace.accept_rate_spread:.3f}"
    )
    if evaluation is not None:
        click.echo(
            f"vs truth: d_p = {evaluation['dp_to_truth']:.6g}, "
            f"|lambda error| = {evaluation['lambda_abs_error']:.6g}"
        )


# -------------------------------------------------------------------- eval


@cli.command("eval")
@click.option("--repeats", type=int, default=12, show_default=True)
@_synth_options
@_chain_options
@click.option("--prior-center", type=click.Choice(["truth", "uniform-random"]),
              default="truth", show_default=True,
              help="Center the prior on the generating truth or a uniform draw.")
@_p_option
@_seed_option
@click.option("--out", type=click.Path(path_type=Path), required=True,
              callback=_output_dir)
@_mapped_errors
def cmd_eval(**settings):
    """Repeat simulate-then-fit and tabulate recovery error.

    Each repeat draws a fresh dataset, starts the chain from a uniformly
    random center with a spread drawn from [0.5, 2], and records the MAP
    estimate's absolute spread error and distance to the true center.
    """
    repeats, n, l, out = settings["repeats"], settings["n"], settings["l"], settings["out"]
    if repeats < 1:
        raise click.UsageError("--repeats must be >= 1")
    cfg = DistanceConfig(p=settings["p"])
    rng = np.random.default_rng(settings["seed"])
    synth_cfg = _synth_config(rng, settings)
    truth = synth_cfg.truth

    rows = []
    for _ in range(repeats):
        synth_seed = _sub_seed(rng)
        chain_seed = _sub_seed(rng)
        lambda_init = float(rng.uniform(0.5, 2.0))
        start = _uniform_center(rng, n, l)

        data, _ = generate(replace(synth_cfg, seed=synth_seed), cfg)
        prior_center = (
            truth.center if settings["prior_center"] == "truth" else _uniform_center(rng, n, l)
        )
        mcmc, prior = _chain_config(settings, prior_center, lambda_init, chain_seed, start)
        result = mcmc_fit(data, truth.domain, prior, mcmc, cfg)
        rows.append((chain_seed, _evaluation_block(truth, result, cfg)))

    mean_mae = sum(e["lambda_abs_error"] for _, e in rows) / repeats
    mean_dp = sum(e["dp_to_truth"] for _, e in rows) / repeats
    manifest = _manifest("eval", settings, {"table": "eval.csv"},
                         center=list(truth.center.stages))

    out.mkdir(parents=True, exist_ok=True)
    lines = ["repeat,seed,lambda_mae,dp_to_truth"]
    for k, (chain_seed, e) in enumerate(rows):
        lines.append(f"{k},{chain_seed},{e['lambda_abs_error']!r},{e['dp_to_truth']!r}")
    lines.append(f"mean,,{mean_mae!r},{mean_dp!r}")
    (out / "eval.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_json(manifest, out / "manifest.json")

    click.echo(f"{repeats} repeats: mean |lambda error| = {mean_mae:.4g}, "
               f"mean d_p to truth = {mean_dp:.4g}")


# ---------------------------------------------------------------- distance


@cli.command("distance")
@click.argument("file_a", type=click.Path(path_type=Path))
@click.argument("file_b", type=click.Path(path_type=Path))
@_p_option
@_mapped_errors
def cmd_distance(file_a, file_b, p):
    """Print the penalized Kendall tau distance between two ranking files."""
    cfg = DistanceConfig(p=p)
    stages_a, _ = read_ranking_file(file_a)
    stages_b, _ = read_ranking_file(file_b)
    if len(stages_a) != len(stages_b):
        raise FormatError(
            f"rankings have {len(stages_a)} and {len(stages_b)} items"
        )
    x = ranking_from_values(stages_a)
    y = ranking_from_values(stages_b)
    tally = pair_tally(x, y)
    click.echo(f"d_p = {kendall_tau_partial(x, y, cfg)!r} (p = {p!r})")
    click.echo(
        f"discordant pairs: {tally[PairKind.DISCORDANT]}, "
        f"tied in one: {tally[PairKind.TIED_ONE]}, "
        f"dropped: {tally[PairKind.DROPPED]}, "
        f"concordant: {tally[PairKind.CONCORDANT]}, "
        f"tied in both: {tally[PairKind.TIED_BOTH]}"
    )


def main(argv=None):
    cli(args=argv, prog_name="stagemallows")


if __name__ == "__main__":
    main()
