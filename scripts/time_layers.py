"""Time the layers of the benchmark's workloads in-process: the chain, the
partition-row builds and the respondent path.

Usage, from the repository root:

    PYTHONPATH=src python3 scripts/time_layers.py [--repeats R]

The data are the benchmark's own: workloads.prepare makes each workload of
perfbench/run.py at workload seed 1 (the bundled survey and its prior
center; ``wide`` and ``large`` by their ``simulate`` command, the prior
centered on the truth), and read_dataset reads it back. Every figure comes
from one timer (timed): R passes of a list of calls, timed with
time.perf_counter after one untimed pass; the median pass is reported (for
``io`` also the fastest). Prints one JSON object of three sections.

``chain``, per workload, in microseconds per call over ``CENTERS`` distinct
centers drawn near the prior center:

- ``center_stats_miss_us``: _Evaluator.center_stats of a center not met
  before (its stats cache emptied at the start of the pass), its groups'
  codes and its buckets (center_buckets) kept from the pass before;
- ``center_stats_first_us``: the same, with the group-code index and the
  center_buckets cache emptied too, the rows kept: what a fit's new
  centers pay, each code's first meeting included;
- ``center_stats_hit_us``: the same centers again, all found in the cache;
- ``evaluate_us``: one center move's partition terms, _Evaluator.evaluate
  at the spread of the previous call, gathered from the log psi kept there;
- ``evaluate_new_spread_us``: one spread move's, at a spread other than the
  last two, which computes the log psi of every row of the space's table;
- ``center_move_us`` and ``spread_move_us``: one move of an iteration after
  its proposal (inference._center_move, inference._spread_move at the
  default proposal scale) from the state at the prior center: to each
  center, its statistics cached, and to a new spread each time;
- ``draw_us`` and ``draw_rebuild_us``: one PartitionCache.draw of one
  ranking, the call each iteration makes, at the spread of the last draw
  (its shares kept) and at a new spread each time (its shares rebuilt);
- ``draw_batch_us``: one draw of as many rankings as the dataset has
  respondents, as ``simulate`` draws them, per ranking drawn.

Whole chains are timed end to end by the benchmark (``iters_per_s``).

``rows``: every structural class of n <= 10 items over l = 4 stages and of
n <= 6 over l = 3, at p = 0.5 and 0.731, and of 16 items over l = 4 at
p = 0.5, built over distance_grid(n, p) as a fit meets them. ``steps_s``
builds every class's program (mallows._stage_steps) with every cache of
the row builds cleared, so that a class reuses only the steps of classes
before it; ``row_s`` then builds every class's row (PartitionCache.row),
the programs kept, its key terms counting the pairs each edge adds.
``class_steps`` counts the classes' buckets and ``distinct_steps`` the
steps a pass built.

``io``: on ``wide``, in milliseconds, each call a ``simulate`` or ``fit``
makes once per dataset, with ``us_per_row`` per respondent (per retained
sample for ``write_trace``): ``generate`` with the settings and synth_seed
recorded in data/manifest.json (the script exits non-zero unless it gives
back the respondents read), ``write_raw_dataset``, ``read_dataset``,
``evaluator_init`` (_Evaluator.__init__, a fit's setup) and ``write_trace``
of the 1,000 retained samples of one default-length mcmc_fit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import statistics
import sys
import tempfile
import time
from collections import OrderedDict
from importlib import metadata
from pathlib import Path

import numpy as np

from stagemallows import inference, mallows
from stagemallows.inference import McmcConfig, PriorConfig
from stagemallows.io import read_dataset, read_ranking_file, write_raw_dataset, write_trace
from stagemallows.mallows import MallowsParams
from stagemallows.rankings import CentralRanking, DistanceConfig, StageDomain
from stagemallows.synth import SynthConfig, generate
from workloads import ROOT, prepare

WORKLOAD_SEED = 1
CENTERS = 200
SPREAD = 1.0
#: (fewest items, most items, stages, p) of each space whose rows are timed.
SPACES = ((1, 10, 4, 0.5), (1, 10, 4, 0.731), (1, 6, 3, 0.5), (1, 6, 3, 0.731),
          (16, 16, 4, 0.5))
STEP_CACHES = (mallows._stage_step, mallows._placed_states, mallows._compositions,
               mallows._pascal)
ROW_CACHES = (mallows._step_keys, mallows._step_weights, mallows._key_lookup)


def timed(call, items, repeats: int, before=lambda: None) -> list[float]:
    """Seconds of each of R timed passes of call(item) over items, after one
    untimed pass; before() runs, untimed, ahead of every pass."""
    clock = time.perf_counter
    passes = []
    for _ in range(repeats + 1):
        before()
        start = clock()
        for item in items:
            call(item)
        passes.append(clock() - start)
    return passes[1:]


def per_call_us(call, items, repeats: int, before=lambda: None) -> float:
    """Median over passes of the microseconds per call of call(item)."""
    return statistics.median(timed(call, items, repeats, before)) / len(items) * 1e6


def time_chain(data, domain, prior_center, repeats: int) -> dict:
    cfg = DistanceConfig()
    prior = PriorConfig(center=prior_center)
    ev = inference._Evaluator(data, domain, prior, cfg)
    cache = mallows.default_cache()
    rng = np.random.default_rng(0)
    centers = list(dict.fromkeys(
        cache.draw(prior_center.stages, domain.l, cfg.p, SPREAD, rng, 4 * CENTERS)))[:CENTERS]

    def empty_stats_cache():
        ev._center_stats = OrderedDict()

    def empty_stats_and_codes():
        empty_stats_cache()
        ev._code_rows = {}
        mallows.center_buckets.cache_clear()

    miss = per_call_us(ev.center_stats, centers, repeats, before=empty_stats_cache)
    first = per_call_us(ev.center_stats, centers, repeats, before=empty_stats_and_codes)
    hit = per_call_us(ev.center_stats, centers, repeats)
    stats = [ev.center_stats(center) for center in centers]
    evaluate = per_call_us(lambda s: ev.evaluate(s, SPREAD), stats, repeats)
    new_spread = per_call_us(lambda pair: ev.evaluate(*pair),
                             list(zip(stats, SPREAD + rng.random(len(stats)))), repeats)
    center = prior_center.stages
    draw = per_call_us(lambda _: cache.draw(center, domain.l, cfg.p, SPREAD, rng, 1),
                       centers, repeats)
    spreads = list(SPREAD + rng.random(len(centers)))
    rebuild = per_call_us(lambda s: cache.draw(center, domain.l, cfg.p, s, rng, 1),
                          spreads, repeats)
    batch = per_call_us(lambda _: cache.draw(center, domain.l, cfg.p, SPREAD, rng, len(data)),
                        [None], repeats) / len(data)
    state = inference._state_at(ev, center, SPREAD)
    center_move = per_call_us(lambda c: inference._center_move(ev, state, c), centers, repeats)
    scale = McmcConfig().lambda_proposal_scale
    spread_move = per_call_us(lambda s: inference._spread_move(ev, state, s, scale),
                              list(SPREAD + rng.random(len(centers))), repeats)
    return {
        "n": ev.n, "l": ev.l, "respondents": len(data), "centers": len(centers),
        "center_stats_miss_us": round(miss, 2), "center_stats_first_us": round(first, 2),
        "center_stats_hit_us": round(hit, 2),
        "evaluate_us": round(evaluate, 2), "evaluate_new_spread_us": round(new_spread, 2),
        "center_move_us": round(center_move, 2), "spread_move_us": round(spread_move, 2),
        "draw_us": round(draw, 2),
        "draw_rebuild_us": round(rebuild, 2), "draw_batch_us": round(batch, 3),
    }


def classes(n_min: int, n_max: int, l: int) -> list[tuple[int, tuple[int, ...]]]:
    """(n, class key) for every structural class of n_min <= n <= n_max
    items in at most l buckets."""
    found = set()
    for n in range(n_min, n_max + 1):
        for buckets in range(1, min(l, n) + 1):
            for cuts in itertools.combinations(range(1, n), buckets - 1):
                edges = (0, *cuts, n)
                sizes = [b - a for a, b in zip(edges, edges[1:])]
                found.add((n, mallows.class_of_sizes(sizes)))
    return sorted(found)


def time_rows(n_min: int, n_max: int, l: int, p: float, repeats: int) -> dict:
    space = classes(n_min, n_max, l)
    cache = mallows.PartitionCache()

    def clear(caches):
        for cached in caches:
            cached.cache_clear()

    steps = timed(lambda c: mallows._stage_steps(c[1], min(l, c[0])), space, repeats,
                  before=lambda: clear(STEP_CACHES + ROW_CACHES))
    rows = timed(lambda c: cache.row(c[0], l, c[1], p), space, repeats,
                 before=lambda: (clear(ROW_CACHES), cache._tables.clear()))
    return {
        "n_min": n_min, "n_max": n_max, "l": l, "p": p, "classes": len(space),
        "class_steps": sum(len(class_key) for _, class_key in space),
        "distinct_steps": mallows._stage_step.cache_info().currsize,
        "steps_s": round(statistics.median(steps), 4),
        "row_s": round(statistics.median(rows), 4),
    }


def time_io(ds, path: Path, repeats: int) -> dict:
    config = json.loads(path.with_name("manifest.json").read_text(encoding="utf-8"))["config"]
    cfg = DistanceConfig(p=config["p"])
    truth = MallowsParams(CentralRanking(tuple(config["center"])), config["lambda"],
                          StageDomain(config["l"]))
    synth = SynthConfig(truth=truth, size=config["M"], missing_percent=config["missing_pct"],
                        censor_location_factor=config["censor_location_factor"],
                        censor_scale=config["censor_scale"], seed=config["synth_seed"])
    data = ds.rankings()
    if [r.stages for r in generate(synth, cfg)[0]] != [r.stages for r in data]:
        sys.exit(f"generate with the settings recorded beside {path} does not give its data")
    prior = PriorConfig(center=truth.center)
    trace = inference.mcmc_fit(data, ds.stage_domain, prior, McmcConfig(seed=1), cfg).trace
    out = path.with_name("rewritten.csv")
    calls = {
        "generate": (lambda: generate(synth, cfg), len(data)),
        "write_raw_dataset": (lambda: write_raw_dataset(
            ds.items, ds.stage_domain.l, ds.stage_label_offset, ds.responses, out), len(data)),
        "read_dataset": (lambda: read_dataset(path), len(data)),
        "evaluator_init": (lambda: inference._Evaluator(data, ds.stage_domain, prior, cfg),
                           len(data)),
        "write_trace": (lambda: write_trace(trace, path.with_name("trace.ndjson")), len(trace)),
    }
    figures = {}
    for name, (call, rows) in calls.items():
        passes = timed(lambda _: call(), [None], repeats)
        median = statistics.median(passes)
        figures[name] = {"min_ms": round(min(passes) * 1e3, 2),
                         "median_ms": round(median * 1e3, 2),
                         "us_per_row": round(median / rows * 1e6, 3)}
    return {"n": truth.n, "l": truth.l, "M": len(data), "retained_samples": len(trace),
            "calls": figures}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    chain = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("survey", "wide", "large"):
            work = Path(tmp) / name
            work.mkdir()
            data, prior = prepare(name, WORKLOAD_SEED, ROOT, work)
            ds = read_dataset(work / data)
            stages, _ = read_ranking_file(work / prior)
            chain[name] = time_chain(ds.rankings(), ds.stage_domain,
                                     CentralRanking(tuple(stages)), args.repeats)
            if name == "wide":
                io = time_io(ds, work / data, args.repeats)
    rows = [time_rows(*space, args.repeats) for space in SPACES]
    print(json.dumps({
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "repeats": args.repeats, "workload_seed": WORKLOAD_SEED,
        "chain": chain, "rows": rows, "io": io,
    }, indent=1))


if __name__ == "__main__":
    main()
