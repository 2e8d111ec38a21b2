"""Time the layers of one chain iteration on the benchmark's three datasets.

Usage, from the repository root:

    PYTHONPATH=src python3 scripts/time_chain.py [--repeats R]

The datasets are the bundled survey, with its bundled prior center, and
two made in-process by synth.generate with seed 1: ``wide`` (n=6 items,
l=3 stages, spread 1, 3,000 respondents, 10% censored) and ``large``
(n=10, l=4, 100 respondents, 10% censored), each with the prior centered
on the truth. On each, ``CENTERS`` distinct centers near the prior center
are drawn first, and each figure, in microseconds per call, is the median
of R timed passes over them (time.perf_counter), after one untimed pass:

- ``center_stats_miss_us``: _Evaluator.center_stats of a center not met
  before (its stats cache emptied at the start of the pass);
- ``center_stats_hit_us``: the same centers again, all found in the cache;
- ``evaluate_us``: one center move's partition terms, _Evaluator.evaluate
  of a center's stats at the spread of the previous call, gathered from the
  log psi of every row kept at that spread;
- ``evaluate_new_spread_us``: one spread move's, _Evaluator.evaluate at a
  spread other than the last two evaluated, which computes the log psi of
  every row of the space's table in the process's PartitionCache;
- ``center_move_us`` and ``spread_move_us``: one move of a chain iteration
  after its proposal, the function mcmc_fit runs (inference._center_move,
  inference._spread_move at the default proposal scale) from the state at
  the prior center: to each center, its statistics cached and the log psi
  at the state's spread kept, and to a new spread each time;
- ``draw_us`` and ``draw_rebuild_us``: one PartitionCache.draw of one
  ranking around a center, the call each chain iteration makes, at the
  spread of the last draw (its shares kept) and at a new spread each time
  (its shares rebuilt);
- ``draw_batch_us``: one PartitionCache.draw of as many rankings as the
  dataset has respondents, as ``simulate`` draws them, at the spread of
  the last draw (its shares kept), per ranking drawn.

An iteration is one draw, one center move, one spread proposal and one
spread move. Whole chains are timed end to end by the benchmark
(perfbench/run.py, ``iters_per_s``), not here. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
from collections import OrderedDict
from importlib import metadata

import numpy as np

from stagemallows import inference, mallows
from stagemallows.inference import McmcConfig, PriorConfig
from stagemallows.io import demo_dataset_path, read_dataset, read_ranking_file
from stagemallows.mallows import MallowsParams
from stagemallows.rankings import CentralRanking, DistanceConfig, StageDomain
from stagemallows.synth import SynthConfig, generate

CENTERS = 200
SPREAD = 1.0
SYNTHETIC = {
    "wide": ((1, 1, 2, 2, 3, 3), 3, 3000),
    "large": ((1, 1, 2, 2, 2, 3, 3, 3, 4, 4), 4, 100),
}


def datasets():
    """(name, respondents, domain, prior center) of each dataset."""
    ds = read_dataset(demo_dataset_path())
    stages, _ = read_ranking_file(demo_dataset_path().with_name("wellbeing_survey_prior.json"))
    yield "survey", ds.rankings(), ds.stage_domain, CentralRanking(tuple(stages))
    for name, (center, l, size) in SYNTHETIC.items():
        truth = MallowsParams(CentralRanking(center), SPREAD, StageDomain(l))
        data, _ = generate(SynthConfig(truth=truth, size=size, missing_percent=10, seed=1))
        yield name, data, truth.domain, truth.center


def per_call_us(call, items, repeats: int, before=lambda: None) -> float:
    """Median over passes of the microseconds per call of call(item)."""
    clock = time.perf_counter
    passes = []
    for _ in range(repeats + 1):
        before()
        start = clock()
        for item in items:
            call(item)
        passes.append((clock() - start) / len(items) * 1e6)
    return statistics.median(passes[1:])


def time_dataset(data, domain, prior_center, repeats: int) -> dict:
    cfg = DistanceConfig()
    prior = PriorConfig(center=prior_center)
    ev = inference._Evaluator(data, domain, prior, cfg)
    cache = mallows.default_cache()
    rng = np.random.default_rng(0)
    centers = list(dict.fromkeys(
        cache.draw(prior_center.stages, domain.l, cfg.p, SPREAD, rng, 4 * CENTERS)))[:CENTERS]

    def empty_stats_cache():
        ev._center_stats = OrderedDict()

    miss = per_call_us(ev.center_stats, centers, repeats, before=empty_stats_cache)
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
        "center_stats_miss_us": round(miss, 2), "center_stats_hit_us": round(hit, 2),
        "evaluate_us": round(evaluate, 2), "evaluate_new_spread_us": round(new_spread, 2),
        "center_move_us": round(center_move, 2), "spread_move_us": round(spread_move, 2),
        "draw_us": round(draw, 2),
        "draw_rebuild_us": round(rebuild, 2), "draw_batch_us": round(batch, 3),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    results = {
        name: time_dataset(data, domain, prior_center, args.repeats)
        for name, data, domain, prior_center in datasets()
    }
    print(json.dumps({
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "repeats": args.repeats, "datasets": results,
    }, indent=1))


if __name__ == "__main__":
    main()
