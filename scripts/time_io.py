"""Time the respondent path of a command: simulate, write, read, check.

Usage, from the repository root:

    PYTHONPATH=src python3 scripts/time_io.py [--repeats R]

On data the size of the benchmark's ``wide`` workload (n=6 items, l=3
stages, spread 1, center 1,1,2,2,3,3, 3,000 respondents, 10% censored,
seed 1), times each call that a ``simulate`` or ``fit`` makes once per
dataset, with time.perf_counter, R times after one untimed call:

- ``generate``: synth.generate, the draw and one ranking per respondent;
- ``write_raw_dataset``: io.write_raw_dataset of those respondents;
- ``read_dataset``: io.read_dataset of that file, with every check;
- ``evaluator_init``: inference._Evaluator.__init__ over the read
  respondents, the fit's setup before its first iteration;
- ``write_trace``: io.write_trace of the 1,000 retained samples of one
  default-length mcmc_fit of the data (run once, untimed).

Each figure is in milliseconds, the minimum and the median of the R calls,
with ``us_per_row`` the median per respondent (per retained sample for
``write_trace``). Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import tempfile
import time
from importlib import metadata
from pathlib import Path

from stagemallows.inference import McmcConfig, PriorConfig, _Evaluator, mcmc_fit
from stagemallows.io import read_dataset, write_raw_dataset, write_trace
from stagemallows.mallows import MallowsParams
from stagemallows.rankings import CentralRanking, DistanceConfig, ItemSet, StageDomain
from stagemallows.synth import SynthConfig, generate

CENTER = (1, 1, 2, 2, 3, 3)
L = 3
M = 3000


def timed(fn, repeats: int, rows: int) -> dict:
    """min and median milliseconds of R calls of fn after one untimed call."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    median = statistics.median(times)
    return {"min_ms": round(min(times) * 1e3, 2), "median_ms": round(median * 1e3, 2),
            "us_per_row": round(median / rows * 1e6, 3)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()

    cfg = DistanceConfig()
    domain = StageDomain(L)
    truth = MallowsParams(CentralRanking(CENTER), 1.0, domain)
    synth = SynthConfig(truth=truth, size=M, missing_percent=10.0, seed=1)
    items = ItemSet(tuple(f"item{k + 1:02d}" for k in range(len(CENTER))))
    data, _ = generate(synth, cfg)
    responses = [(f"S{k + 1:04d}", r) for k, r in enumerate(data)]
    prior = PriorConfig(center=truth.center)
    trace = mcmc_fit(data, domain, prior, McmcConfig(seed=1), cfg).trace

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        write_raw_dataset(items, L, 1, responses, path)
        figures = {
            "generate": timed(lambda: generate(synth, cfg), args.repeats, M),
            "write_raw_dataset": timed(
                lambda: write_raw_dataset(items, L, 1, responses, path), args.repeats, M),
            "read_dataset": timed(lambda: read_dataset(path), args.repeats, M),
            "evaluator_init": timed(
                lambda: _Evaluator(data, domain, prior, cfg), args.repeats, M),
            "write_trace": timed(
                lambda: write_trace(trace, Path(tmp) / "trace.ndjson"), args.repeats,
                len(trace)),
        }
    print(json.dumps({
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "repeats": args.repeats, "n": len(CENTER), "l": L, "M": M,
        "retained_samples": len(trace), "calls": figures,
    }, indent=1))


if __name__ == "__main__":
    main()
