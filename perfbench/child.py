"""Run one stagemallows CLI command in this fresh process and record it.

Usage: python3 perfbench/child.py SPEC_JSON, where SPEC_JSON holds
``argv`` (the command line after ``stagemallows``), ``spawned`` (the
parent's ``time.perf_counter()`` just before it started this process),
``trace`` (wrap the layer boundaries), ``distance_data`` (a dataset whose
respondent pairs to time ``kendall_tau_partial`` over, or null) and
``record`` (where to write the JSON record).

``perf_counter`` reads CLOCK_MONOTONIC on Linux, which all processes share,
so ``setup_s`` spans interpreter start plus the imports of stagemallows,
numpy and click. ``chain_s`` is the time spent in ``mcmc_fit``, timed by one
wrapper in every process, traced or not.
"""

import json
import resource
import sys
import time
import traceback

spec = json.loads(sys.argv[1])

from stagemallows import cli  # noqa: E402

setup_s = time.perf_counter() - spec["spawned"]

chain_s = 0.0
_mcmc_fit = cli.mcmc_fit


def _timed_fit(*args, **kwargs):
    global chain_s
    began = time.perf_counter()
    try:
        return _mcmc_fit(*args, **kwargs)
    finally:
        chain_s += time.perf_counter() - began


cli.mcmc_fit = _timed_fit

tracer = None
if spec["trace"]:
    import tracer as tracing

    tracer = tracing.install()

start = time.perf_counter()
try:
    cli.main(spec["argv"])
    code = 0
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
except Exception:
    traceback.print_exc()
    code = 1
record = {
    "exit": code,
    "setup_s": setup_s,
    "wall_s": time.perf_counter() - start,
    "chain_s": chain_s,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
}

if tracer is not None:
    record["layers"] = tracing.summarize(tracer.spans)
    # The traced command's own overhead cannot be resolved as traced minus
    # plain wall time on a machine whose speed drifts, so estimate it as the
    # number of wrapped calls times one wrapper call's cost, timed here.
    record["layers"]["wrapped_calls"] = len(tracer.spans)
    record["layers"]["wrapper_s"] = len(tracer.spans) * tracing.wrapper_cost_s()

if code == 0 and spec.get("distance_data"):
    from stagemallows.io import read_dataset
    from stagemallows.rankings import DistanceConfig, kendall_tau_partial

    # All pairs among the first 200 respondents: every pair of a
    # 3000-respondent file would take half a minute. Small files are swept
    # repeatedly so each figure rests on about 20,000 calls.
    rankings = read_dataset(spec["distance_data"]).rankings()[:200]
    pairs = [(a, b) for i, a in enumerate(rankings) for b in rankings[i + 1:]]
    sweeps = max(1, -(-20000 // len(pairs)))
    cfg = DistanceConfig()
    began = time.perf_counter()
    for _ in range(sweeps):
        for a, b in pairs:
            kendall_tau_partial(a, b, cfg)
    elapsed = time.perf_counter() - began
    record["distance_calls"] = len(pairs)
    record["distance_us"] = elapsed / (sweeps * len(pairs)) * 1e6

with open(spec["record"], "w", encoding="utf-8") as handle:
    json.dump(record, handle)
