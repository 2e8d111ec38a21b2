"""Record the machine, each workload's layer shares and its ESS seed spread.

Usage, from the repository root:

    python3 perfbench/baseline.py

For every workload it makes one traced run, which gives the share of the
traced command time spent in each layer's own code, and one untraced run per
workload seed, which gives how far ``ess_per_s`` moves when the simulated
dataset and the chain seeds change. A change that alters the chain's random
stream should be judged against that spread, not against the run-to-run
spread at one workload seed. The result goes to perfbench/baseline.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from run import SPEC, WORKLOADS
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
SECONDS = str(SPEC["run_seconds"])
SEEDS = (1, 2, 3, 4, 5, 6)


def _run(workload: str, trace: int, workload_seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", SECONDS, "--trace", str(trace),
         "--workload-seed", str(workload_seed)],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        print(proc.stderr, file=sys.stderr)
    return result


def _mem_total_gb() -> float:
    with open("/proc/meminfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 2**20
    raise RuntimeError("no MemTotal in /proc/meminfo")


def main() -> int:
    out = {
        "machine": {
            "cores": os.cpu_count(),
            "ram_gb": round(_mem_total_gb(), 1),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    for name in WORKLOADS:
        traced = _run(name, 1, SEEDS[0])["metrics"]
        wall = traced["trace.wall_s"]["value"]
        shares = {layer: traced[f"{layer}.self_s"]["value"] / wall for layer in LAYERS}
        shares["mallows.log_psi"] = traced["mallows.log_psi_self_s"]["value"] / wall
        shares["mallows.histogram_build"] = (
            traced["mallows.histogram_build_s"]["value"] / wall)
        runs = {seed: _run(name, 0, seed) for seed in SEEDS}
        by_seed = {s: r["metrics"]["ess_per_s"]["value"] for s, r in runs.items()}
        ess = [v for v in by_seed.values() if v is not None]
        q1, _, q3 = statistics.quantiles(ess, n=4)
        out["workloads"][name] = {
            "traced_wall_s": wall,
            "tracing_overhead_s": traced["trace.overhead_s"]["value"],
            "tracing_overhead_est_s": traced["trace.overhead_est_s"]["value"],
            "layer_shares_of_traced_wall": {k: round(v, 4) for k, v in shares.items()},
            "ess_per_s_by_workload_seed": {str(s): v for s, v in by_seed.items()},
            "ess_per_s_seed_spread": (q3 - q1) / statistics.median(ess),
            "failed_by_workload_seed": {
                str(s): r["failed"] for s, r in runs.items()},
        }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
