"""Time the benchmark's fits from two source trees side by side, in fresh processes.

Usage, from anywhere:

    python3 scripts/time_fits.py --base TREE --head TREE \
        --workload {survey,wide,large} [--pairs P] [--workload-seed W]

TREE is the root of a checkout (the directory holding ``src/stagemallows``),
for instance a parent commit unpacked with ``git archive`` and this one. The
data and arguments are the benchmark's (perfbench/run.py's WORKLOADS, at
workload seed W, default 1): the bundled survey, or one dataset made by
``simulate`` from the head tree, with the prior centered on the truth. A pair
runs every chain of the workload (seeds 1000 W, 1000 W + 1, ...) once from
each tree, each ``fit`` in its own single-threaded process through
perfbench/child.py, which times ``mcmc_fit``. Pairs alternate which tree
goes first.

Prints one JSON object: each side's chain milliseconds per pair (summed over
the pair's chains), the median head/base ratio of the pairs with its
quartiles, how many pairs the head won (ran faster), and per pair whether
the two trees wrote the same ``report.json`` and ``trace.ndjson`` bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import SURVEY, WORKLOADS  # noqa: E402

COMPARED = ("report.json", "trace.ndjson")


def environment(tree: Path) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    return env


def prepare(workload: str, seed: int, head: Path, work: Path) -> tuple[str, str]:
    """The workload's dataset and prior-center files under work, as relative paths."""
    wl = WORKLOADS[workload]
    if wl.simulate is None:
        for name in ("wellbeing_survey_synthetic.csv", "wellbeing_survey_synthetic.meta.json",
                     "wellbeing_survey_prior.json"):
            shutil.copy(ROOT / SURVEY / name, work / name)
        return "wellbeing_survey_synthetic.csv", "wellbeing_survey_prior.json"
    subprocess.run([sys.executable, "-c", "from stagemallows.cli import main; main()",
                    "simulate", *wl.simulate, "--seed", str(seed), "--out", "data"],
                   cwd=work, env=environment(head), check=True, capture_output=True, text=True)
    truth = json.loads((work / "data" / "truth.json").read_text(encoding="utf-8"))
    (work / "truth_center.json").write_text(json.dumps(
        {"stages": truth["center_internal"], "stage_label_offset": 1}))
    return "data/dataset.csv", "truth_center.json"


def fit(tree: Path, argv: list[str], work: Path) -> float:
    """Run one fit from tree in a fresh process; its chain seconds."""
    record = work / "record.json"
    record.unlink(missing_ok=True)
    spec = {"argv": argv, "trace": False, "distance_data": None, "record": str(record),
            "spawned": time.perf_counter()}
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                           json.dumps(spec)], cwd=work, env=environment(tree),
                          capture_output=True, text=True)
    result = json.loads(record.read_text(encoding="utf-8")) if record.exists() else None
    if proc.returncode != 0 or result is None or result["exit"] != 0:
        sys.exit(f"fit from {tree} failed:\n{proc.stderr}")
    return result["chain_s"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--pairs", type=int, default=24)
    parser.add_argument("--workload-seed", type=int, default=1,
                        help="seeds the simulated dataset and the chains")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "stagemallows" / "cli.py").is_file():
            parser.error(f"no stagemallows source under {tree}")
    wl = WORKLOADS[args.workload]
    chain_ms = {side: [] for side in trees}
    agree = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        data, prior = prepare(args.workload, args.workload_seed, trees["head"], work)
        for pair in range(args.pairs):
            order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
            seconds = dict.fromkeys(trees, 0.0)
            same = True
            for k in range(wl.chains):
                seed = 1000 * args.workload_seed + k
                written = {}
                for side in order:
                    out = f"fit-{side}"
                    seconds[side] += fit(trees[side], [
                        "fit", "--data", data, "--prior-center", prior, *wl.fit,
                        "--iterations", str(wl.iterations), "--burn-in", str(wl.burn_in),
                        "--seed", str(seed), "--out-dir", out], work)
                    written[side] = [(work / out / name).read_bytes() for name in COMPARED]
                same &= written["base"] == written["head"]
            for side in trees:
                chain_ms[side].append(round(seconds[side] * 1e3, 3))
            agree.append(same)
    ratios = [h / b for h, b in zip(chain_ms["head"], chain_ms["base"])]
    q1, median, q3 = quartiles(ratios)
    print(json.dumps({
        "workload": args.workload, "workload_seed": args.workload_seed, "pairs": args.pairs,
        "chains_per_pair": wl.chains,
        "base": str(trees["base"]), "head": str(trees["head"]),
        "chain_ms": chain_ms,
        "median_chain_ms": {side: statistics.median(ms) for side, ms in chain_ms.items()},
        "ratio": {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)},
        "head_won": sum(r < 1.0 for r in ratios),
        "outputs_agree": agree,
    }, indent=1))


if __name__ == "__main__":
    main()
