"""Compare the benchmark's outputs from two source trees, and time their fits
side by side in fresh processes.

Usage, from anywhere:

    python3 scripts/time_fits.py --base TREE --head TREE \
        --workload {survey,wide,large} [--pairs P] [--workload-seed W]

TREE is the root of a checkout (the directory holding ``src/stagemallows``),
for instance a parent commit unpacked with ``git archive`` and this one. The
data and arguments are the benchmark's (perfbench/run.py's WORKLOADS, at
workload seed W, default 1). Each tree makes the workload's data in its own
directory: it copies its bundled survey, or runs the workload's ``simulate``
and centers the prior on the truth. Both trees then fit the head's data. A
pair runs every chain of the workload (seeds 1000 W, 1000 W + 1, ...) once
from each tree, each ``fit`` in its own single-threaded process through
perfbench/child.py, which times ``mcmc_fit``. Pairs alternate which tree
goes first.

Prints one JSON object: each side's chain milliseconds per pair (summed over
the pair's chains), the median head/base ratio of the pairs with its
quartiles, and how many pairs the head won (ran faster). It also says
whether the two trees wrote the same bytes: in every data file
(``data_agree``), and per pair in every file of every fit's output
directory, ``report.json``, ``trace.ndjson``, ``heatmap.svg`` (the stage
marginals) and ``manifest.json`` (``outputs_agree``). ``compared`` lists
every file compared, and ``differ`` those whose bytes differed at least once.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import ROOT, WORKLOADS, environment, prepare


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


def written(root: Path) -> dict[str, bytes]:
    """Every file under root, by its path relative to root."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def differ(base_dir: Path, head_dir: Path) -> tuple[list[str], set[str]]:
    """The files under either directory, and those whose bytes differ."""
    base, head = written(base_dir), written(head_dir)
    names = sorted(base.keys() | head.keys())
    return names, {name for name in names if base.get(name) != head.get(name)}


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
        for side, tree in trees.items():
            (work / side).mkdir()
            data, prior = prepare(args.workload, args.workload_seed, tree, work / side)
        data_files, data_moved = differ(work / "base", work / "head")
        moved = set(data_moved)
        for pair in range(args.pairs):
            order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
            seconds = dict.fromkeys(trees, 0.0)
            for k in range(wl.chains):
                seed = 1000 * args.workload_seed + k
                for side in order:
                    seconds[side] += fit(trees[side], [
                        "fit", "--data", f"head/{data}", "--prior-center", f"head/{prior}",
                        *wl.fit, "--iterations", str(wl.iterations),
                        "--burn-in", str(wl.burn_in), "--seed", str(seed),
                        "--out-dir", f"fits-{side}/fit{seed}"], work)
            for side in trees:
                chain_ms[side].append(round(seconds[side] * 1e3, 3))
            fit_files, fits_moved = differ(work / "fits-base", work / "fits-head")
            agree.append(not fits_moved)
            moved |= fits_moved
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
        "data_agree": not data_moved,
        "outputs_agree": agree,
        "compared": [*data_files, *fit_files],
        "differ": sorted(moved),
    }, indent=1))


if __name__ == "__main__":
    main()
