"""Print the SHA-256 of every file the benchmark's commands write for one workload.

Usage, from anywhere:

    python3 scripts/output_digests.py --workload {survey,wide,large}

It runs the workload's ``simulate`` command (on ``wide`` and ``large``) with
workload seed 1 and then its ``fit`` command at chain seeds 1000 to 1003, with
the arguments of perfbench/run.py's WORKLOADS, as the benchmark runs them.
Every command runs in a fresh process from the source of the checkout this
script sits in, inside a temporary directory and with relative paths, so
that the manifests, which record the paths they were given, do not depend
on where the checkout is. The survey's bundled files are copied in first.

Prints one JSON object mapping each output file's path in that directory to
its SHA-256. Two checkouts wrote the same bytes when they print the same
object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import ROOT, WORKLOADS, environment, prepare

CHAIN_SEEDS = (1000, 1001, 1002, 1003)
WORKLOAD_SEED = 1


def run_commands(workload: str, work: Path) -> None:
    """Write the workload's outputs under work, one command per process."""
    wl = WORKLOADS[workload]
    data, prior = prepare(workload, WORKLOAD_SEED, ROOT, work)
    for seed in CHAIN_SEEDS:
        subprocess.run([sys.executable, "-c", "from stagemallows.cli import main; main()",
                        "fit", "--data", data, "--prior-center", prior, *wl.fit,
                        "--iterations", str(wl.iterations), "--burn-in", str(wl.burn_in),
                        "--seed", str(seed), "--out-dir", f"fit{seed}"],
                       cwd=work, env=environment(ROOT), check=True, capture_output=True,
                       text=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        try:
            run_commands(args.workload, work)
        except subprocess.CalledProcessError as exc:
            sys.exit(f"{exc.cmd[3]} exited {exc.returncode}:\n{exc.stderr}")
        digests = {
            path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.rglob("*")) if path.is_file()
        }
    print(json.dumps(digests, indent=1))


if __name__ == "__main__":
    main()
