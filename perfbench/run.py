"""stagemallows benchmark: the CLI's simulate and fit commands, closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload {survey,wide,large} --seed N \
        --seconds S --trace {0,1} [--workload-seed W]

Every command runs in a fresh single-threaded Python process (the BLAS and
OpenMP thread counts are pinned to 1), as a user's shell would run it, and
one client waits for each command before starting the next. A round runs the
workload's command sequence once: ``simulate`` (on ``wide`` and ``large``)
and then one ``fit`` per fixed chain seed. Rounds repeat while the next one
is expected to end within ``--seconds``, and at least twice, so that every
output can be compared byte for byte with the same command's output in the
first round.

The dataset and the chain seeds come from ``--workload-seed`` (default 1)
and stay fixed across runs: one 1,500-iteration survey chain has a bulk ESS
anywhere from 11 to 188 depending on its seed, so ESS per second is only
comparable between runs that use the same chains. ``--seed`` shuffles the
order of the fits within each round and changes nothing they compute.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` rounds alternate between plain
and traced processes, and the object holds the per-layer metrics measured
by ``tracer.py`` together with the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from ess import bulk_ess
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
SOURCE = Path("src")
CHILD_TIMEOUT_S = 120.0
SETUP_PROBES = 3
SELF_SUM_TOLERANCE = 0.05
SURVEY = SOURCE / "stagemallows" / "data"


@dataclass(frozen=True)
class Workload:
    """A command sequence; ``simulate`` None means fit the bundled survey.

    BENCHMARK.json says why each workload is in the benchmark.
    """

    simulate: tuple[str, ...] | None
    fit: tuple[str, ...]
    chains: int
    iterations: int
    burn_in: int
    dp_tolerance: float | None


WORKLOADS = {
    "survey": Workload(
        simulate=None,
        fit=(),
        chains=4, iterations=1500, burn_in=500, dp_tolerance=None,
    ),
    "wide": Workload(
        simulate=("--n", "6", "--l", "3", "--lambda", "1.0",
                  "--center", "1,1,2,2,3,3", "--M", "3000", "--missing-pct", "10"),
        fit=("--init-center", "random"),
        chains=4, iterations=1500, burn_in=500, dp_tolerance=2.0,
    ),
    "large": Workload(
        simulate=("--n", "10", "--l", "4", "--lambda", "1.0",
                  "--center", "1,1,2,2,2,3,3,3,4,4", "--M", "100",
                  "--missing-pct", "10"),
        fit=("--init-center", "random"),
        chains=1, iterations=300, burn_in=100, dp_tolerance=2.0,
    ),
}

# BENCHMARK.json names the metrics; their units come from there too.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _data_rows(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle) - 1


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


class Run:
    """One benchmark run: its operations, their checks, and per-round figures."""

    def __init__(self, name: str, workload_seed: int, order_seed: int, work: Path):
        self.workload = WORKLOADS[name]
        self.workload_seed = workload_seed
        self.order = random.Random(order_seed)
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.rss_mb: list[float] = []
        self.digests: dict[str, str] = {}
        self.ess: dict[int, float] = {}
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SOURCE.resolve()), os.environ.get("PYTHONPATH")]))

    # -- operations ----------------------------------------------------------

    def _reject(self, argv: list[str], problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{' '.join(argv[:1])}: {problem}")

    def command(self, argv: list[str], trace: bool = False,
                distance_data: str | None = None) -> dict | None:
        """Run one command in a fresh process; None when it failed."""
        self.attempted += 1
        record_path = self.work / "record.json"
        record_path.unlink(missing_ok=True)
        spec = {"argv": argv, "trace": trace, "distance_data": distance_data,
                "record": str(record_path), "spawned": time.perf_counter()}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._reject(argv, f"no exit within {CHILD_TIMEOUT_S} s")
            return None
        if "Traceback" in proc.stderr or "Traceback" in proc.stdout:
            self._reject(argv, "traceback:\n" + proc.stderr[-2000:])
            return None
        if proc.returncode != 0 or not record_path.exists():
            self._reject(argv, f"harness exit {proc.returncode}: {proc.stderr[-500:]}")
            return None
        record = json.loads(record_path.read_text(encoding="utf-8"))
        if record["exit"] != 0:
            self._reject(argv, f"exit {record['exit']}: {proc.stderr[-500:]}")
            return None
        self.setup_s.append(record["setup_s"])
        self.rss_mb.append(record["peak_rss_mb"])
        record["stdout"] = proc.stdout
        return record

    def _same_as_first(self, paths: list[Path]) -> list[str]:
        problems = []
        for path in paths:
            digest = _digest(path)
            first = self.digests.setdefault(str(path), digest)
            if digest != first:
                problems.append(f"{path} differs from the first round's bytes")
        return problems

    def probe(self) -> None:
        """A command with no work, so setup_s has samples on every workload."""
        record = self.command(["--version"])
        if record is not None and "version" not in record["stdout"]:
            self._reject(["--version"], "no version printed")

    # -- rounds ----------------------------------------------------------------

    def round(self, trace: bool) -> bool:
        """Run the command sequence once; False when any operation failed."""
        wl = self.workload
        records = []
        out_dirs = []
        if wl.simulate is None:
            data = str(SURVEY / "wellbeing_survey_synthetic.csv")
            prior = str(SURVEY / "wellbeing_survey_prior.json")
        else:
            sim_dir = self.work / "data"
            argv = ["simulate", *wl.simulate, "--seed", str(self.workload_seed),
                    "--out", str(sim_dir)]
            record = self.command(argv, trace)
            if record is None:
                return False
            problems = self._same_as_first(
                [sim_dir / "dataset.csv", sim_dir / "truth.json"])
            if problems:
                self._reject(argv, "; ".join(problems))
                return False
            records.append(record)
            out_dirs.append(sim_dir)
            data = str(sim_dir / "dataset.csv")
            # The prior is centered on the truth and the chain starts at a
            # random center, as in acceptance criterion 6.
            prior = str(self.work / "truth_center.json")
            truth = json.loads((sim_dir / "truth.json").read_text(encoding="utf-8"))
            Path(prior).write_text(json.dumps(
                {"stages": truth["center_internal"], "stage_label_offset": 1}))

        chains = list(range(wl.chains))
        self.order.shuffle(chains)
        fit_s = 0.0
        accepted = {"center": 0.0, "spread": 0.0}
        distance = {}
        for k in chains:
            out_dir = self.work / f"fit{k}"
            argv = ["fit", "--data", data, "--prior-center", prior, *wl.fit,
                    "--iterations", str(wl.iterations), "--burn-in", str(wl.burn_in),
                    "--seed", str(1000 * self.workload_seed + k),
                    "--out-dir", str(out_dir)]
            record = self.command(
                argv, trace, distance_data=data if trace and not distance else None)
            if record is None:
                return False
            problems, report = self._check_fit(k, data, out_dir)
            if problems:
                self._reject(argv, "; ".join(problems))
                return False
            records.append(record)
            out_dirs.append(out_dir)
            fit_s += record["chain_s"]
            for move in accepted:
                accepted[move] += report["acceptance_rates"][move] * wl.iterations
            if "distance_us" in record:
                distance = {"rankings.distance_us": record["distance_us"],
                            "rankings.distance_calls": record["distance_calls"]}

        iterations = wl.chains * wl.iterations
        figures = {
            "wall_s": sum(r["wall_s"] for r in records),
            "iters_per_s": iterations / fit_s,
            "ess_per_s": sum(self.ess.values()) / fit_s,
        }
        if trace:
            figures.update(distance)
            figures.update(self._layers(records, out_dirs, iterations, accepted))
            self.traced.append(figures)
        else:
            self.plain.append(figures)
        return True

    def _check_fit(self, k: int, data: str, out_dir: Path) -> tuple[list[str], dict]:
        wl = self.workload
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        lines = (out_dir / "trace.ndjson").read_text(encoding="utf-8").splitlines()
        trace = [json.loads(line) for line in lines]
        meta = json.loads(Path(data).with_suffix(".meta.json").read_text(encoding="utf-8"))
        n, l = len(meta["items"]), int(meta["l"])
        retained = wl.iterations - wl.burn_in
        problems = self._same_as_first([out_dir / "report.json", out_dir / "trace.ndjson"])
        if report["retained_samples"] != retained or len(trace) != retained:
            problems.append(f"retained {report['retained_samples']} samples and "
                            f"traced {len(trace)}, expected {retained}")
            return problems, report
        stages = report["map_center_internal"]
        if len(stages) != n or not all(1 <= s <= l for s in stages):
            problems.append(f"MAP stages {stages} outside {{1..{l}}}^{n}")
        log_posts = [row["log_post"] for row in trace]
        best = trace[log_posts.index(max(log_posts))]
        if not math.isfinite(best["log_post"]):
            problems.append(f"MAP log-posterior {best['log_post']} is not finite")
        if best["stages"] != stages or best["lambda"] != report["lambda_map"]:
            problems.append("report MAP is not the trace's highest log-posterior sample")
        if wl.dp_tolerance is not None:
            dp = report["evaluation"]["dp_to_truth"]
            if not dp <= wl.dp_tolerance:
                problems.append(f"MAP d_p to truth {dp} exceeds {wl.dp_tolerance}")
        if k not in self.ess:
            self.ess[k] = min(bulk_ess([row["lambda"] for row in trace]),
                              bulk_ess(log_posts))
        return problems, report

    def _layers(self, records, out_dirs, iterations, accepted) -> dict:
        """Per-layer figures of one traced round, from its processes' spans."""
        total: dict = {}
        for record in records:
            for key, value in record["layers"].items():
                if key not in total:
                    total[key] = value
                elif key == "sign_table_bytes":
                    total[key] = max(total[key], value)
                else:
                    total[key] += value
        self_sum = sum(total[f"self_s.{layer}"] for layer in LAYERS)
        calls, misses = total["log_psi_calls"], total["log_psi_misses"]
        hits = calls - misses
        wall = sum(r["wall_s"] for r in records)
        figures = {
            "mallows.histogram_builds": total["histogram_builds"],
            "mallows.histogram_build_s": total["histogram_build_s"],
            "mallows.histogram_points": total["histogram_points"],
            "mallows.sign_table_bytes": total["sign_table_bytes"],
            "mallows.sample_s": total["sample_s"],
            "mallows.sample_points": total["sample_points"],
            "mallows.log_psi_calls": calls,
            "mallows.log_psi_misses": misses,
            "mallows.log_psi_hit_ratio": hits / calls if calls else 0.0,
            "mallows.log_psi_self_s": total["log_psi_self_s"],
            "mallows.log_psi_hit_us": total["log_psi_hit_s"] / hits * 1e6 if hits else 0.0,
            "mallows.log_psi_miss_us":
                total["log_psi_miss_self_s"] / misses * 1e6 if misses else 0.0,
            "inference.fit_s": total["fit_s"],
            "inference.ms_per_iter": total["fit_s"] / total["fit_iterations"] * 1e3,
            "inference.accept_center": accepted["center"] / iterations,
            "inference.accept_spread": accepted["spread"] / iterations,
            "io.read_s": total["read_s"],
            "io.rows_read": sum(_data_rows(p) for p in total["read_paths"]),
            "io.write_s": total["write_s"],
            "io.bytes_written": sum(_dir_bytes(d) for d in out_dirs),
            "synth.generate_s": total["generate_s"],
            "trace.wall_s": wall,
            "trace.wrapped_calls": total["wrapped_calls"],
            "trace.overhead_est_s": total["wrapper_s"],
            "self_sum_ratio": self_sum / wall,
        }
        for layer in LAYERS:
            figures[f"{layer}.self_s"] = total[f"self_s.{layer}"]
        return figures

    # -- result ----------------------------------------------------------------

    def metrics(self, trace: bool) -> dict:
        def median(rounds, key):
            return statistics.median(r[key] for r in rounds) if rounds else None

        if not trace:
            values = {key: median(self.plain, key)
                      for key in ("wall_s", "iters_per_s", "ess_per_s")}
            values["setup_s"] = statistics.median(self.setup_s) if self.setup_s else None
            values["peak_rss_mb"] = max(self.rss_mb) if self.rss_mb else None
            units = END_TO_END
        else:
            values = {key: median(self.traced, key)
                      for key in PER_LAYER if key != "trace.overhead_s"}
            plain_wall = median(self.plain, "wall_s")
            values["trace.overhead_s"] = (
                values["trace.wall_s"] - plain_wall
                if self.traced and self.plain else None)
            ratio = median(self.traced, "self_sum_ratio")
            if ratio is not None and abs(ratio - 1.0) > SELF_SUM_TOLERANCE:
                self.problems.append(
                    f"layer self times sum to {ratio:.4f} of traced wall_s, "
                    f"outside 1 +- {SELF_SUM_TOLERANCE}")
            units = PER_LAYER
        return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the fits within each round")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, default=1,
                        help="seeds the simulated dataset and the chains")
    args = parser.parse_args(argv)

    if not (SOURCE / "stagemallows" / "cli.py").is_file():
        print(f"error: no stagemallows source under {SOURCE.resolve()}; "
              "run from the repository root", file=sys.stderr)
        return 2

    work = Path(".bench_work") / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.workload_seed, args.seed, work)
        for _ in range(SETUP_PROBES):
            run.probe()
        # At least two rounds, for the byte comparison; then another round
        # only while it is expected to end within --seconds.
        began = time.perf_counter()
        rounds = 0
        while run.round(trace=bool(args.trace) and rounds % 2 == 1):
            rounds += 1
            elapsed = time.perf_counter() - began
            if rounds >= 2 and elapsed * (rounds + 1) / rounds > args.seconds:
                break
        metrics = run.metrics(bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']} {metric['unit']}")
    print(f"{args.workload} error_rate = {run.failed / max(run.attempted, 1)} "
          f"({run.failed} of {run.attempted} commands failed)")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
