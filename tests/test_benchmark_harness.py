"""Smoke tests of the benchmark harness in perfbench/, of the layer
harnesses scripts/time_rows.py, scripts/time_chain.py and scripts/time_io.py,
and of scripts/output_digests.py and scripts/time_fits.py, run as a user runs
them.

The traced run wraps PartitionCache.log_psi and PartitionCache.histogram by
name and checks that the layers' self times add up to the traced wall
time within 5%, so this test fails when a refactor of the package breaks
the names the tracer patches or the harness's own checks. time_rows.py
clears the stage-count caches, the Pascal table (mallows._pascal) and the
row key lookups (mallows._key_lookup) by name, so that each pass builds
its rows cold, and time_chain.py and time_io.py time the chain's private
evaluator, which reads the rows from the process's PartitionCache, and
time_chain.py its private move functions and empties its group-code index
(_Evaluator._code_rows); they break the same way. time_fits.py imports
perfbench/run.py's workloads and runs fits through perfbench/child.py.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_large_run_is_correct_and_fails_nothing():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, result.stdout
    assert summary["failed"] == 0, result.stdout


def _run_script(name: str) -> dict:
    result = subprocess.run(
        [sys.executable, f"scripts/{name}", "--repeats", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_row_harness_times_every_space():
    spaces = _run_script("time_rows.py")["spaces"]
    assert len(spaces) == 5
    assert all(space["row_s"] > 0 for space in spaces), spaces


def test_io_harness_times_every_call():
    figures = _run_script("time_io.py")
    assert figures["M"] == 3000 and figures["retained_samples"] == 1000
    assert sorted(figures["calls"]) == ["evaluator_init", "generate", "read_dataset",
                                        "write_raw_dataset", "write_trace"]
    assert all(call["us_per_row"] > 0 for call in figures["calls"].values()), figures


def test_chain_harness_times_every_layer():
    datasets = _run_script("time_chain.py")["datasets"]
    assert sorted(datasets) == ["large", "survey", "wide"]
    for figures in datasets.values():
        assert {"center_stats_first_us", "evaluate_new_spread_us", "center_move_us",
                "spread_move_us"} <= set(figures)
        assert all(figures[key] > 0 for key in figures if key.endswith("_us")), figures


def test_output_digests_list_every_file_of_the_workload():
    result = subprocess.run(
        [sys.executable, "scripts/output_digests.py", "--workload", "large"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    digests = json.loads(result.stdout)
    fits = [f"fit{seed}/{name}" for seed in (1000, 1001, 1002, 1003)
            for name in ("heatmap.svg", "manifest.json", "report.json", "trace.ndjson")]
    data = [f"data/{name}" for name in ("dataset.csv", "dataset.meta.json", "manifest.json",
                                        "truth.json")]
    assert sorted(digests) == sorted([*data, "truth_center.json", *fits])
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for digest in digests.values())


def test_side_by_side_fits_of_one_tree_agree():
    result = subprocess.run(
        [sys.executable, "scripts/time_fits.py", "--base", ".", "--head", ".",
         "--workload", "large", "--pairs", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    figures = json.loads(result.stdout)
    assert figures["pairs"] == 1 and figures["outputs_agree"] == [True]
    assert all(len(ms) == 1 and ms[0] > 0 for ms in figures["chain_ms"].values()), figures
    assert figures["ratio"]["q1"] <= figures["ratio"]["median"] <= figures["ratio"]["q3"]
    assert figures["head_won"] in (0, 1)
