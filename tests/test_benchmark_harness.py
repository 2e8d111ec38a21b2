"""Smoke tests of the benchmark harness in perfbench/, of the layer harness
scripts/time_layers.py, and of the two-tree check scripts/time_fits.py, run
as a user runs them.

The traced run wraps PartitionCache.log_psi and PartitionCache.histogram by
name and checks that the layers' self times add up to the traced wall
time within 5%, so this test fails when a refactor of the package breaks
the names the tracer patches or the harness's own checks. time_layers.py
clears the stage-count caches, the Pascal table (mallows._pascal), the key
terms and weights (mallows._step_keys, mallows._step_weights), the row key
lookups (mallows._key_lookup) and a PartitionCache's tables
(PartitionCache._tables) by name, so that each pass builds its programs and
rows cold. It times the chain's private evaluator (inference._Evaluator),
which reads the rows from the process's PartitionCache, empties its stats
cache and group-code index (_Evaluator._center_stats, _Evaluator._code_rows),
and times its private move functions (inference._state_at,
inference._center_move, inference._spread_move); it breaks the same way.
Both scripts make the workloads' data through scripts/workloads.py, which
imports perfbench/run.py's WORKLOADS, and time_fits.py runs fits through
perfbench/child.py.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import WORKLOADS  # noqa: E402


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


@pytest.fixture(scope="module")
def layer_figures() -> dict:
    """One ``--repeats 1`` run of time_layers.py, shared by its three sections' tests."""
    result = subprocess.run(
        [sys.executable, "scripts/time_layers.py", "--repeats", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_row_harness_times_every_space(layer_figures):
    spaces = layer_figures["rows"]
    assert len(spaces) == 5
    assert all(space["row_s"] > 0 for space in spaces), spaces


def test_io_harness_times_every_call(layer_figures):
    io = layer_figures["io"]
    assert io["M"] == 3000 and io["retained_samples"] == 1000
    assert sorted(io["calls"]) == ["evaluator_init", "generate", "read_dataset",
                                   "write_raw_dataset", "write_trace"]
    assert all(call["us_per_row"] > 0 for call in io["calls"].values()), io


def test_chain_harness_times_every_layer(layer_figures):
    chain = layer_figures["chain"]
    assert sorted(chain) == ["large", "survey", "wide"]
    for name, dataset in chain.items():
        assert {"center_stats_first_us", "evaluate_new_spread_us", "center_move_us",
                "spread_move_us"} <= set(dataset)
        assert all(dataset[key] > 0 for key in dataset if key.endswith("_us")), dataset
        simulate = WORKLOADS[name].simulate
        if simulate is None:
            assert dataset["respondents"] == 30
        else:
            settings = dict(zip(simulate[::2], simulate[1::2]))
            assert (dataset["n"], dataset["l"], dataset["respondents"]) == (
                int(settings["--n"]), int(settings["--l"]), int(settings["--M"]))


def test_side_by_side_fits_of_one_tree_agree():
    result = subprocess.run(
        [sys.executable, "scripts/time_fits.py", "--base", ".", "--head", ".",
         "--workload", "large", "--pairs", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    figures = json.loads(result.stdout)
    assert figures["pairs"] == 1 and figures["outputs_agree"] == [True]
    assert figures["data_agree"] is True and figures["differ"] == []
    data = [f"data/{name}" for name in ("dataset.csv", "dataset.meta.json", "manifest.json",
                                        "truth.json")]
    fits = [f"fit{1000 + k}/{name}" for k in range(WORKLOADS["large"].chains)
            for name in ("heatmap.svg", "manifest.json", "report.json", "trace.ndjson")]
    assert figures["compared"] == [*data, "truth_center.json", *fits]
    assert all(len(ms) == 1 and ms[0] > 0 for ms in figures["chain_ms"].values()), figures
    assert figures["ratio"]["q1"] <= figures["ratio"]["median"] <= figures["ratio"]["q3"]
    assert figures["head_won"] in (0, 1)
    assert all(len(mb) == 1 and mb[0] > 0 for mb in figures["peak_rss_mb"].values()), figures
    rss = figures["rss_ratio"]
    assert rss["q1"] <= rss["median"] <= rss["q3"] and rss["median"] > 0
    assert figures["head_rss_lower"] in (0, 1)
