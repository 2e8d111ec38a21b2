"""The data of the benchmark's workloads, made as perfbench/run.py makes it,
so that every script beside this one times or compares the traffic the
benchmark runs: the arguments of run.py's WORKLOADS, at a workload seed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import SURVEY, WORKLOADS  # noqa: E402


def environment(tree: Path) -> dict:
    """The environment of a single-threaded command run from tree's source."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    return env


def prepare(workload: str, seed: int, tree: Path, work: Path) -> tuple[str, str]:
    """The workload's dataset and prior-center files under work, as relative paths.

    The survey's bundled files are copied in from tree. Otherwise the
    workload's ``simulate`` runs from tree's source at workload seed ``seed``
    into work/data, and the prior is centered on the truth, as
    perfbench/run.py writes it, in work/truth_center.json.
    """
    wl = WORKLOADS[workload]
    if wl.simulate is None:
        for name in ("wellbeing_survey_synthetic.csv", "wellbeing_survey_synthetic.meta.json",
                     "wellbeing_survey_prior.json"):
            shutil.copy(tree / SURVEY / name, work / name)
        return "wellbeing_survey_synthetic.csv", "wellbeing_survey_prior.json"
    subprocess.run([sys.executable, "-c", "from stagemallows.cli import main; main()",
                    "simulate", *wl.simulate, "--seed", str(seed), "--out", "data"],
                   cwd=work, env=environment(tree), check=True, capture_output=True, text=True)
    truth = json.loads((work / "data" / "truth.json").read_text(encoding="utf-8"))
    (work / "truth_center.json").write_text(json.dumps(
        {"stages": truth["center_internal"], "stage_label_offset": 1}))
    return "data/dataset.csv", "truth_center.json"
