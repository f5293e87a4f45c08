"""Smoke test: the walkthroughs in demos/ run to completion.

Demo 03 (the ANN forest on a large random matrix) takes tens of seconds
and is left to manual runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("demo", ["01_centroid_retrieval.py", "02_rwmd_reranking.py",
                                  "04_evaluation_metrics.py"])
def test_python_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_cli_workflow_demo_runs():
    proc = subprocess.run(["bash", str(ROOT / "demos" / "05_cli_workflow.sh")], cwd=ROOT,
                          env=_env(CIR=f"{sys.executable} -m centroid_ir"),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
