"""The experiment scripts run end to end at tiny sizes."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["certify_grid.py", "--radii", "0.5", "--drifts", "0.3", "--probes", "2"],
        ["epsilon_scaling.py", "--levels", "2", "--trials", "3"],
    ],
    ids=["certify_grid", "epsilon_scaling"],
)
def test_script_runs(argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
