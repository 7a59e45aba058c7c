"""The experiment scripts and the README quickstart run end to end at tiny sizes."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["certify_grid.py", "--radii", "0.5", "--drifts", "0.3"],
        ["epsilon_scaling.py", "--levels", "2", "--trials", "3"],
        ["trial_work.py", "--radii", "0.5", "--drifts", "0.3", "--trials", "20"],
    ],
    ids=["certify_grid", "epsilon_scaling", "trial_work"],
)
def test_script_runs(argv):
    result = run_script(argv)
    assert result.returncode == 0, result.stderr


def test_certify_grid_reports_a_failed_scan():
    # at a = 0.999999 the Jacobi coefficients are not constant, so the scan
    # raises and the certificate has no conjugate report
    result = run_script(["certify_grid.py", "--radii", "0.999999", "--drifts", "0.0"])
    assert result.returncode == 1, result.stderr
    assert "FAIL" in result.stdout
    assert "minD=n/a" in result.stdout
    # one failure per volume form, under the footer's wall time and mean per certificate
    assert re.fullmatch(r"# \d+\.\ds, \d+\.\d\d ms per certificate, 4 failures", result.stdout.splitlines()[-1])
    assert "Traceback" not in result.stderr


def test_readme_quickstart_runs():
    # the quickstart imports from the package root, so it guards __all__
    text = (ROOT / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
