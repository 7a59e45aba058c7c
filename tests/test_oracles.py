"""The frozen chart and scan constants against the exact sympy derivation."""
import re
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("sympy")

from tests.test_variational import FROZEN

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "symbolic_oracles.py"

# printed name at a = 1/2, b = 3/10, bh -> FROZEN key
ORACLES = {
    "h1": "h1_chart",
    "h2": "h2_chart",
    "U": "U",
    "D(pi/2)": "D_half_pi",
    "D(pi)": "D_pi",
    "D(3*pi/2)": "D_three_half_pi",
    "A": "A",
    "N": "N",
    "C": "C",
    "E": "E",
}


def test_symbolic_oracles_match_frozen_constants():
    out = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True
    ).stdout
    printed = dict(re.findall(r"^  (\S+)\s+= (\S+)$", out, flags=re.MULTILINE))
    for name, key in ORACLES.items():
        assert float(printed[name]) == pytest.approx(FROZEN[key], rel=1e-10), name
