"""The benchmark's correctness gate (perfbench/gate.py), applied to the library.

The gate compares certificate fields and README command outputs with the
numbers recorded in perfbench/reference.json, so any change that moves a
certified value beyond the library's tolerances fails here first.
"""
import json
import shlex
import sys
from pathlib import Path

import pytest

from randers_disc import RandersConfig, build_certificate
from randers_disc.cli import main
from tests.conftest import GRID

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import gate  # noqa: E402

REFERENCE = gate.load_reference()
RIM = (0.99, 0.0, "bh")
PROBE_SEEDS = [*range(8), 42]
POINTS = [(a, b, form.value) for a, b, form in GRID] + [RIM]


@pytest.mark.parametrize("point", POINTS, ids=lambda p: gate.point_key(*p))
def test_certificates_pass_the_gate(point):
    a, b, form = point
    ref = REFERENCE["certificates"][gate.point_key(a, b, form)]
    for seed in PROBE_SEEDS:
        cert = build_certificate(a, RandersConfig(b, form), probe_seed=seed)
        assert gate.check_certificate(cert, ref, seed) == [], f"probe seed {seed}"


def test_gate_self_test_makes_no_mistakes():
    assert gate.self_test(REFERENCE) == []


def readme_command(name):
    """argv of the README line for one subcommand, without its --output pair."""
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith(f"randers-disc {name} "):
            argv = shlex.split(line)[1:]
            i = argv.index("--output")
            return argv[:i] + argv[i + 2:]
    raise AssertionError(f"README shows no {name} command")


def readme_output(name, tmp_path):
    out = tmp_path / "out"
    assert main([*readme_command(name), "--output", str(out)]) == 0
    return out.read_text()


def test_readme_certificate_passes_the_gate(tmp_path):
    doc = json.loads(readme_output("certificate", tmp_path))
    ref = REFERENCE["certificates"][gate.point_key(doc["a"], doc["b"], doc["form"])]
    assert gate.certificate_reasons(gate.certificate_doc_values(doc), doc["pass"],
                                    doc["conjugate"]["zero_crossing"], ref, doc["config"]["seed"]) == []


def test_readme_conjugate_passes_the_gate(tmp_path):
    doc = json.loads(readme_output("conjugate", tmp_path))
    assert gate.conjugate_reasons(doc, REFERENCE["cli"]["conjugate"]) == []


def test_readme_check_metric_passes_the_gate(tmp_path):
    doc = json.loads(readme_output("check-metric", tmp_path))
    assert gate.check_metric_reasons(doc, REFERENCE["cli"]["check_metric"]) == []


def test_readme_deficit_sweep_passes_the_gate(tmp_path):
    text = readme_output("deficit-sweep", tmp_path)
    assert gate.deficit_sweep_reasons(text, REFERENCE["cli"]["deficit_sweep"]) == []
