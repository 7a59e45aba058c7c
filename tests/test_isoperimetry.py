import math

import numpy as np
import pytest

from randers_disc import (
    Circle,
    DomainError,
    PerturbationSpec,
    PolarFourierCurve,
    RandersConfig,
    VerificationError,
    VolumeForm,
    circle_closed_forms,
    generate_perturbations,
    isoperimetric_deficit,
    length,
    match_length,
    run_trials,
)
from randers_disc import isoperimetry
from tests.conftest import GRID_A, GRID_B


# -- perturbation generation --------------------------------------------------

def test_spec_validation():
    for bad in (
        dict(harmonics=0),
        dict(epsilon=-0.1),
        dict(epsilon=math.nan),
        dict(epsilon=math.inf),
        dict(count=0),
    ):
        with pytest.raises(DomainError):
            PerturbationSpec(**bad)


def test_generation_is_deterministic_and_bounded():
    spec = PerturbationSpec(seed=1, harmonics=4, epsilon=0.05, count=20)
    first = generate_perturbations(spec, 0.5)
    second = generate_perturbations(spec, 0.5)
    assert len(first) == 20
    for c, d in zip(first, second):
        assert c.cos_coeffs == d.cos_coeffs and c.sin_coeffs == d.sin_coeffs
        assert c.a0 == 0.5 and c.harmonics == 4
        for k in range(1, 5):
            assert abs(c.cos_coeffs[k - 1]) <= 0.05 / k
            assert abs(c.sin_coeffs[k - 1]) <= 0.05 / k


def test_generation_zero_epsilon_gives_circles():
    spec = PerturbationSpec(epsilon=0.0, count=5)
    for c in generate_perturbations(spec, 0.3):
        assert all(v == 0.0 for v in c.cos_coeffs + c.sin_coeffs)


def test_generation_exhaustion(monkeypatch):
    monkeypatch.setattr(isoperimetry, "check_admissible", lambda curve: False)
    with pytest.raises(VerificationError, match="epsilon too large"):
        generate_perturbations(PerturbationSpec(count=3), 0.5)


def test_generation_independent_of_count_prefix():
    a = generate_perturbations(PerturbationSpec(seed=7, count=10), 0.5)
    b = generate_perturbations(PerturbationSpec(seed=7, count=4), 0.5)
    for c, d in zip(a[:4], b):
        assert c.cos_coeffs == d.cos_coeffs and c.sin_coeffs == d.sin_coeffs


# -- length matching ----------------------------------------------------------

def test_match_length_fixed_point(cfg_bh):
    curve = PolarFourierCurve(0.5, (0.02,), (0.01,))
    target = length(curve, cfg_bh).value
    matched = match_length(curve, target, cfg_bh)
    assert matched.a0 == 0.5  # already on target, returned unchanged


def test_match_length_shrinks_base_radius(cfg_bh):
    target = circle_closed_forms(0.5, cfg_bh)["length"]
    curve = PolarFourierCurve(0.5, (0.05,), (0.0,))
    matched = match_length(curve, target, cfg_bh)
    assert matched.a0 < 0.5  # the wiggle adds length, so the base must shrink
    assert abs(length(matched, cfg_bh).value - target) <= 1e-10


def test_match_length_residual_tolerance(cfg_bh, rng):
    target = circle_closed_forms(0.4, cfg_bh)["length"]
    for _ in range(5):
        coeffs = rng.uniform(-0.02, 0.02, size=4)
        curve = PolarFourierCurve(0.4, tuple(coeffs[:2]), tuple(coeffs[2:]))
        matched = match_length(curve, target, cfg_bh)
        assert abs(length(matched, cfg_bh).value - target) <= 1e-10


def test_match_length_bracketing_failure(cfg_bh):
    with pytest.raises(VerificationError, match="not bracketed"):
        match_length(PolarFourierCurve(0.5, (0.3,), (0.0,)), 1.0, cfg_bh)


def test_match_length_nan_target_raises(cfg_bh):
    with pytest.raises(VerificationError, match="target length nan not bracketed"):
        match_length(PolarFourierCurve(0.5, (0.01,), (0.0,)), math.nan, cfg_bh)


# -- trials -------------------------------------------------------------------

def test_run_trials_all_decrease_and_deterministic(cfg_bh):
    spec = PerturbationSpec(seed=3, count=25)
    first = run_trials(0.5, cfg_bh, spec)
    second = run_trials(0.5, cfg_bh, spec)
    assert len(first) == 25
    closed = circle_closed_forms(0.5, cfg_bh)
    L0, A0 = closed["length"], closed["area"]
    for r, s in zip(first, second):
        assert r.ok
        assert r.delta_area < 0.0
        assert r.delta_area == s.delta_area  # bitwise reproducible
        assert abs(r.length - L0) <= 1e-10
        assert r.area < A0
        assert r.length_err <= 1e-10
        assert r.note == ""


def test_run_trials_zero_epsilon(cfg_bh):
    for r in run_trials(0.5, cfg_bh, PerturbationSpec(epsilon=0.0, count=3)):
        assert r.ok and r.delta_area == 0.0 and r.deficit <= 1e-10


def test_run_trials_rotation_invariance(cfg_bh):
    spec = PerturbationSpec(seed=11, count=8)
    base = run_trials(0.5, cfg_bh, spec)
    closed = circle_closed_forms(0.5, cfg_bh)
    for r in base:
        rotated = r.curve.rotated(1.1)
        matched = match_length(rotated, closed["length"], cfg_bh)
        d_rot = isoperimetry.area(matched, cfg_bh).value - closed["area"]
        assert d_rot == pytest.approx(r.delta_area, abs=1e-10)


def test_run_trials_records_failures(cfg_bh, monkeypatch):
    def boom(curve, target, cfg, grid=None):
        raise VerificationError("no admissible bracket")

    monkeypatch.setattr(isoperimetry, "match_length", boom)
    results = run_trials(0.5, cfg_bh, PerturbationSpec(count=2))
    for r in results:
        assert not r.ok
        assert math.isnan(r.delta_area)
        assert "bracket" in r.note


# -- deficit ------------------------------------------------------------------

@pytest.mark.parametrize("form", list(VolumeForm))
@pytest.mark.parametrize("b", GRID_B)
def test_deficit_vanishes_on_circles(form, b):
    cfg = RandersConfig(b, form)
    for a in GRID_A:
        assert abs(isoperimetric_deficit(Circle(a), cfg)) <= 1e-8


def test_deficit_positive_off_circles(cfg_bh):
    assert isoperimetric_deficit(PolarFourierCurve(0.5, (0.0,), (0.05,)), cfg_bh) > 0.0


def test_deficit_independent_of_drift():
    curve = PolarFourierCurve(0.4, (0.03,), (-0.02,))
    base = isoperimetric_deficit(curve, RandersConfig(0.0))
    for b in (0.3, 0.7):
        for form in VolumeForm:
            val = isoperimetric_deficit(curve, RandersConfig(b, form))
            assert val == pytest.approx(base, rel=1e-10)


def test_deficit_value_normalises_area(cfg_bh):
    closed = circle_closed_forms(0.5, cfg_bh)
    assert isoperimetry.deficit_value(
        closed["length"], closed["area"], cfg_bh
    ) == pytest.approx(0.0, abs=1e-12)
