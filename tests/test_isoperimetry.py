import dataclasses
import gc
import math
import tracemalloc

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
from randers_disc.isoperimetry import MATCH_TOL, TrialBatch
from tests.conftest import GRID_A, GRID_B, rotated


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


def bisect_base_radius(curve, target, cfg):
    """a0 with length(curve at a0) = target, by plain bisection on the admissible range."""
    margin = sum(abs(c) for c in curve.cos_coeffs + curve.sin_coeffs)
    lo, hi = margin + 1e-6, 1.0 - margin - 1e-6
    f_lo = length(curve.with_base_radius(lo), cfg).value - target
    while hi - lo >= 1e-13:
        mid = 0.5 * (lo + hi)
        f_mid = length(curve.with_base_radius(mid), cfg).value - target
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("b", [0.0, 0.7])
@pytest.mark.parametrize("a", [0.2, 0.5, 0.8, 0.95])
def test_match_length_newton_agrees_with_bisection(a, b):
    cfg = RandersConfig(b, VolumeForm.BUSEMANN_HAUSDORFF)
    target = circle_closed_forms(a, cfg)["length"]
    spec = PerturbationSpec(seed=int(100 * a + 10 * b), harmonics=4, epsilon=0.01, count=2)
    for curve in generate_perturbations(spec, a):
        matched = match_length(curve, target, cfg)
        assert abs(matched.a0 - bisect_base_radius(curve, target, cfg)) <= MATCH_TOL
        assert abs(length(matched, cfg).value - target) <= MATCH_TOL


def test_match_length_falls_back_to_bisection(cfg_bh):
    # from a0 = 0.05 the target sits near the rim, where the length is far
    # steeper, so the first Newton step overshoots the bracket
    curve = PolarFourierCurve(0.05, (0.01,), (0.0,))
    target = length(curve.with_base_radius(0.98), cfg_bh).value
    h = 1e-6
    slope = (length(curve.with_base_radius(0.05 + h), cfg_bh).value
             - length(curve.with_base_radius(0.05 - h), cfg_bh).value) / (2.0 * h)
    first_step = 0.05 - (length(curve, cfg_bh).value - target) / slope
    assert first_step > 1.0 - 0.01 - 1e-6  # beyond the bracket's upper end
    matched = match_length(curve, target, cfg_bh)
    assert abs(length(matched, cfg_bh).value - target) <= MATCH_TOL
    assert matched.a0 == pytest.approx(0.98, abs=1e-12)


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
        matched = match_length(rotated(r.curve, 1.1), closed["length"], cfg_bh)
        d_rot = isoperimetry.area(matched, cfg_bh).value - closed["area"]
        assert d_rot == pytest.approx(r.delta_area, abs=1e-10)


def test_run_trials_records_failures(cfg_bh, monkeypatch):
    def boom(curve, target, cfg, grid=None):
        raise VerificationError("no admissible bracket")

    monkeypatch.setattr(isoperimetry, "match_length", boom)
    spec = PerturbationSpec(count=2)
    results = run_trials(0.5, cfg_bh, spec)
    for r, drawn in zip(results, generate_perturbations(spec, 0.5)):
        assert not r.ok
        assert r.note == "no admissible bracket"
        numbers = (r.a0_matched, r.length, r.area, r.length_err, r.delta_area, r.deficit)
        assert all(math.isnan(x) for x in numbers)
        assert r.curve == drawn  # the drawn coefficients at the drawn base radius


def test_trial_batch_is_a_sequence(cfg_bh):
    batch = run_trials(0.5, cfg_bh, PerturbationSpec(seed=4, count=5))
    assert isinstance(batch, TrialBatch)
    assert len(batch) == 5
    rows = list(batch)
    assert [r.index for r in rows] == list(range(5))
    assert batch[-1] == rows[4] and batch[-5] == rows[0]
    assert batch[1:3] == rows[1:3]
    with pytest.raises(IndexError):
        batch[5]
    with pytest.raises(IndexError):
        batch[-6]
    broken = dataclasses.replace(batch[2], ok=False)
    assert not broken.ok and broken.delta_area == rows[2].delta_area
    assert batch[2].ok
    with pytest.raises(ValueError, match="read-only"):
        batch.numbers[2, 0] = 0.0
    for r, curve in zip(rows, generate_perturbations(PerturbationSpec(seed=4, count=5), 0.5)):
        assert r.curve == curve.with_base_radius(r.a0_matched)


def test_trial_batch_keeps_under_200_bytes_per_trial(cfg_bh):
    # a retained list of TrialResult costs ~750 B per trial; the columns ~120 B
    spec = PerturbationSpec(seed=6, count=200)
    run_trials(0.5, cfg_bh, PerturbationSpec(count=1))  # first-call allocations
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        batch = run_trials(0.5, cfg_bh, spec)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(batch) == 200
    assert kept <= 200 * len(batch)


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
