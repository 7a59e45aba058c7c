import dataclasses
import gc
import math
import re
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
from randers_disc.curves import TWO_PI, _harmonic_basis, _polar_frame
from randers_disc.functionals import length_integrand, signed_area_integrand
from randers_disc.isoperimetry import _MATCH_STEPS, _NEWTON_TOL, MATCH_TOL, MATCH_WIDTH, TrialBatch
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


def test_generation_exhaustion():
    # at a = 0.99 a perturbation of size 0.05 leaves the disc on every draw,
    # so the global budget of 100 * count rejections runs out
    spec = PerturbationSpec(count=3)
    message = "rejected 301 draws for 3 curves; epsilon too large for a=0.99"
    with pytest.raises(VerificationError, match="epsilon too large") as caught:
        generate_perturbations(spec, 0.99)
    assert str(caught.value) == message
    for run in (lambda: run_trials(0.99, RandersConfig(0.0), spec), lambda: reference_draws(spec, 0.99)):
        with pytest.raises(VerificationError) as caught:
            run()
        assert str(caught.value) == message


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
    def boom(a0, coeffs, target_L, cfg, basis):
        return a0, {row: VerificationError("no admissible bracket") for row in range(len(a0))}

    monkeypatch.setattr(isoperimetry, "_match_rows", boom)
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


@pytest.mark.slow
def test_trial_working_set_does_not_grow_with_count(cfg_bh):
    # trials are drawn and matched in blocks of a few rows, so no array spans
    # every trial and every node; only the output columns grow with count
    def peak(count):
        gc.collect()
        tracemalloc.start()
        try:
            run_trials(0.5, cfg_bh, PerturbationSpec(seed=5, count=count))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_trials(0.5, cfg_bh, PerturbationSpec(count=1))  # first-call allocations
    columns = 8 * len(TrialBatch.FIELDS) + 1 + 8 * 2 * PerturbationSpec.harmonics  # numbers, ok, coeffs
    assert peak(800) - peak(200) <= 600 * columns + 64 * 1024


# -- the per-trial reference --------------------------------------------------
#    One trial at a time: the radius by its own angle-addition loop, each draw
#    checked on its own, and a Newton iteration per trial.  run_trials, which
#    draws and matches in blocks, must agree with it bitwise.

def reference_radius(a0, cos_c, sin_c, ts):
    c1, s1 = np.cos(ts), np.sin(ts)
    c, s = c1, s1
    r = np.full(ts.shape, a0)
    rd = np.zeros(ts.shape)
    for k in range(len(cos_c)):
        if k:
            c, s = c * c1 - s * s1, s * c1 + c * s1
        r += cos_c[k] * c + sin_c[k] * s
        rd += (k + 1) * (sin_c[k] * c - cos_c[k] * s)
    return r, rd


def reference_draws(spec, a):
    ts = TWO_PI * np.arange(4096) / 4096
    ks = np.arange(1, spec.harmonics + 1)
    rejected, draws = 0, []
    for index in range(spec.count):
        rng = np.random.default_rng([spec.seed, index])
        while True:
            c = rng.uniform(-spec.epsilon, spec.epsilon, spec.harmonics) / ks
            s = rng.uniform(-spec.epsilon, spec.epsilon, spec.harmonics) / ks
            r, rd = reference_radius(a, c, s, ts)
            m = 1e-9
            if np.all(r > m) and np.all(r < 1.0 - m) and np.all(r * r + rd * rd > m * m):
                draws.append((c, s))
                break
            rejected += 1
            if rejected > 100 * spec.count:
                raise VerificationError(
                    f"rejected {rejected} draws for {spec.count} curves; epsilon too large for a={a}"
                )
    return draws


def reference_length(r, rd, ts, cfg):
    points, velocities = _polar_frame(r, rd, np.cos(ts), np.sin(ts))
    return length_integrand(points, velocities, cfg).mean() * TWO_PI


def reference_match(a0, c, s, target, cfg, ts):
    if abs(reference_length(*reference_radius(a0, c, s, ts), ts, cfg) - target) <= MATCH_TOL:
        return a0
    margin = float(sum(abs(x) for x in c) + sum(abs(x) for x in s))
    lo, hi = margin + 1e-6, 1.0 - margin - 1e-6
    if lo >= hi:
        raise VerificationError(f"no admissible base-radius interval for margin {margin}")
    p, pd = reference_radius(0.0, c, s, ts)

    def excess(x):
        r = x + p
        speed = np.hypot(r, pd)
        w = 1.0 - r * r
        slope = TWO_PI * np.mean(2.0 * r / (speed * w) + 4.0 * r * speed / (w * w))
        return reference_length(r, pd, ts, cfg) - target, slope

    f_lo, f_hi = excess(lo)[0], excess(hi)[0]
    if not f_lo * f_hi <= 0.0:
        raise VerificationError(
            f"target length {target} not bracketed on [{lo}, {hi}] "
            f"(excess {f_lo:.3e} and {f_hi:.3e})"
        )
    x = a0 if lo < a0 < hi else 0.5 * (lo + hi)
    for _ in range(_MATCH_STEPS):
        f, slope = excess(x)
        if abs(f) <= _NEWTON_TOL:
            break
        if f_lo * f <= 0.0:
            hi = x
        else:
            lo, f_lo = x, f
        if hi - lo < MATCH_WIDTH:
            break
        step = x - f / slope
        x = step if lo < step < hi else 0.5 * (lo + hi)
    if not abs(f) <= MATCH_TOL:
        raise VerificationError(f"length matching stalled at |dL| = {abs(f):.3e}")
    return x


def reference_trials(a, cfg, spec, n=1024):
    """(numbers, ok, notes) as run_trials stores them, one trial at a time."""
    ts = TWO_PI * np.arange(n) / n
    target = length(Circle(a), cfg).value
    circle_A = isoperimetry.area(Circle(a), cfg).value
    numbers = np.full((spec.count, len(TrialBatch.FIELDS)), math.nan)
    ok = np.zeros(spec.count, dtype=bool)
    notes = {}
    for index, (c, s) in enumerate(reference_draws(spec, a)):
        try:
            a0 = reference_match(a, c, s, target, cfg, ts)
        except VerificationError as exc:
            notes[index] = str(exc)
            continue
        r, rd = reference_radius(a0, c, s, ts)
        points, velocities = _polar_frame(r, rd, np.cos(ts), np.sin(ts))
        L = length_integrand(points, velocities, cfg).mean() * TWO_PI
        A = cfg.kappa * (signed_area_integrand(points, velocities).mean() * TWO_PI)
        delta = A - circle_A
        numbers[index] = (a0, L, A, abs(L - target), delta, isoperimetry.deficit_value(L, A, cfg))
        ok[index] = delta < isoperimetry.STRICT_DECREASE or not (np.any(c) or np.any(s))
    return numbers, ok, notes


# 13 trials leave a ragged last block whatever the block sizes.  At a = 0.95
# no trial is bracketed; (0.99, 0.002) mixes matched rows with rows that
# stall, (0.5, 0.3) with rows that have no base-radius interval; (0.5, 0) is
# the circle
REFERENCE_CASES = [
    (a, b, form, seed, 0.05, 13)
    for a in (0.2, 0.5, 0.8, 0.95)
    for b, form in ((0.0, "ht"), (0.3, "bh"), (0.7, "min"))
    for seed in (1, 42)
] + [(0.99, 0.0, "bh", 42, 0.002, 20), (0.5, 0.3, "bh", 3, 0.3, 13), (0.5, 0.3, "bh", 1, 0.0, 5)]


@pytest.mark.parametrize("a, b, form, seed, epsilon, count", REFERENCE_CASES)
def test_run_trials_equals_the_per_trial_reference_bitwise(a, b, form, seed, epsilon, count):
    cfg = RandersConfig(b, form)
    spec = PerturbationSpec(seed=seed, epsilon=epsilon, count=count)
    numbers, ok, notes = reference_trials(a, cfg, spec)
    got = run_trials(a, cfg, spec)
    assert got.numbers.tobytes() == numbers.tobytes()
    assert got.ok.tolist() == ok.tolist()
    assert got.notes == notes
    drawn = np.array([(c, s) for c, s in reference_draws(spec, a)])
    assert got.coeffs.tobytes() == drawn.tobytes()


@pytest.mark.parametrize("a, epsilon", [(0.5, 0.05), (0.95, 0.05), (0.99, 0.002)])
def test_match_length_equals_the_per_trial_reference_bitwise(a, epsilon, cfg_bh):
    # match_length is the block matcher's one-row case: matched, not bracketed, stalled
    target = length(Circle(a), cfg_bh).value
    ts = TWO_PI * np.arange(1024) / 1024
    for curve in generate_perturbations(PerturbationSpec(seed=3, epsilon=epsilon, count=6), a):
        c, s = np.array(curve.cos_coeffs), np.array(curve.sin_coeffs)
        try:
            want = reference_match(a, c, s, target, cfg_bh, ts)
        except VerificationError as exc:
            with pytest.raises(VerificationError, match=re.escape(str(exc))):
                match_length(curve, target, cfg_bh)
        else:
            assert match_length(curve, target, cfg_bh).a0 == want


def test_match_rows_keep_their_own_iterations(cfg_bh):
    # rows of one call that need different numbers of steps, or fail, each
    # come out as they would alone
    curves = [
        PolarFourierCurve(0.05, (0.01,), (0.0,)),     # first Newton step leaves the bracket
        PolarFourierCurve(0.9, (0.01,), (0.0,)),      # starts near the root
        PolarFourierCurve(0.5, (0.3,), (0.0,)),       # a large wiggle matches far below 0.98
        PolarFourierCurve(0.3, (0.02,), (-0.01,)),    # its bracket stops short of the target
        PolarFourierCurve(0.97, (0.005,), (0.001,)),  # stalls near the rim
    ]
    target = length(curves[0].with_base_radius(0.98), cfg_bh).value
    ts = TWO_PI * np.arange(1024) / 1024
    a0, errors = isoperimetry._match_rows(
        np.array([c.a0 for c in curves]), np.array([[c.cos_coeffs, c.sin_coeffs] for c in curves]),
        target, cfg_bh, _harmonic_basis(ts, 1))
    for i, c in enumerate(curves):
        try:
            want = reference_match(c.a0, np.array(c.cos_coeffs), np.array(c.sin_coeffs), target, cfg_bh, ts)
        except VerificationError as exc:
            assert str(errors[i]) == str(exc)
        else:
            assert i not in errors and a0[i] == want
    assert sorted(errors) == [3, 4]


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
