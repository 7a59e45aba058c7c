"""Acceptance gate: one test per numbered criterion, run on the full grid.

Each test prints a single summary line (visible with -s or -rA); the pytest
verdict per test is the pass/fail record for that criterion.
"""
import math

import numpy as np
import pytest

from randers_disc import (
    Circle,
    PerturbationSpec,
    PolarFourierCurve,
    QuadratureGrid,
    RandersConfig,
    VariationProbe,
    VolumeForm,
    area,
    check_admissible,
    circle_closed_forms,
    conjugate_scan,
    constraint_vector,
    el_residual,
    finsler_norm,
    fundamental_tensor,
    h1_along,
    hessian_blocks,
    isoperimetric_deficit,
    lambda_for_circle,
    length,
    normality,
    project_probe,
    run_trials,
    second_variation,
    solve_lambda_numeric,
    weierstrass_E,
    weierstrass_closed,
    yasuda_shimada_residual,
    disc_grid,
)
from randers_disc.curves import TWO_PI
from tests.conftest import GRID, GRID_A, GRID_B

T_SAMPLES = np.linspace(0.0, TWO_PI, 32, endpoint=False)


def report(num, name, detail):
    print(f"criterion {num:02d} ({name}): PASS [{detail}]")


def random_curves(rng, count, harmonics=3):
    curves = []
    while len(curves) < count:
        a0 = rng.uniform(0.2, 0.6)
        cos_c = rng.uniform(-0.03, 0.03, size=harmonics)
        sin_c = rng.uniform(-0.03, 0.03, size=harmonics)
        curve = PolarFourierCurve(a0, tuple(cos_c), tuple(sin_c))
        if check_admissible(curve):
            curves.append(curve)
    return curves


def test_criterion_01_drift_norm_constancy():
    points = disc_grid()
    assert len(points) == 200
    worst = 0.0
    worst_contract = 0.0
    for b in (0.1, 0.5, 0.9):
        cfg = RandersConfig(b)
        for p in points:
            # the fundamental tensor contracts any direction back to F^2
            for v in np.array([(1.0, 0.0), (0.0, 1.0), (-p[1], p[0])]):
                F = finsler_norm(p, v, cfg)
                err = abs(v @ fundamental_tensor(p, v, cfg) @ v - F * F) / (F * F)
                worst_contract = max(worst_contract, err)
            # a^{ij} b_i b_j for the Riemannian part: beta has alpha-norm b,
            # so the contraction against the inverse metric must return b^2
            s = 1.0 - float(p @ p)
            beta = 2.0 * b * np.asarray(p) / (s * math.hypot(*p))
            a_inv = (s * s / 4.0) * np.eye(2)
            worst = max(worst, abs(float(beta @ a_inv @ beta) - b * b))
    assert worst <= 1e-12
    assert worst_contract <= 1e-6
    report(
        1,
        "drift norm constancy",
        f"max |a^ij b_i b_j - b^2| = {worst:.3e}, max rel |g(v,v) - F^2| = {worst_contract:.3e}",
    )


def test_criterion_02_length_is_drift_independent():
    rng = np.random.default_rng(2)
    worst = 0.0
    for curve in random_curves(rng, 50):
        base = length(curve, RandersConfig(0.0)).value
        for b in (0.3, 0.7):
            val = length(curve, RandersConfig(b)).value
            worst = max(worst, abs(val - base) / base)
    assert worst <= 1e-10
    report(2, "length exactness", f"max rel deviation = {worst:.3e}")


def test_criterion_03_circle_closed_forms():
    grid = QuadratureGrid(1024)
    worst = 0.0
    for a, b, form in GRID:
        cfg = RandersConfig(b, form)
        closed = circle_closed_forms(a, cfg)
        circle = Circle(a)
        L = length(circle, cfg, grid).value
        A = area(circle, cfg, grid).value
        worst = max(
            worst,
            abs(L - closed["length"]) / closed["length"],
            abs(A - closed["area"]) / closed["area"],
        )
    assert worst <= 1e-10
    report(3, "circle closed forms", f"max rel err = {worst:.3e}")


def test_criterion_04_multiplier():
    worst = 0.0
    for a, b, form in GRID:
        cfg = RandersConfig(b, form)
        expect = -2.0 * a * cfg.kappa / (1.0 + a * a)
        assert lambda_for_circle(a, cfg) == pytest.approx(expect, abs=1e-14)
        worst = max(worst, abs(solve_lambda_numeric(a, cfg) - expect))
    assert worst <= 1e-8
    report(4, "multiplier", f"max abs err = {worst:.3e}")


def test_criterion_05_euler_lagrange_residual():
    worst = 0.0
    for a, b, form in GRID:
        cfg = RandersConfig(b, form)
        kap, lam = cfg.kappa, lambda_for_circle(a, cfg)
        circle = Circle(a)
        for t in T_SAMPLES:
            worst = max(worst, abs(el_residual(circle, kap, lam, float(t))))
    assert worst <= 1e-8
    report(5, "Euler-Lagrange residual", f"max |residual| = {worst:.3e}")


def test_criterion_06_normality():
    worst = 0.0
    for a, b, form in GRID:
        circle = Circle(a)
        amp = 2.0 * (1.0 + a * a) / (1.0 - a * a) ** 2
        for t in T_SAMPLES[::4]:
            p1, p2 = normality(circle, float(t))
            norm = math.hypot(p1, p2)
            assert norm > 0.0
            worst = max(worst, abs(norm - amp) / amp)
    assert worst <= 1e-8
    report(6, "normality", f"max rel err = {worst:.3e}")


def test_criterion_07_weierstrass():
    rng = np.random.default_rng(7)
    cfg = RandersConfig(0.3)
    kap, lam = cfg.kappa, lambda_for_circle(0.5, cfg)
    worst = 0.0
    for _ in range(1000):
        r = 0.9 * math.sqrt(rng.uniform(0.0, 1.0))
        th = rng.uniform(0.0, TWO_PI)
        p = (r * math.cos(th), r * math.sin(th))
        xdot = rng.normal(size=2)
        u = rng.normal(size=2)
        if math.hypot(*xdot) < 1e-3 or math.hypot(*u) < 1e-3:
            continue
        d = weierstrass_E(p, xdot, u, kap, lam)
        c = weierstrass_closed(p, xdot, u, lam)
        worst = max(worst, abs(d - c) / max(1.0, abs(c)))
        assert d <= 1e-12
    assert worst <= 1e-8
    # equality holds exactly when u is a positive multiple of xdot
    circle = Circle(0.5)
    point, velocity = circle.batch(0.3)
    assert weierstrass_E(point, velocity, 3.0 * velocity, kap, lam) == pytest.approx(
        0.0, abs=1e-12
    )
    perp = (-velocity[1], velocity[0])
    assert weierstrass_E(point, velocity, perp, kap, lam) < -1e-3
    report(7, "Weierstrass excess", f"max defn-vs-closed err = {worst:.3e}")


def test_criterion_08_h1_sign_and_value():
    worst = 0.0
    for a, b, form in GRID:
        cfg = RandersConfig(b, form)
        lam = lambda_for_circle(a, cfg)
        expect = 2.0 * lam / (a * (1.0 - a * a))
        val = h1_along(Circle(a), cfg.kappa, lam)
        assert val < 0.0
        worst = max(worst, abs(val - expect) / abs(expect))
    assert worst <= 1e-8
    report(8, "h1 along circles", f"max rel err = {worst:.3e}")


def test_criterion_09_no_conjugate_points():
    worst_halving = 0.0
    for a, b, form in GRID:
        cfg = RandersConfig(b, form)
        kap, lam = cfg.kappa, lambda_for_circle(a, cfg)
        rep = conjugate_scan(Circle(a), kap, lam)
        assert not rep.zero_crossing
        worst_halving = max(worst_halving, rep.step_halving)
    assert worst_halving <= 1e-8
    report(9, "conjugate scan", f"max step-halving deviation = {worst_halving:.3e}")


def test_criterion_10_second_variation_negative():
    grid = QuadratureGrid(1024)
    ts = grid.nodes
    worst = -math.inf
    for a, b, form in GRID:
        cfg = RandersConfig(b, form)
        lam = lambda_for_circle(a, cfg)
        circle = Circle(a)
        blocks = hessian_blocks(a, cfg.kappa, lam, np.append(ts, TWO_PI))
        ell = constraint_vector(circle)
        rng = np.random.default_rng(10)
        for _ in range(50):
            probe = project_probe(circle, VariationProbe.random(rng), ell=ell)
            val = second_variation(circle, cfg.kappa, lam, probe, blocks=blocks)
            assert val < 0.0
            worst = max(worst, val)
    report(10, "second variation", f"largest J'' over grid = {worst:.3e}")


def test_criterion_11_strong_maximum_trials():
    spec = PerturbationSpec(seed=42, harmonics=4, epsilon=0.05, count=200)
    worst_delta = -math.inf
    for a, b, form in GRID:
        cfg = RandersConfig(b, form)
        results = run_trials(a, cfg, spec)
        for r in results:
            assert r.ok, f"trial {r.index} at (a={a}, b={b}, {form.value}): {r.note}"
            assert r.delta_area < -1e-12 or r.delta_area == 0.0
            worst_delta = max(worst_delta, r.delta_area)
    # quadratic response: doubling epsilon multiplies the median loss by ~4
    cfg = RandersConfig(0.3)
    med = {}
    for eps in (0.05, 0.1):
        trials = run_trials(0.5, cfg, PerturbationSpec(seed=42, epsilon=eps, count=200))
        med[eps] = float(np.median([abs(r.delta_area) for r in trials]))
    ratio = med[0.1] / med[0.05]
    assert 4.0 / 1.5 <= ratio <= 4.0 * 1.5
    report(
        11,
        "strong maximum",
        f"worst delta_area = {worst_delta:.3e}, eps-doubling ratio = {ratio:.2f}",
    )


def test_criterion_12_isoperimetric_identity():
    worst_circle = 0.0
    for a, b, form in GRID:
        cfg = RandersConfig(b, form)
        worst_circle = max(worst_circle, abs(isoperimetric_deficit(Circle(a), cfg)))
    assert worst_circle <= 1e-8

    rng = np.random.default_rng(12)
    cfg = RandersConfig(0.3)
    min_deficit = math.inf
    count = 0
    while count < 500:
        a0 = rng.uniform(0.2, 0.7)
        k = int(rng.integers(1, 5))
        cos_c = np.zeros(k)
        sin_c = np.zeros(k)
        cos_c[k - 1] = rng.uniform(0.005, 0.04)
        sin_c[k - 1] = rng.uniform(-0.04, 0.04)
        curve = PolarFourierCurve(a0, tuple(cos_c), tuple(sin_c))
        if not check_admissible(curve):
            continue
        d = isoperimetric_deficit(curve, cfg)
        assert d > 0.0
        min_deficit = min(min_deficit, d)
        count += 1
    report(
        12,
        "isoperimetric identity",
        f"max circle deficit = {worst_circle:.3e}, min non-circle deficit = {min_deficit:.3e}",
    )


def test_criterion_13_yasuda_shimada_violation():
    points = disc_grid()
    margins = []
    for b in (0.3, 0.5, 0.7):
        cfg = RandersConfig(b)
        floor = 8.0 * (1.0 - b * b)
        peak = max(
            float(np.max(np.abs(yasuda_shimada_residual(p, cfg)))) for p in points
        )
        assert peak > floor
        margins.append(peak / floor)
    report(13, "Yasuda-Shimada violation", f"min peak/floor ratio = {min(margins):.1f}")
