import dataclasses
import functools
import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from randers_disc import (
    Circle,
    DomainError,
    PolarFourierCurve,
    RandersConfig,
    VerificationError,
    VolumeForm,
    build_certificate,
    conjugate_scan,
    constraint_vector,
    el_residual,
    h1_along,
    hessian_velocity_closed,
    hessian_velocity_form,
    jacobi_coeffs,
    lambda_for_circle,
    normality,
    solve_lambda_numeric,
    weierstrass_E,
    weierstrass_closed,
)
from randers_disc import fd, variational
from randers_disc.curves import TWO_PI
from randers_disc.variational import determinant_curve, lagrangian, second_variation_matrix
from tests.conftest import GRID

# the benchmark gate's certificate points: the acceptance grid and one rim circle
GATE_POINTS = [*GRID, (0.99, 0.0, VolumeForm.BUSEMANN_HAUSDORFF)]

# frozen chart/scan oracles at a=1/2, b=3/10, Busemann-Hausdorff
FROZEN = {
    "kappa": 0.868084673289421,
    "lambda": -0.694467738631536,
    "h1_chart": -14.815311757472777,
    "h2_chart": 14.815311757472777,
    "U": 8.888888888888889,
    "K_quarter": -1.388935477263073,
    "h1_trace": -3.703827939368194,
    "D_half_pi": 2.289009475408,
    "D_pi": 21.332617759909,
    "D_three_half_pi": 35.798207093593,
    # hessian_blocks in the circle frame e_r, e_t (scripts/symbolic_oracles.py)
    "blocks_rr": 1.8519139696840972,
    "blocks_N": -0.92595698484204858,
    "blocks_rot": 2.3148924621051214,
    "blocks_vv": -3.7038279393681943,
}


def lam_of(a, b, form=VolumeForm.BUSEMANN_HAUSDORFF):
    cfg = RandersConfig(b, form)
    return lambda_for_circle(a, cfg), cfg


# -- multiplier ---------------------------------------------------------------

def test_lambda_closed_form_values():
    lam, _ = lam_of(0.5, 0.0)
    assert lam == pytest.approx(-0.8, rel=1e-15)
    lam, _ = lam_of(0.5, 0.6)
    assert lam == pytest.approx(-0.8 * 0.64**1.5, rel=1e-14)
    ht, _ = lam_of(0.5, 0.45, VolumeForm.HOLMES_THOMPSON)
    assert ht == pytest.approx(-0.8, rel=1e-15)
    lam, _ = lam_of(0.5, 0.3)
    assert lam == pytest.approx(FROZEN["lambda"], abs=1e-14)


def test_lambda_domain():
    with pytest.raises(DomainError):
        lambda_for_circle(1.0, RandersConfig(0.3))


def test_solve_lambda_numeric_matches_closed_form():
    for a, b, form in [
        (0.5, 0.0, VolumeForm.BUSEMANN_HAUSDORFF),
        (0.9, 0.5, VolumeForm.BUSEMANN_HAUSDORFF),
        (0.5, 0.4, VolumeForm.HOLMES_THOMPSON),
        (0.3, 0.7, VolumeForm.MAX),
    ]:
        cfg = RandersConfig(b, form)
        assert solve_lambda_numeric(a, cfg) == pytest.approx(
            lambda_for_circle(a, cfg), abs=1e-8
        )


# -- Euler-Lagrange -----------------------------------------------------------

def test_el_residual_vanishes_at_extremal_multiplier(circle_half, system_half):
    kap, lam = system_half
    worst = max(
        abs(el_residual(circle_half, kap, lam, t))
        for t in np.linspace(0.0, TWO_PI, 32, endpoint=False)
    )
    assert worst <= 1e-8


def test_el_residual_wrong_multiplier_exact_value():
    cfg = RandersConfig(0.0, VolumeForm.BUSEMANN_HAUSDORFF)  # kappa = 1
    kap, lam = cfg.kappa, -1.0
    assert el_residual(Circle(0.5), kap, lam, 0.7) == pytest.approx(-8.0 / 9.0, abs=1e-10)


def test_el_residual_discriminates_perturbed_curves(system_half):
    kap, lam = system_half
    curve = PolarFourierCurve(0.5, (0.05,), (0.0,))
    worst = max(
        abs(el_residual(curve, kap, lam, t))
        for t in np.linspace(0.0, TWO_PI, 32, endpoint=False)
    )
    assert worst > 1e-3


# -- normality ----------------------------------------------------------------

def test_normality_at_zero():
    p1, p2 = normality(Circle(0.5), 0.0)
    assert p1 == pytest.approx(2.0 * 1.25 / 0.75**2, rel=1e-8)
    assert p2 == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
def test_normality_closed_form_along_circle(a):
    amp = 2.0 * (1.0 + a * a) / (1.0 - a * a) ** 2
    for t in (0.4, 1.9, 3.3, 5.6):
        p1, p2 = normality(Circle(a), t)
        assert p1 == pytest.approx(amp * math.cos(t), abs=1e-8 * amp)
        assert p2 == pytest.approx(amp * math.sin(t), abs=1e-8 * amp)
        assert math.hypot(p1, p2) > 0.0


@pytest.mark.parametrize(
    "curve",
    [Circle(0.5), PolarFourierCurve(0.5, (0.05, -0.01), (0.02, 0.005))],
    ids=["circle", "fourier"],
)
def test_array_checks_equal_one_t_calls_bitwise(curve, system_half, rng):
    kap, lam = system_half
    ts = np.linspace(0.0, TWO_PI, 37)
    p1, p2 = normality(curve, ts)
    assert el_residual(curve, kap, lam, ts).tolist() == [float(el_residual(curve, kap, lam, t)) for t in ts]
    assert p1.tolist() == [float(normality(curve, t)[0]) for t in ts]
    assert p2.tolist() == [float(normality(curve, t)[1]) for t in ts]
    # five directions per node, broadcast against the node axis
    points, velocities = curve.batch(ts)
    us = rng.normal(size=(ts.size, 5, 2))
    pairs = [(i, j) for i in range(ts.size) for j in range(5)]
    circle = Circle(0.5)
    excess = weierstrass_E(points[:, None], velocities[:, None], us, kap, lam)
    assert excess.ravel().tolist() == [
        float(weierstrass_E(points[i], velocities[i], us[i, j], kap, lam)) for i, j in pairs
    ]
    excess = weierstrass_closed(points[:, None], velocities[:, None], us, lam)
    assert excess.ravel().tolist() == [
        float(weierstrass_closed(points[i], velocities[i], us[i, j], lam)) for i, j in pairs
    ]
    form = hessian_velocity_form(circle, kap, lam, ts[:, None], us)
    assert form.ravel().tolist() == [
        float(hessian_velocity_form(circle, kap, lam, ts[i], us[i, j])) for i, j in pairs
    ]
    form = hessian_velocity_closed(circle, lam, ts[:, None], us)
    assert form.ravel().tolist() == [
        float(hessian_velocity_closed(circle, lam, ts[i], us[i, j])) for i, j in pairs
    ]


# -- Weierstrass excess -------------------------------------------------------

def test_weierstrass_orthogonal_unit_example():
    # lam=-1, |xdot|=|u|=1, u orthogonal to xdot, at the disc center
    cfg = RandersConfig(0.0, VolumeForm.HOLMES_THOMPSON)
    kap, lam = cfg.kappa, -1.0
    val = weierstrass_E((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), kap, lam)
    assert val == pytest.approx(-2.0, abs=1e-12)


def test_weierstrass_tangent_scaling_gives_zero(system_half, circle_half):
    point, velocity = circle_half.batch(0.9)
    assert weierstrass_E(point, velocity, 2.0 * velocity, *system_half) == pytest.approx(
        0.0, abs=1e-12
    )


def test_weierstrass_reversal_value(system_half, circle_half):
    point, velocity = circle_half.batch(1.3)
    speed = math.hypot(*velocity)
    _, lam = system_half
    expect = 4.0 * lam * speed / (1.0 - 0.25)
    assert weierstrass_E(point, velocity, -velocity, *system_half) == pytest.approx(
        expect, rel=1e-12
    )


def test_weierstrass_defining_matches_closed_form(rng, system_half):
    _, lam = system_half
    worst = 0.0
    for _ in range(1000):
        r = 0.9 * math.sqrt(rng.uniform(0.0, 1.0))
        th = rng.uniform(0.0, TWO_PI)
        p = (r * math.cos(th), r * math.sin(th))
        xdot = rng.normal(size=2)
        u = rng.normal(size=2)
        if math.hypot(*xdot) < 1e-3 or math.hypot(*u) < 1e-3:
            continue
        d = weierstrass_E(p, xdot, u, *system_half)
        c = weierstrass_closed(p, xdot, u, lam)
        worst = max(worst, abs(d - c) / max(1.0, abs(c)))
    assert worst <= 1e-8


def test_weierstrass_strictly_negative_off_tangent(system_half, circle_half):
    for t in np.linspace(0.0, TWO_PI, 8, endpoint=False):
        point, velocity = circle_half.batch(float(t))
        base = math.atan2(velocity[1], velocity[0])
        speed = math.hypot(*velocity)
        for phi in np.linspace(1e-3, TWO_PI - 1e-3, 25):
            u = speed * np.array([math.cos(base + phi), math.sin(base + phi)])
            assert weierstrass_E(point, velocity, u, *system_half) < 0.0


# -- velocity Hessian ---------------------------------------------------------

def test_h1_trace_example():
    cfg = RandersConfig(0.0, VolumeForm.BUSEMANN_HAUSDORFF)
    kap, lam = cfg.kappa, -0.8
    val = h1_along(Circle(0.5), kap, lam)
    assert val == pytest.approx(2.0 * -0.8 / (0.5 * 0.75), rel=1e-8)
    assert val < 0.0


def test_h1_trace_frozen_value(circle_half, system_half):
    assert h1_along(circle_half, *system_half) == pytest.approx(
        FROZEN["h1_trace"], abs=1e-8 * abs(FROZEN["h1_trace"])
    )


def h1_two_stencils(circle, kap, lam, t=0.0):
    """Reference trace: one 5-point stencil per coordinate axis, summed."""
    (x1, x2), (v1, v2) = circle.batch(t)
    step = variational._HESS_REL_STEP * circle.a
    t11 = fd.d2_5pt(lambda s_: lagrangian(x1, x2, v1 + s_, v2, kap, lam), 0.0, step)
    t22 = fd.d2_5pt(lambda s_: lagrangian(x1, x2, v1, v2 + s_, kap, lam), 0.0, step)
    return t11 + t22


@pytest.mark.parametrize("a", [0.2, 0.5, 0.8, 0.99])
@pytest.mark.parametrize("b", [0.0, 0.3, 0.7])
def test_h1_is_the_summed_hessian_form_bitwise(a, b):
    for form in VolumeForm:
        cfg = RandersConfig(b, form)
        system = (cfg.kappa, lambda_for_circle(a, cfg))
        assert h1_along(Circle(a), *system) == h1_two_stencils(Circle(a), *system)


def test_hessian_form_normal_direction_equals_trace():
    cfg = RandersConfig(0.0, VolumeForm.BUSEMANN_HAUSDORFF)
    kap, lam = cfg.kappa, -0.8
    circle = Circle(0.5)
    # at t=0 the unit normal is (1,0); the tangential eigenvector contributes 0,
    # so the form on the normal carries the whole trace 2*lam/(a(1-a^2))
    val = hessian_velocity_form(circle, kap, lam, 0.0, (1.0, 0.0))
    assert val == pytest.approx(2.0 * -0.8 / (0.5 * 0.75), rel=1e-6)
    assert hessian_velocity_form(circle, kap, lam, 0.0, (0.0, 1.0)) == pytest.approx(
        0.0, abs=1e-8
    )


def test_hessian_form_matches_closed_form(rng, circle_half, system_half):
    _, lam = system_half
    for _ in range(40):
        t = rng.uniform(0.0, TWO_PI)
        y = rng.normal(size=2)
        if math.hypot(*y) < 1e-3:
            continue
        fd_val = hessian_velocity_form(circle_half, *system_half, t, y)
        closed = hessian_velocity_closed(circle_half, lam, t, y)
        assert fd_val == pytest.approx(closed, abs=1e-6 * max(1.0, abs(closed)))


def test_hessian_form_tangential_and_zero(circle_half, system_half):
    _, velocity = circle_half.batch(0.7)
    assert abs(hessian_velocity_form(circle_half, *system_half, 0.7, velocity)) <= 1e-8
    assert hessian_velocity_form(circle_half, *system_half, 0.7, (0.0, 0.0)) == 0.0


# -- Jacobi chart -------------------------------------------------------------

def test_jacobi_frozen_values(circle_half, system_half):
    J = jacobi_coeffs(circle_half, *system_half)
    assert J.h1 == pytest.approx(FROZEN["h1_chart"], abs=1e-6)
    assert J.h2 == pytest.approx(FROZEN["h2_chart"], abs=1e-6)
    assert J.U == pytest.approx(FROZEN["U"], abs=1e-6)
    assert J.h2 == pytest.approx(-J.h1, abs=1e-6)
    assert J.K == pytest.approx(0.0, abs=1e-8)


def test_jacobi_h1_consistent_with_trace(circle_half, system_half):
    J = jacobi_coeffs(circle_half, *system_half)
    assert J.h1 == pytest.approx(h1_along(circle_half, *system_half) / 0.25, abs=1e-6)


def test_jacobi_K_oscillation(circle_half, system_half):
    # K = -2 kappa sin(2t)/(1 + a^2): not rotation invariant, unlike h1, h2, U
    Jq = jacobi_coeffs(circle_half, *system_half, math.pi / 4.0)
    assert Jq.K == pytest.approx(FROZEN["K_quarter"], abs=1e-6)
    J3q = jacobi_coeffs(circle_half, *system_half, 3.0 * math.pi / 4.0)
    assert J3q.K == pytest.approx(-FROZEN["K_quarter"], abs=1e-6)
    kap, _ = system_half
    amp = -2.0 * kap / 1.25
    for t in (0.3, 2.5, 4.0):
        J = jacobi_coeffs(circle_half, *system_half, t)
        assert J.K == pytest.approx(amp * math.sin(2.0 * t), abs=1e-6)


def test_jacobi_rotation_invariant_entries(circle_half, system_half):
    Jq = jacobi_coeffs(circle_half, *system_half, math.pi / 4.0)
    J3q = jacobi_coeffs(circle_half, *system_half, 3.0 * math.pi / 4.0)
    assert Jq.h1 == pytest.approx(J3q.h1, abs=1e-6)
    assert Jq.h2 == pytest.approx(J3q.h2, abs=1e-6)
    assert Jq.U == pytest.approx(J3q.U, abs=1e-6)
    assert abs(Jq.K) == pytest.approx(abs(J3q.K), abs=1e-6)


def test_jacobi_coeffs_are_plain_floats(circle_half, system_half):
    J = jacobi_coeffs(circle_half, *system_half)
    assert [type(getattr(J, f.name)) for f in dataclasses.fields(J)] == [float] * 4
    assert "np.float64" not in repr(J)


def test_jacobi_chart_singularity(circle_half, system_half):
    with pytest.raises(VerificationError, match="x1-chart is degenerate"):
        jacobi_coeffs(circle_half, *system_half, math.pi / 2.0)


# -- conjugate scan -----------------------------------------------------------

def test_conjugate_scan_no_crossing(circle_half, system_half):
    rep = conjugate_scan(circle_half, *system_half)
    assert not rep.zero_crossing
    assert rep.min_abs_D > 0.0
    assert rep.step_halving <= 1e-8
    cs, _ = determinant_curve(rep.coeffs)
    assert len(cs) == 512
    assert cs[-1] == pytest.approx(TWO_PI, rel=1e-15)


def test_conjugate_scan_frozen_determinants(circle_half, system_half):
    rep = conjugate_scan(circle_half, *system_half)
    _, Ds = determinant_curve(rep.coeffs)

    def at(c):
        idx = int(round(c / TWO_PI * 512)) - 1
        return Ds[idx]

    assert at(math.pi / 2.0) == pytest.approx(FROZEN["D_half_pi"], rel=1e-6)
    assert at(math.pi) == pytest.approx(FROZEN["D_pi"], rel=1e-6)
    assert at(1.5 * math.pi) == pytest.approx(FROZEN["D_three_half_pi"], rel=1e-6)


def test_conjugate_scan_matches_analytic_law(circle_half, system_half):
    # constant coefficients give D(c) = (U^2/h1)(c sin c + 2 cos c - 2)
    J = jacobi_coeffs(circle_half, *system_half)
    rep = conjugate_scan(circle_half, *system_half)
    cs, Ds = determinant_curve(rep.coeffs)
    law = (J.U**2 / J.h1) * (cs * np.sin(cs) + 2.0 * np.cos(cs) - 2.0)
    scale = np.max(np.abs(law))
    assert np.max(np.abs(Ds - law)) <= 1e-6 * scale
    # the rotation-neutral Jacobi field closes up exactly at one period
    assert abs(Ds[-1]) <= 1e-6 * scale


def test_rk4_detects_true_crossings():
    # artificial oscillator h1=-1, h2=4: y'' = -4y crosses zero inside the period
    Ds = variational._rk4_determinants(-1.0, 4.0, 1.0, 4096, 8)
    interior = Ds[:-1]
    assert bool(np.any(interior[:-1] * interior[1:] < 0.0))


def reference_rk4_determinants(h1, h2, U, n_steps, stride):
    """The scan as a step-by-step loop: X = R^stride X once per scan point."""
    HA = (TWO_PI / n_steps) * np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [h2 / h1, 0.0, 0.0, U / h1],
            [U, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    eye = np.eye(4)
    R = eye
    X = eye[:, [0, 1, 3]]
    out = np.empty(n_steps // stride)
    for k in (4.0, 3.0, 2.0, 1.0):
        R = eye + (HA @ R) / k
    step = np.linalg.matrix_power(R, stride)
    for i in range(out.size):
        X = step @ X
        out[i] = X[0, 1] * X[2, 2] - X[0, 2] * X[2, 1]
    return out


def scan_verdicts(Ds):
    """(sign change, |D| under the floor) on the scan grid, by conjugate_scan's rules."""
    cs = TWO_PI * np.arange(1, Ds.size + 1) / Ds.size
    interior = Ds[:-1]
    gapped = (cs[:-1] >= variational._MIN_GAP) & (cs[:-1] <= TWO_PI - variational._MIN_GAP)
    floor = variational._ZERO_REL_TOL * np.max(np.abs(Ds))
    return bool(np.any(interior[:-1] * interior[1:] < 0.0)), bool(np.any(np.abs(interior[gapped]) < floor))


def test_batched_scan_matches_the_step_loop():
    # the powers are grouped differently, so only the rounding may move
    systems = []
    for a, b, form in GATE_POINTS + [(0.99, 0.3, "min"), (0.999, 0.0, "bh"), (0.999, 0.7, "max")]:
        cfg = RandersConfig(b, form)
        J = jacobi_coeffs(Circle(a), cfg.kappa, lambda_for_circle(a, cfg))
        systems.append((J.h1, J.h2, J.U))
    systems.append((-1.0, 4.0, 1.0))  # the planted oscillator below
    for system in systems:
        for n_steps, stride in ((4096, 8), (8192, 16)):
            loop = reference_rk4_determinants(*system, n_steps, stride)
            batched = variational._rk4_determinants(*system, n_steps, stride)
            assert np.max(np.abs(batched - loop)) <= 1e-12 * np.max(np.abs(loop)), system
            assert scan_verdicts(batched) == scan_verdicts(loop), system


def test_conjugate_scan_sees_a_sign_change_above_the_floor(monkeypatch):
    # with h2 = -3 h1, D has interior zeros between scan nodes and its smallest
    # gapped |D| (5.5e-6) stays above the 1e-10 relative floor, so only the
    # sign-change rule reports them; at -4 the zeros fall on nodes instead
    cfg = RandersConfig(0.3, VolumeForm.HOLMES_THOMPSON)
    real = variational.jacobi_coeffs

    def planted(circle, kap, lam, t=0.0):
        J = real(circle, kap, lam, t)
        return dataclasses.replace(J, h2=-3.0 * J.h1)

    monkeypatch.setattr(variational, "jacobi_coeffs", planted)
    rep = conjugate_scan(Circle(0.5), cfg.kappa, lambda_for_circle(0.5, cfg))
    _, Ds = determinant_curve(rep.coeffs)
    assert rep.min_abs_D > variational._ZERO_REL_TOL * np.max(np.abs(Ds))
    assert rep.zero_crossing is True


def test_conjugate_scan_consistency_guard(circle_half, system_half, monkeypatch):
    calls = {"n": 0}
    real = variational._rk4_determinants

    def flaky(h1, h2, U, n_steps, stride):
        calls["n"] += 1
        out = real(h1, h2, U, n_steps, stride)
        return out if calls["n"] == 1 else out * (1.0 + 1e-5)

    monkeypatch.setattr(variational, "_rk4_determinants", flaky)
    with pytest.raises(VerificationError, match="step-halving changed D"):
        conjugate_scan(circle_half, *system_half)


@pytest.mark.parametrize(
    "t_bad, field, factor",
    [
        (math.pi, "h1", 1.01),
        (math.pi, "h2", 1.01),
        (math.pi, "U", 1.01),
        (0.0, "U", math.nan),
    ],
    ids=["h1-drift", "h2-drift", "U-drift", "U-nan"],
)
def test_conjugate_scan_constancy_guard(circle_half, system_half, monkeypatch, t_bad, field, factor):
    real = variational.jacobi_coeffs

    def drifting(circle, kap, lam, t=0.0, **kw):
        J = real(circle, kap, lam, t, **kw)
        if t == t_bad:
            return dataclasses.replace(J, **{field: getattr(J, field) * factor})
        return J

    monkeypatch.setattr(variational, "jacobi_coeffs", drifting)
    with pytest.raises(VerificationError, match="Jacobi coefficient"):
        conjugate_scan(circle_half, *system_half)


@pytest.mark.parametrize("a", [0.99, 0.995])
@pytest.mark.parametrize("b", [0.0, 0.99])
def test_rim_jacobi_coeffs_finite_and_scan_checked(a, b):
    # the 4th-order position stencils reach twice the step from the circle, so
    # near the rim an uncapped step leaves the disc and every D becomes NaN
    cfg = RandersConfig(b)
    kap, lam = cfg.kappa, lambda_for_circle(a, cfg)
    J = jacobi_coeffs(Circle(a), kap, lam)
    assert all(math.isfinite(x) for x in (J.h1, J.h2, J.K, J.U))
    cert = build_certificate(a, cfg)
    assert math.isfinite(cert.conjugate.min_abs_D)
    assert cert.conjugate.zero_crossing is False


# -- second variation ---------------------------------------------------------
#    A probe is a (26,) coefficient vector: component 1, then component 2, each
#    [const, cos 1..6, sin 1..6] under the window sin(t/2).

HARMONICS = 6
N_COEFFS = 2 * (2 * HARMONICS + 1)


def tangential_probe(circle):
    """y = sin(t/2) * gamma'(t): the excluded reparametrization direction."""
    v = np.zeros(N_COEFFS)
    v[1 + HARMONICS] = -circle.a                # component 1, sin t coefficient
    v[2 * HARMONICS + 1 + 1] = circle.a         # component 2, cos t coefficient
    return v


def fields_by_loop(v, ts):
    """(y, ydot) summed harmonic by harmonic, as the fields were once computed."""
    K = HARMONICS
    win = np.sin(0.5 * ts)
    dwin = 0.5 * np.cos(0.5 * ts)
    ys = []
    yds = []
    for ci in np.reshape(v, (2, 2 * K + 1)):
        P = np.full(ts.shape, ci[0])
        dP = np.zeros(ts.shape)
        for k in range(1, K + 1):
            ck, sk = ci[k], ci[K + k]
            c_, s_ = np.cos(k * ts), np.sin(k * ts)
            P += ck * c_ + sk * s_
            dP += k * (sk * c_ - ck * s_)
        ys.append(win * P)
        yds.append(dwin * P + win * dP)
    return np.column_stack(ys), np.column_stack(yds)


def two_omega_quadrature(H, v, n):
    """J'' as the explicit trapezoid sum of 2*omega over the closed n-panel grid."""
    ts = np.linspace(0.0, TWO_PI, n + 1)
    w = np.full(n + 1, TWO_PI / n)
    w[0] *= 0.5
    w[-1] *= 0.5
    y, yd = fields_by_loop(v, ts)
    y1, y2 = y[:, 0], y[:, 1]
    d1, d2 = yd[:, 0], yd[:, 1]
    two_omega = (
        H[0, 0] * y1 * y1
        + 2.0 * H[0, 1] * y1 * y2
        + H[1, 1] * y2 * y2
        + 2.0 * (H[0, 2] * y1 * d1 + H[0, 3] * y1 * d2 + H[1, 2] * y2 * d1 + H[1, 3] * y2 * d2)
        + H[2, 2] * d1 * d1
        + 2.0 * H[2, 3] * d1 * d2
        + H[3, 3] * d2 * d2
    )
    return float(np.sum(w * two_omega))


def variation_system(a=0.5, b=0.3, n=1024):
    """(blocks, M, ell) of the circle of radius a: its Hessian blocks, and M and ell as the certificate forms them."""
    cfg = RandersConfig(b)
    kap, lam = cfg.kappa, lambda_for_circle(a, cfg)
    blocks = variational.hessian_blocks(a, kap, lam, np.linspace(0.0, TWO_PI, n + 1))
    return blocks, variational.circle_variation_matrix(a, kap, lam), constraint_vector(Circle(a))


def test_second_variation_zero_probe():
    _, M, _ = variation_system()
    assert variational._quadratic_forms(np.zeros(N_COEFFS), M) == 0.0


def test_second_variation_tangential_probe_excluded(circle_half):
    _, M, ell = variation_system()
    tang = tangential_probe(circle_half)
    assert abs(ell @ tang) <= 1e-9
    assert abs(variational._quadratic_forms(tang, M)) <= 1e-5


def test_window_basis_matches_the_harmonic_loop(rng):
    ts, _, B, dB = variational._variation_basis()
    for _ in range(5):
        v = rng.standard_normal(N_COEFFS)
        coeffs = v.reshape(2, -1)
        for got, want in zip(((coeffs @ B).T, (coeffs @ dB).T), fields_by_loop(v, ts)):
            assert np.allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
def test_second_variation_matrix_matches_explicit_quadrature(a, rng):
    # the certificate's cached combination and the generic assembler alike
    n = 1024
    H, cached, ell = variation_system(a, 0.3, n)
    for M in (cached, second_variation_matrix(H)):
        assert M.shape == (N_COEFFS, N_COEFFS)
        assert np.array_equal(M, M.T)
        for _ in range(20):
            v = rng.standard_normal(N_COEFFS)
            assert v @ M @ v == pytest.approx(two_omega_quadrature(H, v, n), rel=1e-12)
            projected = variational._onto_kernel(v, ell)
            assert variational._quadratic_forms(projected, M) == pytest.approx(
                two_omega_quadrature(H, projected, n), rel=1e-12)


# the gate points, and the rim and the near-unit drift where 1 - a^2 and kap a + lam are small
VARIATION_POINTS = GATE_POINTS + [
    (a, b, form) for a in (0.99, 0.99999) for b in (0.0, 0.999999) for form in VolumeForm
] + [(a, 0.999999, form) for a in (0.2, 0.5, 0.8) for form in VolumeForm]


@pytest.mark.parametrize("a, b, form", VARIATION_POINTS)
def test_cached_variation_matrix_equals_the_generic_assembly(a, b, form):
    # measured <= 6.5e-16 of max |M|
    cfg = RandersConfig(b, form)
    kap, lam = cfg.kappa, lambda_for_circle(a, cfg)
    M = variational.circle_variation_matrix(a, kap, lam)
    generic = second_variation_matrix(variational.hessian_blocks(a, kap, lam, variational._variation_basis()[0]))
    assert np.array_equal(M, M.T)
    assert np.max(np.abs(M - generic)) <= 1e-14 * np.max(np.abs(generic))


@pytest.mark.parametrize("a", sorted({a for a, _, _ in VARIATION_POINTS}))
def test_constraint_vector_equals_the_direct_quadrature(a):
    # the direct form rounds 1 - |x|^2 at every node: measured <= 1.6 eps/(1 - a^2) of max |ell|
    ts, w, B, dB = variational._variation_basis()
    gx, gv = variational._g_gradients(*Circle(a).batch(ts))
    direct = np.concatenate([B @ (w * gx[:, c]) + dB @ (w * gv[:, c]) for c in range(2)])
    tol = 8.0 * np.finfo(float).eps / (1.0 - a * a)
    assert np.max(np.abs(constraint_vector(Circle(a)) - direct)) <= tol * np.max(np.abs(direct))


@pytest.mark.parametrize("seed", range(8))
def test_certificate_maximum_equals_per_probe_calls(cfg_bh, seed):
    # the certificate draws its probes as the rows of one standard-normal array
    blocks, _, ell = variation_system()
    rows = np.random.default_rng(seed).standard_normal((variational.N_PROBES, N_COEFFS))
    values = [two_omega_quadrature(blocks, v, 1024) for v in variational._onto_kernel(rows, ell)]
    cert = build_certificate(0.5, cfg_bh, probe_seed=seed)
    assert cert.second_variation_max == pytest.approx(max(values), rel=1e-12)


def test_certificate_fails_on_a_planted_positive_mode(cfg_bh, monkeypatch):
    # E = 1 alone makes J'' the integral of (e_r . ydot)^2, positive on every probe
    monkeypatch.setattr(variational, "_hessian_coefficients", lambda a, kap, lam: (0.0, 0.0, 0.0, 1.0))
    cert = build_certificate(0.5, cfg_bh)
    assert cert.second_variation_max > 0.0
    assert not cert.passed
    assert "condition failed: second_variation" in cert.notes


def test_second_variation_negative_on_constrained_probes(rng):
    _, M, ell = variation_system()
    for _ in range(10):
        probe = variational._onto_kernel(rng.standard_normal(N_COEFFS), ell)
        assert abs(ell @ probe) <= 1e-9
        assert variational._quadratic_forms(probe, M) < 0.0


def test_projection_removes_constraint_component(circle_half, rng):
    ell = constraint_vector(circle_half)
    proj = variational._onto_kernel(rng.standard_normal(N_COEFFS), ell)
    assert abs(ell @ proj) <= 1e-9
    again = variational._onto_kernel(proj, ell)
    assert np.allclose(again, proj, atol=1e-12)


def test_projection_degenerate_direction(rng):
    with pytest.raises(VerificationError, match="constraint functional vanishes"):
        variational._onto_kernel(rng.standard_normal(N_COEFFS), np.zeros(N_COEFFS))


def test_window_pins_the_endpoints():
    ts, w, B, dB = variational._variation_basis()
    n = variational.VARIATION_PANELS
    assert ts.shape == w.shape == (n + 1,)
    assert B.shape == dB.shape == (2 * HARMONICS + 1, n + 1)
    assert (ts[0], ts[-1]) == (0.0, TWO_PI)
    assert np.all(B[:, 0] == 0.0)
    assert np.allclose(B[:, -1], 0.0, atol=1e-12)
    # closed trapezoid weights: half panels at both ends
    assert w[0] == w[-1] == 0.5 * w[1] and np.sum(w) == pytest.approx(TWO_PI, rel=1e-14)


def test_window_derivative_consistency():
    # 4th-order differences of B along its own nodes; truncation ~ h^4 k^5 / 30 < 1e-6
    ts, _, B, dB = variational._variation_basis()
    h = ts[1] - ts[0]
    num = (B[:, :-4] - 8.0 * B[:, 1:-3] + 8.0 * B[:, 3:-1] - B[:, 4:]) / (12.0 * h)
    assert np.allclose(num, dB[:, 2:-2], rtol=0.0, atol=1e-6)


def test_variation_basis_is_shared_and_read_only():
    # the window basis and the basis forms of M and ell built on it
    for cached in (variational._variation_basis, variational._variation_forms):
        arrays = cached()
        assert cached() is arrays
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


def test_warm_certificate_assembles_no_second_variation(cfg_bh, monkeypatch):
    # after one certificate the basis forms are cached: M and ell cost no quadrature
    build_certificate(0.5, cfg_bh)
    calls = {"second_variation_matrix": 0, "hessian_blocks": 0, "basis-node batch": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("second_variation_matrix", "hessian_blocks"):
        monkeypatch.setattr(variational, name, counted(name, getattr(variational, name)))
    real_batch = Circle.batch

    def batch(self, t):
        if np.size(t) == variational.VARIATION_PANELS + 1:
            calls["basis-node batch"] += 1
        return real_batch(self, t)

    monkeypatch.setattr(Circle, "batch", batch)
    assert build_certificate(0.5, cfg_bh).passed
    assert calls == {"second_variation_matrix": 0, "hessian_blocks": 0, "basis-node batch": 0}
    assert variational._variation_forms.cache_info().misses == 1


@pytest.mark.parametrize("b", [0.0, 0.3])
def test_rim_hessian_blocks_finite_and_second_variation_negative(b):
    # 1 - a^2 = 2e-5: the blocks grow like 1/(1 - a^2)^3 and must stay finite
    a = 0.99999
    cfg = RandersConfig(b)
    blocks = variational.hessian_blocks(a, cfg.kappa, lambda_for_circle(a, cfg), np.linspace(0.0, TWO_PI, 1025))
    assert np.all(np.isfinite(blocks))
    assert build_certificate(a, cfg).second_variation_max < 0.0


def stencil_hessian_blocks(a, kap, lam, ts):
    """The defining form: second central differences of lagrangian, one stencil per entry.

    Position step 1e-5, capped at a quarter of the rim distance so no stencil
    leaves the disc; velocity step 1e-4 a.
    """
    points, velocities = Circle(a).batch(ts)
    args = np.concatenate([points.T, velocities.T])
    hx, hv = min(1e-5, 0.25 * (1.0 - a)), 1e-4 * a
    steps = [hx, hx, hv, hv]
    unit = np.eye(4)

    def h_moved(shift):
        return lagrangian(*(args + shift[:, None]), kap, lam)

    H = np.empty((4, 4, len(ts)))
    for i in range(4):
        H[i, i] = fd.d2_central(lambda s: h_moved(s * unit[i]), 0.0, steps[i])
        for j in range(i + 1, 4):
            H[i, j] = H[j, i] = fd.mixed_2nd(
                lambda s, u: h_moved(s * unit[i] + u * unit[j]), 0.0, 0.0, steps[i], steps[j]
            )
    return H


@functools.cache
def symbolic_hessian():
    """The sympy Hessian of h in (x1, x2, v1, v2), evaluated by mpmath."""
    sp = pytest.importorskip("sympy")
    x1, x2, v1, v2, kap, lam = sp.symbols("x1 x2 v1 v2 kappa lambda", real=True)
    h = (2 * kap * (x1 * v2 - x2 * v1) + 2 * lam * sp.sqrt(v1**2 + v2**2)) / (1 - x1**2 - x2**2)
    return sp.lambdify((x1, x2, v1, v2, kap, lam), sp.hessian(h, (x1, x2, v1, v2)), "mpmath")


@pytest.mark.parametrize("a", [0.2, 0.5, 0.8, 0.99])
@pytest.mark.parametrize("b, form", [(0.0, "ht"), (0.3, "bh"), (0.7, "min")])
def test_hessian_blocks_agree_with_the_stencil(a, b, form):
    # the stencil's truncation and rounding: 1.2e-7 (a = 0.2) to 4.7e-6 (a = 0.99)
    cfg = RandersConfig(b, form)
    kap, lam = cfg.kappa, lambda_for_circle(a, cfg)
    ts = variational._variation_basis()[0]
    H = variational.hessian_blocks(a, kap, lam, ts)
    assert np.max(np.abs(H - stencil_hessian_blocks(a, kap, lam, ts))) <= 1e-5 * np.max(np.abs(H))


@pytest.mark.parametrize("a", [0.2, 0.5, 0.99, 0.99999])
@pytest.mark.parametrize("b, form", [(0.0, "ht"), (0.3, "bh"), (0.7, "min")])
def test_hessian_blocks_agree_with_the_symbolic_hessian(a, b, form):
    # kap a + lam and kap + N/s cancel at the extremal: the conditioning of h is ~1/(1 - a^2)^2
    hessian = symbolic_hessian()
    mpmath = pytest.importorskip("mpmath")
    cfg = RandersConfig(b, form)
    kap, lam = cfg.kappa, lambda_for_circle(a, cfg)
    ts = variational._variation_basis()[0][::64]
    exact = np.empty((4, 4, len(ts)))
    with mpmath.workdps(30):
        for n, t in enumerate(ts):
            c, s = a * mpmath.cos(t), a * mpmath.sin(t)
            exact[:, :, n] = np.array(hessian(c, s, -s, c, kap, lam).tolist(), dtype=float)
    H = variational.hessian_blocks(a, kap, lam, ts)
    tol = 8.0 * np.finfo(float).eps / (1.0 - a * a) ** 2
    assert np.max(np.abs(H - exact)) <= tol * np.max(np.abs(exact))


def test_hessian_blocks_match_the_frozen_circle_frame():
    lam, cfg = lam_of(0.5, 0.3)
    ts = variational._variation_basis()[0]
    er = np.stack([np.cos(ts), np.sin(ts)])
    et = np.stack([-er[1], er[0]])
    rr, rt = er[:, None] * er[None, :], er[:, None] * et[None, :]
    eye, rot = np.eye(2)[:, :, None], np.array([[0.0, 1.0], [-1.0, 0.0]])[:, :, None]
    want = np.empty((4, 4, len(ts)))
    want[:2, :2] = FROZEN["blocks_rr"] * rr + FROZEN["blocks_N"] * eye
    want[:2, 2:] = FROZEN["blocks_rot"] * rot + FROZEN["blocks_N"] * rt
    want[2:, :2] = want[:2, 2:].transpose(1, 0, 2)
    want[2:, 2:] = FROZEN["blocks_vv"] * rr
    H = variational.hessian_blocks(0.5, cfg.kappa, lam, ts)
    assert np.allclose(H, want, rtol=0.0, atol=1e-14 * np.max(np.abs(want)))


# -- certificate --------------------------------------------------------------

def test_certificate_passes_at_reference_point(cfg_bh):
    cert = build_certificate(0.5, cfg_bh)
    assert cert.passed
    assert cert.el_residual_max <= 1e-6
    assert cert.normality_min > 1e-6
    assert cert.weierstrass_max < 0.0
    assert cert.h1 < 0.0
    assert cert.hess_form_max < 0.0
    assert cert.second_variation_max < 0.0
    assert cert.conjugate is not None and not cert.conjugate.zero_crossing


def test_certificate_normality_floor_is_tol(cfg_bh):
    # normality_min is about 4.444 here: a floor of twice that fails the
    # normality check and nothing else, and the default floor passes
    cert = build_certificate(0.5, cfg_bh)
    assert cert.passed and cert.normality_min == pytest.approx(4.444, abs=1e-3)
    strict = build_certificate(0.5, cfg_bh, tol=2.0 * cert.normality_min)
    assert not strict.passed
    assert [n for n in strict.notes if n.startswith("condition failed")] == ["condition failed: normality"]


def test_certificate_fails_with_overridden_multiplier(cfg_bh):
    cert = build_certificate(0.5, cfg_bh, lambda_override=0.8)
    assert not cert.passed
    assert cert.weierstrass_max > 0.0  # the excess is odd in lambda
    assert any("overridden" in n for n in cert.notes)
    assert any("condition failed" in n for n in cert.notes)


def test_certificate_zero_multiplier_fails_without_warnings(cfg_bh):
    # h1 ~ 0 overflows the scan's propagator; that is a failed check, not a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = build_certificate(0.5, cfg_bh, lambda_override=0.0)
    assert not cert.passed
    assert "conjugate scan failed: conjugate scan produced non-finite determinants" in cert.notes


def test_certificate_propagates_programming_errors(cfg_bh, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in _hessian_coefficients")

    monkeypatch.setattr(variational, "_hessian_coefficients", broken)
    with pytest.raises(TypeError, match="bug in _hessian_coefficients"):
        build_certificate(0.5, cfg_bh)


def test_certificate_nan_weierstrass_sample_fails(cfg_bh, monkeypatch):
    shapes = []
    real = variational.weierstrass_E

    def one_nan(*args, **kwargs):
        excess = real(*args, **kwargs)
        shapes.append(excess.shape)
        excess[7, 60] = math.nan
        return excess

    monkeypatch.setattr(variational, "weierstrass_E", one_nan)
    cert = build_certificate(0.5, cfg_bh)
    assert shapes == [(16, 120)]
    assert not cert.passed
    assert math.isnan(cert.weierstrass_max)
    assert cert.to_json_dict()["weierstrass_max"] is None
    assert "condition failed: weierstrass" in cert.notes


def test_certificate_samples_each_check_in_one_call(cfg_bh, monkeypatch):
    calls = {"weierstrass_E": 0, "hessian_velocity_form": 0}

    def counted(name):
        real = getattr(variational, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(variational, name, counted(name))
    assert build_certificate(0.5, cfg_bh).passed
    # the Hessian form samples once for the check and once for h1
    assert calls == {"weierstrass_E": 1, "hessian_velocity_form": 2}


def test_certificate_holds_no_arrays(cfg_bh):
    def arrays_in(value, path):
        if isinstance(value, np.ndarray):
            yield path
        elif dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                yield from arrays_in(getattr(value, f.name), f"{path}.{f.name}")
        elif isinstance(value, (tuple, list)):
            for i, item in enumerate(value):
                yield from arrays_in(item, f"{path}[{i}]")

    cert = build_certificate(0.5, cfg_bh)
    assert cert.conjugate is not None
    assert list(arrays_in(cert, "cert")) == []


def test_certificate_keeps_under_800_bytes():
    # a retained certificate with its config costs ~700 B with slotted
    # dataclasses and one shared basis note, ~1160 B without them
    build_certificate(0.5, RandersConfig(0.3))  # first-call allocations
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        certs = [build_certificate(0.5, RandersConfig(0.3)) for _ in range(10)]
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(cert.passed for cert in certs)
    assert kept <= 800 * len(certs)


def test_certificate_json_shape(cfg_bh):
    cert = build_certificate(0.5, cfg_bh)
    doc = cert.to_json_dict()
    assert set(doc) == {
        "a",
        "b",
        "form",
        "lambda",
        "el_residual_max",
        "normality_min",
        "weierstrass_max",
        "h1",
        "hess_form_max",
        "conjugate",
        "second_variation_max",
        "pass",
        "notes",
    }
    assert set(doc["conjugate"]) == {"zero_crossing", "min_abs_D"}
    assert doc["pass"] is True
    assert any("finite trigonometric basis" in n for n in doc["notes"])
