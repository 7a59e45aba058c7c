import dataclasses
import math
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
    """(blocks, M, ell) of the circle of radius a, as the certificate assembles them."""
    cfg = RandersConfig(b)
    blocks = variational.hessian_blocks(a, cfg.kappa, lambda_for_circle(a, cfg), np.linspace(0.0, TWO_PI, n + 1))
    return blocks, second_variation_matrix(blocks), constraint_vector(Circle(a))


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
    n = 1024
    H, M, ell = variation_system(a, 0.3, n)
    assert M.shape == (N_COEFFS, N_COEFFS)
    assert np.array_equal(M, M.T)
    for _ in range(20):
        v = rng.standard_normal(N_COEFFS)
        assert v @ M @ v == pytest.approx(two_omega_quadrature(H, v, n), rel=1e-12)
        projected = variational._onto_kernel(v, ell)
        assert variational._quadratic_forms(projected, M) == pytest.approx(
            two_omega_quadrature(H, projected, n), rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_certificate_maximum_equals_per_probe_calls(cfg_bh, seed):
    # the certificate draws its probes as the rows of one standard-normal array
    blocks, _, ell = variation_system()
    rows = np.random.default_rng(seed).standard_normal((variational.N_PROBES, N_COEFFS))
    values = [two_omega_quadrature(blocks, v, 1024) for v in variational._onto_kernel(rows, ell)]
    cert = build_certificate(0.5, cfg_bh, probe_seed=seed)
    assert cert.second_variation_max == pytest.approx(max(values), rel=1e-12)


def test_certificate_fails_on_a_planted_positive_mode(cfg_bh, monkeypatch):
    # identity blocks make J'' the L2 norm of (y, ydot), positive on every probe
    monkeypatch.setattr(variational, "hessian_blocks", lambda a, kap, lam, ts: np.broadcast_to(
        np.eye(4)[:, :, None], (4, 4, len(ts))))
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
    basis = variational._variation_basis()
    assert variational._variation_basis() is basis
    for array in basis:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


@pytest.mark.parametrize("b", [0.0, 0.3])
def test_rim_hessian_blocks_finite_and_second_variation_negative(b):
    # an uncapped 1e-5 position step reaches |x| = 1 at a = 0.99999
    a = 0.99999
    cfg = RandersConfig(b)
    blocks = variational.hessian_blocks(a, cfg.kappa, lambda_for_circle(a, cfg), np.linspace(0.0, TWO_PI, 1025))
    assert np.all(np.isfinite(blocks))
    assert build_certificate(a, cfg).second_variation_max < 0.0


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
        raise TypeError("bug in hessian_blocks")

    monkeypatch.setattr(variational, "hessian_blocks", broken)
    with pytest.raises(TypeError, match="bug in hessian_blocks"):
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
