import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from randers_disc import (
    DomainError,
    RandersConfig,
    VolumeForm,
    beta_covector,
    christoffel,
    disc_grid,
    finsler_norm,
    fundamental_tensor,
    potential,
    yasuda_shimada_residual,
)
from randers_disc import fd
from randers_disc.metric import check_metric

# frozen flag-curvature residual at p = (3/10, 0), b = 1/2 (exact rationals)
YS_R11 = -60000.0 / 8281.0
YS_R22 = -131000.0 / 24843.0

points_strategy = st.tuples(
    st.floats(0.05, 0.9), st.floats(0.0, 2.0 * math.pi)
).map(lambda ra: (ra[0] * math.cos(ra[1]), ra[0] * math.sin(ra[1])))
vectors_strategy = st.tuples(
    st.floats(0.1, 3.0), st.floats(0.0, 2.0 * math.pi)
).map(lambda ma: (ma[0] * math.cos(ma[1]), ma[0] * math.sin(ma[1])))


# alpha is F at b = 0, and beta is F_b - F_0
RIEMANNIAN = RandersConfig(0.0)


def alpha_norm(p, v):
    return finsler_norm(p, v, RIEMANNIAN)


def test_alpha_norm_values():
    assert alpha_norm((0.0, 0.0), (1.0, 0.0)) == 2.0
    assert alpha_norm((0.5, 0.0), (0.0, 3.0)) == pytest.approx(8.0, rel=1e-15)


def test_alpha_norm_rejects_bad_input():
    with pytest.raises(DomainError):
        alpha_norm((1.0, 0.5), (1.0, 0.0))
    with pytest.raises(DomainError):
        alpha_norm((0.2, 0.1), (0.0, 0.0))


def test_beta_value_example():
    # beta = 2b <x, v> / ((1 - r^2) r) = 2 * 0.5 * 0.3 / (0.91 * 0.3)
    p, v = (0.3, 0.0), (1.0, 0.0)
    val = finsler_norm(p, v, RandersConfig(0.5)) - alpha_norm(p, v)
    assert val == pytest.approx(1.0 / 0.91, rel=1e-14)


def test_finsler_norm_is_alpha_plus_beta():
    b = 0.4
    (x1, x2), (v1, v2) = p, v = (0.2, -0.3), (0.7, 1.1)
    s = 1.0 - x1 * x1 - x2 * x2
    alpha = 2.0 * math.hypot(v1, v2) / s
    beta = 2.0 * b * (x1 * v1 + x2 * v2) / (s * math.hypot(x1, x2))
    assert alpha_norm(p, v) == pytest.approx(alpha, rel=1e-15)
    assert finsler_norm(p, v, RandersConfig(b)) == pytest.approx(alpha + beta, rel=1e-15)


def test_beta_riemannian_case_is_zero_everywhere():
    cfg = RandersConfig(0.0)
    # the drift's formula fails at the origin; at b = 0 the norm is still alpha there
    assert finsler_norm((0.0, 0.0), (1.0, 2.0), cfg) == pytest.approx(2.0 * math.sqrt(5.0), rel=1e-15)
    assert np.all(beta_covector((0.4, 0.1), cfg) == 0.0)
    assert potential((0.6, 0.2), cfg) == 0.0


def test_beta_covector_rejects_origin_when_drifting():
    with pytest.raises(DomainError):
        beta_covector((0.0, 0.0), RandersConfig(0.5))


@pytest.mark.parametrize("b", [0.1, 0.5, 0.9])
def test_drift_norm_is_constant_on_grid(b):
    cfg = RandersConfig(b)
    worst = 0.0
    for p in disc_grid():
        beta = beta_covector(p, cfg)
        s = 1.0 - float(p @ p)
        norm2 = (0.5 * s) ** 2 * float(beta @ beta)  # inverse metric contraction
        worst = max(worst, abs(norm2 - b * b))
    assert worst <= 1e-12


@pytest.mark.parametrize("b", [0.3, 0.7])
def test_potential_gradient_is_the_drift_covector(b):
    cfg = RandersConfig(b)
    for p in [(0.3, 0.0), (-0.2, 0.5), (0.1, -0.7)]:
        beta = beta_covector(p, cfg)
        for i in range(2):
            def shifted(h, i=i, p=p):
                q = list(p)
                q[i] += h
                return potential(q, cfg)

            assert fd.d1_central(shifted, 0.0, 1e-6) == pytest.approx(beta[i], abs=1e-8)


def test_kappa_values():
    b = 0.3
    assert RandersConfig(b, VolumeForm.BUSEMANN_HAUSDORFF).kappa == pytest.approx(
        (1 - b * b) ** 1.5, rel=1e-15
    )
    assert RandersConfig(b, VolumeForm.HOLMES_THOMPSON).kappa == 1.0
    assert RandersConfig(b, VolumeForm.MAX).kappa == pytest.approx(1.3**3, rel=1e-15)
    assert RandersConfig(b, VolumeForm.MIN).kappa == pytest.approx(0.7**3, rel=1e-15)


def test_config_validation():
    with pytest.raises(DomainError, match="b must satisfy 0 <= b < 1"):
        RandersConfig(1.2)
    with pytest.raises(DomainError):
        RandersConfig(-0.1)
    with pytest.raises(DomainError):
        VolumeForm.coerce("euclidean")
    assert RandersConfig(0.2, "max").form is VolumeForm.MAX


def test_christoffel_closed_form():
    p = (0.3, -0.2)
    c = 2.0 / (1.0 - 0.09 - 0.04)
    gam = christoffel(p)
    assert np.allclose(gam[0], c * np.array([[0.3, -0.2], [-0.2, -0.3]]), rtol=1e-15)
    assert np.allclose(gam[1], c * np.array([[0.2, 0.3], [0.3, -0.2]]), rtol=1e-15)


def test_fundamental_tensor_riemannian_diagonal():
    g = fundamental_tensor((0.3, 0.1), (0.4, -1.2), RandersConfig(0.0))
    expect = 4.0 / (1.0 - 0.1) ** 2
    assert g[0, 0] == pytest.approx(expect, rel=1e-6)
    assert g[1, 1] == pytest.approx(expect, rel=1e-6)
    assert g[0, 1] == pytest.approx(0.0, abs=1e-6)


def test_fundamental_tensor_contraction_and_homogeneity():
    cfg = RandersConfig(0.5)
    p, v = (0.3, -0.4), (1.0, 0.7)
    g = fundamental_tensor(p, v, cfg)
    f2 = finsler_norm(p, v, cfg) ** 2
    assert v @ g @ v == pytest.approx(f2, rel=1e-6)
    g2 = fundamental_tensor(p, (2.0, 1.4), cfg)
    assert g2 == pytest.approx(g, rel=1e-6)


@given(p=points_strategy, v=vectors_strategy, b=st.floats(0.0, 0.8))
def test_contraction_identity_property(p, v, b):
    cfg = RandersConfig(b)
    g = fundamental_tensor(p, v, cfg)
    f2 = finsler_norm(p, v, cfg) ** 2
    assert abs(v @ g @ v - f2) <= 1e-6 * max(1.0, abs(f2))


def test_fundamental_tensor_positive_definite_near_boundary_of_b():
    # strong convexity survives up to b < 1; a large drift is still fine
    g = fundamental_tensor((0.2, 0.2), (-1.0, 0.3), RandersConfig(0.95))
    assert g[0, 0] > 0.0 and np.linalg.det(g) > 0.0


def test_yasuda_shimada_frozen_point():
    R = yasuda_shimada_residual((0.3, 0.0), RandersConfig(0.5))
    assert R[0, 0] == pytest.approx(YS_R11, abs=1e-6)
    assert R[1, 1] == pytest.approx(YS_R22, abs=1e-6)
    assert abs(R[0, 1]) <= 1e-6 and abs(R[1, 0]) <= 1e-6


@pytest.mark.parametrize("x,b", [(0.2, 0.3), (0.5, 0.7), (0.7, 0.4)])
def test_yasuda_shimada_axis_closed_forms(x, b):
    R = yasuda_shimada_residual((x, 0.0), RandersConfig(b))
    s = 1.0 - x * x
    assert R[0, 0] == pytest.approx(-8.0 * (1.0 - b * b) / s**2, abs=1e-6)
    assert R[1, 1] == pytest.approx((2.0 * b * (1.0 + x * x) - 8.0 * x) / (x * s**2), abs=1e-6)


def test_yasuda_shimada_domain_errors():
    with pytest.raises(DomainError):
        yasuda_shimada_residual((0.3, 0.0), RandersConfig(0.0))
    with pytest.raises(DomainError):
        yasuda_shimada_residual((0.005, 0.0), RandersConfig(0.5))


def test_disc_grid_shape_and_axis_points():
    pts = disc_grid()
    assert pts.shape == (200, 2)
    on_axis = pts[np.abs(pts[:, 1]) < 1e-15]
    assert len(on_axis) >= 10  # angle 0 row keeps pure-axis points
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert radii.min() >= 0.1 - 1e-12 and radii.max() <= 0.9 + 1e-12


# three directions, broadcast against the 200 grid points
DIRECTIONS = np.array([(1.0, 0.0), (-0.3, 0.8), (0.5, -1.7)])


@pytest.mark.parametrize("b", [0.0, 0.5])
def test_array_calls_equal_per_point_calls_bitwise(b):
    cfg = RandersConfig(b, VolumeForm.MAX)
    points = disc_grid()
    pairs = [(p, v) for p in points for v in DIRECTIONS]
    for fn in (alpha_norm, lambda p, v: finsler_norm(p, v, cfg)):
        assert fn(points[:, None], DIRECTIONS).ravel().tolist() == [float(fn(p, v)) for p, v in pairs]
    assert potential(points, cfg).tolist() == [float(potential(p, cfg)) for p in points]
    assert beta_covector(points, cfg).tolist() == [beta_covector(p, cfg).tolist() for p in points]
    assert christoffel(points).tolist() == [christoffel(p).tolist() for p in points]
    g = fundamental_tensor(points[:, None], DIRECTIONS, cfg)
    assert g.reshape(-1, 2, 2).tolist() == [fundamental_tensor(p, v, cfg).tolist() for p, v in pairs]
    if b > 0.0:
        R = yasuda_shimada_residual(points, cfg)
        assert R.tolist() == [yasuda_shimada_residual(p, cfg).tolist() for p in points]


def test_array_calls_reject_any_bad_entry():
    points = disc_grid()
    with pytest.raises(DomainError, match=r"point \[1.0, 0.0\] lies outside"):
        alpha_norm(np.vstack([points, [(1.0, 0.0)]]), (1.0, 0.0))
    with pytest.raises(DomainError, match="zero vector"):
        finsler_norm(points, np.vstack([points[1:], [(0.0, 0.0)]]), RandersConfig(0.3))
    with pytest.raises(DomainError, match="origin"):
        finsler_norm(np.vstack([points, [(0.0, 0.0)]]), (1.0, 0.0), RandersConfig(0.3))
    with pytest.raises(DomainError, match="r < 0.01"):
        yasuda_shimada_residual(np.vstack([points, [(0.005, 0.0)]]), RandersConfig(0.5))
    with pytest.raises(DomainError, match="two coordinates"):
        potential(np.zeros((4, 3)), RandersConfig(0.3))
    with pytest.raises(DomainError, match="zero vector"):
        fundamental_tensor(points, np.vstack([points[1:], [(0.0, 0.0)]]), RandersConfig(0.3))


NAN = math.nan
CFG = RandersConfig(0.3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: alpha_norm((0.1, NAN), (1.0, 0.0)), r"point \[0.1, nan\]"),
        (lambda: alpha_norm((0.1, 0.1), (1.0, math.inf)), r"vector \[1.0, inf\] has a non-finite"),
        (lambda: finsler_norm((NAN, 0.1), (1.0, 0.0), CFG), r"point \[nan, 0.1\]"),
        (lambda: finsler_norm((0.1, 0.1), (NAN, 0.0), CFG), r"vector \[nan, 0.0\] has a non-finite"),
        (lambda: beta_covector((NAN, NAN), CFG), r"point \[nan, nan\]"),
        (lambda: potential((0.2, NAN), CFG), r"point \[0.2, nan\]"),
        (lambda: christoffel((0.1, NAN)), r"point \[0.1, nan\]"),
        (lambda: fundamental_tensor((0.1, 0.1), (NAN, 1.0), CFG), r"vector \[nan, 1.0\] has a non-finite"),
        (lambda: yasuda_shimada_residual((NAN, 0.3), CFG), r"point \[nan, 0.3\]"),
        # the first bad entry of an array is named
        (lambda: finsler_norm(np.array([(0.1, 0.1), (0.2, NAN), (NAN, 0.0)]), (1.0, 0.0), CFG),
         r"point \[0.2, nan\]"),
    ],
    ids=[
        "alpha_norm-point", "alpha_norm-vector", "finsler_norm-point", "finsler_norm-vector",
        "beta_covector", "potential", "christoffel", "fundamental_tensor", "yasuda_shimada_residual",
        "first-bad-entry",
    ],
)
def test_non_finite_input_is_a_domain_error(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def check_metric_per_point(cfg):
    """The drift-norm, potential-gradient and flag-curvature maxima, one grid point at a time."""
    points = disc_grid()
    norm_dev = 0.0
    grad_dev = 0.0
    for p in points:
        beta = beta_covector(p, cfg)
        s = 1.0 - float(p @ p)
        norm_dev = max(norm_dev, abs(0.5 * s * math.hypot(beta[0], beta[1]) - cfg.b))
        for i in range(2):
            def f_along(h, i=i, p=p):
                q = p.copy()
                q[i] += h
                return potential(q, cfg)

            grad_dev = max(grad_dev, abs(fd.d1_central(f_along, 0.0, 1e-6) - beta[i]))
    if cfg.b == 0.0:
        return norm_dev, grad_dev, None
    return norm_dev, grad_dev, max(float(np.max(np.abs(yasuda_shimada_residual(p, cfg)))) for p in points)


@pytest.mark.parametrize("b", [0.0, 0.5, 0.9])
def test_check_metric_agrees_with_per_point_loop(b):
    cfg = RandersConfig(b)
    check = check_metric(cfg)
    norm_dev, grad_dev, ys_max = check_metric_per_point(cfg)
    assert abs(check["norm_deviation_max"] - norm_dev) <= 1e-14
    assert abs(check["gradient_mismatch_max"] - grad_dev) <= 1e-14
    if b == 0.0:
        assert check["yasuda_shimada_max"] is None
    else:
        assert abs(check["yasuda_shimada_max"] - ys_max) <= 1e-14
    assert check["pass"] is True
