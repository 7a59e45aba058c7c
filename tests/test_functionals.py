import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from randers_disc import (
    Circle,
    DomainError,
    PolarFourierCurve,
    QuadratureGrid,
    RandersConfig,
    VerificationError,
    VolumeForm,
    area,
    circle_closed_forms,
    finsler_norm,
    length,
)
from randers_disc.functionals import length_integrand, signed_area_integrand


def test_quadrature_grid_validation():
    with pytest.raises(DomainError):
        QuadratureGrid(100)
    with pytest.raises(DomainError):
        QuadratureGrid(128)
    g = QuadratureGrid(512)
    assert len(g.nodes) == 512
    assert g.nodes[0] == 0.0
    assert g.nodes[1] == pytest.approx(2.0 * math.pi / 512)


@pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("b", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("form", list(VolumeForm))
def test_circle_closed_forms_match_quadrature(a, b, form):
    cfg = RandersConfig(b, form)
    closed = circle_closed_forms(a, cfg)
    L = length(Circle(a), cfg)
    A = area(Circle(a), cfg)
    assert L.value == pytest.approx(closed["length"], rel=1e-10)
    assert A.value == pytest.approx(closed["area"], rel=1e-10)
    # constant integrands: the doubling estimate detects no change
    assert L.est_error <= 1e-12 * abs(L.value)
    assert A.est_error <= 1e-12 * abs(A.value)


def test_closed_forms_validation():
    with pytest.raises(DomainError):
        circle_closed_forms(1.0, RandersConfig(0.0))


def test_length_is_b_independent():
    curve = PolarFourierCurve(0.5, (0.04, -0.02), (0.01, 0.03))
    vals = [length(curve, RandersConfig(b)).value for b in (0.0, 0.3, 0.7, 0.9)]
    spread = max(vals) - min(vals)
    assert spread <= 1e-10 * abs(vals[0])


def test_length_on_circle_is_b_independent_bitwise():
    # x . v = 0 on circles, so the drift term contributes exactly zero
    vals = {b: length(Circle(0.6), RandersConfig(b)).value for b in (0.0, 0.5)}
    assert vals[0.0] == vals[0.5]


def test_area_is_kappa_times_shared_integral_bitwise():
    curve = PolarFourierCurve(0.5, (0.04,), (0.02,))
    base = area(curve, RandersConfig(0.3, VolumeForm.HOLMES_THOMPSON)).value
    for form in VolumeForm:
        cfg = RandersConfig(0.3, form)
        assert area(curve, cfg).value == cfg.kappa * base


def test_max_min_area_ratio():
    curve = PolarFourierCurve(0.5, (0.04,), (0.02,))
    b = 0.3
    hi = area(curve, RandersConfig(b, VolumeForm.MAX)).value
    lo = area(curve, RandersConfig(b, VolumeForm.MIN)).value
    assert hi / lo == pytest.approx(((1 + b) / (1 - b)) ** 3, rel=1e-13)


def test_signed_area_is_orientation_odd():
    curve = PolarFourierCurve(0.5, (0.03,), (0.0,))
    ts = QuadratureGrid(256).nodes
    pts, vel = curve.batch(ts)
    forward = signed_area_integrand(pts, vel)
    backward = signed_area_integrand(pts, -vel)
    assert np.all(forward == -backward)
    assert forward.mean() > 0.0  # polar graphs are positively oriented


def test_quadrature_error_estimate():
    # the gentle curves integrate to machine precision; a near-boundary
    # excursion on a coarse grid leaves a measurable doubling estimate
    curve = PolarFourierCurve(0.5, (0.49,), (0.0,))
    grid = QuadratureGrid(256)
    val = length(curve, RandersConfig(0.3), grid)
    assert val.est_error > 1e-9


def test_functionals_reject_inadmissible_curves():
    bad = PolarFourierCurve(0.5, (0.6,), (0.0,))
    with pytest.raises(VerificationError, match="leaves the admissible polar-graph class"):
        length(bad, RandersConfig(0.0))
    with pytest.raises(VerificationError, match="leaves the admissible polar-graph class"):
        area(bad, RandersConfig(0.0))


def test_richardson_estimate_tracks_resolution():
    curve = PolarFourierCurve(0.5, (0.05, 0.02, 0.01, 0.005), (0.01, 0.0, 0.0, 0.0))
    cfg = RandersConfig(0.3)
    coarse = length(curve, cfg, QuadratureGrid(256))
    fine = length(curve, cfg, QuadratureGrid(2048))
    assert abs(fine.value - coarse.value) <= max(coarse.est_error, 1e-12)
    assert fine.est_error <= coarse.est_error + 1e-15


@given(
    a=st.floats(0.1, 0.85),
    b=st.floats(0.0, 0.8),
    form=st.sampled_from(list(VolumeForm)),
)
def test_circle_quadrature_matches_closed_forms_property(a, b, form):
    cfg = RandersConfig(b, form)
    closed = circle_closed_forms(a, cfg)
    assert length(Circle(a), cfg).value == pytest.approx(closed["length"], rel=1e-10)
    assert area(Circle(a), cfg).value == pytest.approx(closed["area"], rel=1e-10)


@pytest.mark.parametrize("b", [0.0, 0.3, 0.99])
def test_length_integrand_is_the_finsler_norm_bitwise(b):
    cfg = RandersConfig(b)
    curve = PolarFourierCurve(0.5, (0.05, -0.01, 0.02), (0.02, 0.005, -0.03))
    points, velocities = curve.batch(QuadratureGrid().nodes)
    integrand = length_integrand(points, velocities, cfg)
    assert integrand.tolist() == finsler_norm(points, velocities, cfg).tolist()
