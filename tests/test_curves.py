import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from randers_disc import (
    AdmissibilityError,
    Circle,
    DomainError,
    PolarFourierCurve,
    check_admissible,
    require_admissible,
)
from randers_disc.curves import TWO_PI, reduce_parameter
from randers_disc import fd

small_coeffs = st.lists(st.floats(-0.03, 0.03), min_size=1, max_size=4)


def test_circle_eval_basic():
    c = Circle(0.5)
    s = c.eval(0.0)
    assert s.point.tolist() == [0.5, 0.0]
    assert s.velocity.tolist() == [0.0, 0.5]


def test_circle_radius_validation():
    for bad in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(DomainError):
            Circle(bad)


def test_parameter_reduction_exact():
    assert reduce_parameter(TWO_PI) == 0.0
    assert reduce_parameter(-1.0) == TWO_PI - 1.0
    # 1.0 + 2*pi is exactly representable, so fmod reduction is bit-exact
    assert reduce_parameter(1.0 + TWO_PI) == 1.0


def test_periodicity_bitwise():
    curve = PolarFourierCurve(0.5, (0.03, -0.01), (0.02, 0.005))
    for t in (0.0, 0.5, 1.0):
        a, b = curve.eval(t), curve.eval(t + TWO_PI)
        assert a.point.tolist() == b.point.tolist()
        assert a.velocity.tolist() == b.velocity.tolist()


def test_velocity_matches_position_derivative():
    curve = PolarFourierCurve(0.5, (0.04, 0.0, 0.01), (0.0, -0.02, 0.0))
    for t in (0.3, 1.7, 4.4):
        s = curve.eval(t)
        for i in range(2):
            num = fd.d1_central(lambda u, i=i: curve.eval(u).point[i], t, 1e-6)
            assert num == pytest.approx(s.velocity[i], abs=1e-8)


def test_circle_equals_zero_coefficient_fourier_bitwise():
    a = 0.37
    circle = Circle(a)
    fourier = PolarFourierCurve(a, (0.0, 0.0), (0.0, 0.0))
    ts = TWO_PI * np.arange(257) / 257
    pc, vc = circle.batch(ts)
    pf, vf = fourier.batch(ts)
    assert pc.tolist() == pf.tolist()
    assert vc.tolist() == vf.tolist()
    for t in (0.0, 1.25, 5.0):
        assert circle.eval(t).point.tolist() == fourier.eval(t).point.tolist()


def test_polar_identities():
    curve = PolarFourierCurve(0.45, (0.05,), (-0.02,))
    for t in (0.2, 2.1, 3.9):
        s = curve.eval(t)
        r, _ = curve.radius_batch(np.array(t))
        assert math.hypot(*s.point) == pytest.approx(r, rel=1e-14)
        cross = s.point[0] * s.velocity[1] - s.point[1] * s.velocity[0]
        assert cross == pytest.approx(r * r, rel=1e-13)


@given(coeffs=small_coeffs, t=st.floats(0.0, 20.0))
def test_speed_identity_property(coeffs, t):
    curve = PolarFourierCurve(0.5, tuple(coeffs), tuple(0.0 for _ in coeffs))
    s = curve.eval(t)
    r, rd = curve.radius_batch(np.array(s.t))
    assert float(s.velocity @ s.velocity) == pytest.approx(r * r + rd * rd, rel=1e-12)


def test_unequal_coefficient_lists_rejected():
    with pytest.raises(DomainError, match="harmonic cutoff"):
        PolarFourierCurve(0.5, (0.05,), (0.0, 0.01))


def test_admissibility_cases():
    assert check_admissible(Circle(0.5))
    assert check_admissible(PolarFourierCurve(0.5, (0.05, 0.01), (0.0, 0.0)))
    # crosses the origin region: r dips below the margin
    assert not check_admissible(PolarFourierCurve(0.5, (0.6,), (0.0,)))
    # leaves the disc
    assert not check_admissible(PolarFourierCurve(0.95, (0.1,), (0.0,)))
    with pytest.raises(AdmissibilityError):
        require_admissible(PolarFourierCurve(0.5, (0.6,), (0.0,)))


def test_degenerate_curve_eval_raises():
    with pytest.raises(AdmissibilityError):
        PolarFourierCurve(0.0, (), ()).eval(0.3)


def test_rotation_shifts_the_radius_function():
    curve = PolarFourierCurve(0.5, (0.04, -0.01, 0.02), (0.01, 0.03, -0.02))
    phi = 0.7
    rot = curve.rotated(phi)
    ts = np.linspace(0.0, TWO_PI, 17)
    r_rot, rd_rot = rot.radius_batch(ts)
    r, rd = curve.radius_batch(ts + phi)
    assert r_rot == pytest.approx(r, abs=1e-14)
    assert rd_rot == pytest.approx(rd, abs=1e-13)


def test_rotation_by_period_is_identity():
    curve = PolarFourierCurve(0.5, (0.04, -0.01), (0.01, 0.03))
    back = curve.rotated(TWO_PI)
    assert back.cos_coeffs == pytest.approx(curve.cos_coeffs, abs=1e-15)
    assert back.sin_coeffs == pytest.approx(curve.sin_coeffs, abs=1e-15)


def test_to_dict_round_trip_fields():
    curve = PolarFourierCurve(0.5, (0.04,), (0.01,))
    d = curve.to_dict()
    assert d["kind"] == "polar_fourier"
    assert d["a0"] == 0.5
    assert Circle(0.3).to_dict()["kind"] == "circle"
