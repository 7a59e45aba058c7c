import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from randers_disc import (
    Circle,
    DomainError,
    PerturbationSpec,
    PolarFourierCurve,
    RandersConfig,
    VerificationError,
    check_admissible,
    circle_closed_forms,
    lambda_for_circle,
    require_admissible,
    run_trials,
)
from randers_disc.curves import (
    _ADMISSIBLE_MARGIN,
    _ADMISSIBLE_NODES,
    TWO_PI,
    _admissible,
    _admissible_rows,
    _bound_clears,
    _harmonic_basis,
    _polar_frame,
    _radius_rows,
)
from randers_disc import fd
from tests.conftest import rotated

small_coeffs = st.lists(st.floats(-0.03, 0.03), min_size=1, max_size=4)


def test_circle_batch_basic():
    point, velocity = Circle(0.5).batch(0.0)
    assert point.tolist() == [0.5, 0.0]
    assert velocity.tolist() == [0.0, 0.5]


def test_circle_radius_validation():
    for bad in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(DomainError):
            Circle(bad)


def test_circle_is_the_fourier_curve_without_harmonics():
    circle = Circle(0.5)
    assert isinstance(circle, PolarFourierCurve)
    assert circle.a == circle.a0 == 0.5 and circle.harmonics == 0
    assert repr(circle) == "Circle(a=0.5)" and repr(Circle(1 / 3)) == f"Circle(a={1 / 3!r})"
    assert circle == Circle(0.5) and hash(circle) == hash(Circle(0.5))
    assert circle != Circle(0.4)
    assert circle != PolarFourierCurve(0.5)  # equal coefficients, another class
    with pytest.raises(AttributeError):
        circle.a = 0.4


@pytest.mark.parametrize(
    "takes_radius",
    [
        Circle,
        lambda a: circle_closed_forms(a, RandersConfig(0.3)),
        lambda a: lambda_for_circle(a, RandersConfig(0.3)),
        lambda a: run_trials(a, RandersConfig(0.3), PerturbationSpec(count=1)),
    ],
    ids=["Circle", "circle_closed_forms", "lambda_for_circle", "run_trials"],
)
@pytest.mark.parametrize("bad", [0.0, 1.0, float("nan")])
def test_every_radius_check_is_the_circle_rule(takes_radius, bad):
    with pytest.raises(DomainError, match=rf"^circle radius must lie in \(0, 1\), got {bad}$"):
        takes_radius(bad)


def test_batch_is_periodic():
    # t is not reduced modulo 2*pi, so a period shift moves values by roundoff only
    curve = PolarFourierCurve(0.5, (0.03, -0.01), (0.02, 0.005))
    ts = np.array([0.0, 0.5, 1.0])
    for a, b in zip(curve.batch(ts), curve.batch(ts + TWO_PI)):
        assert a == pytest.approx(b, abs=1e-14)


def test_velocity_matches_position_derivative():
    curve = PolarFourierCurve(0.5, (0.04, 0.0, 0.01), (0.0, -0.02, 0.0))
    ts = np.array([0.3, 1.7, 4.4])
    num = fd.d1_central(lambda u: curve.batch(u)[0], ts, 1e-6)
    assert num == pytest.approx(curve.batch(ts)[1], abs=1e-8)


def test_circle_equals_zero_coefficient_fourier_bitwise(rng):
    a = 0.37
    circle = Circle(a)
    fourier = PolarFourierCurve(a, (0.0, 0.0), (0.0, 0.0))
    ts = TWO_PI * np.arange(257) / 257
    pc, vc = circle.batch(ts)
    pf, vf = fourier.batch(ts)
    assert pc.tolist() == pf.tolist()
    assert vc.tolist() == vf.tolist()
    for t in (0.0, 1.25, 5.0):
        assert circle.batch(t)[0].tolist() == fourier.batch(t)[0].tolist()
    # without harmonics it is the same curve: every output bit, at every shape of t
    bare = PolarFourierCurve(a)
    for t in (1.25, rng.uniform(0.0, 20.0, 9), rng.uniform(0.0, 20.0, (3, 5))):
        for got, want in zip(circle.batch(t) + circle.radius_batch(np.asarray(t)),
                             bare.batch(t) + bare.radius_batch(np.asarray(t))):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_polar_identities():
    curve = PolarFourierCurve(0.45, (0.05,), (-0.02,))
    ts = np.array([0.2, 2.1, 3.9])
    points, velocities = curve.batch(ts)
    r, _ = curve.radius_batch(ts)
    assert np.hypot(points[:, 0], points[:, 1]) == pytest.approx(r, rel=1e-14)
    cross = points[:, 0] * velocities[:, 1] - points[:, 1] * velocities[:, 0]
    assert cross == pytest.approx(r * r, rel=1e-13)


@given(coeffs=small_coeffs, t=st.floats(0.0, 20.0))
def test_speed_identity_property(coeffs, t):
    curve = PolarFourierCurve(0.5, tuple(coeffs), tuple(0.0 for _ in coeffs))
    _, velocity = curve.batch(t)
    r, rd = curve.radius_batch(np.array(t))
    assert float(velocity @ velocity) == pytest.approx(r * r + rd * rd, rel=1e-12)


def test_radius_batch_matches_the_direct_harmonic_sum(rng):
    # the angle-addition recurrence for cos kt, sin kt against np.cos(k t)
    cos_c, sin_c = rng.uniform(-0.01, 0.01, (2, 16))
    curve = PolarFourierCurve(0.5, tuple(cos_c), tuple(sin_c))
    ts = rng.uniform(0.0, 20.0, (7, 9))
    ks = np.arange(1, 17)[:, None, None]
    r_direct = 0.5 + np.tensordot(cos_c, np.cos(ks * ts), 1) + np.tensordot(sin_c, np.sin(ks * ts), 1)
    rd_direct = np.tensordot(ks[:, 0, 0] * sin_c, np.cos(ks * ts), 1) - np.tensordot(
        ks[:, 0, 0] * cos_c, np.sin(ks * ts), 1
    )
    r, rd = curve.radius_batch(ts)
    assert r.shape == rd.shape == ts.shape
    assert np.max(np.abs(r - r_direct)) <= 1e-14
    assert np.max(np.abs(rd - rd_direct)) <= 1e-13


def test_radius_rows_equal_one_curve_at_a_time_bitwise(rng):
    # rows of one kernel call never mix: each equals its curve evaluated alone
    a0 = rng.uniform(0.3, 0.7, 5)
    cos_c, sin_c = rng.uniform(-0.02, 0.02, (2, 5, 4))
    ts = rng.uniform(0.0, 20.0, (3, 11))
    r, rd = _radius_rows(a0, cos_c, sin_c, _harmonic_basis(ts, 4))
    assert r.shape == rd.shape == (5, 3, 11)
    for i in range(5):
        r_i, rd_i = PolarFourierCurve(a0[i], cos_c[i], sin_c[i]).radius_batch(ts)
        assert np.array_equal(r[i], r_i) and np.array_equal(rd[i], rd_i)


def test_fourier_batch_reuses_the_kernel_cos_and_sin_bitwise(rng):
    curve = PolarFourierCurve(0.5, (0.02, -0.01, 0.005), (0.01, 0.0, -0.004))
    ts = rng.uniform(0.0, 20.0, 33)
    r, rd = curve.radius_batch(ts)
    expected = _polar_frame(r, rd, np.cos(ts), np.sin(ts))
    for got, want in zip(curve.batch(ts), expected):
        assert np.array_equal(got, want)


def test_admissible_rows_agree_with_check_admissible():
    curves = [
        PolarFourierCurve(0.5, (0.05, 0.01), (0.0, 0.0)),
        PolarFourierCurve(0.5, (0.6, 0.0), (0.0, 0.0)),   # dips to the origin
        PolarFourierCurve(0.95, (0.1, 0.0), (0.0, 0.0)),  # leaves the disc
        PolarFourierCurve(0.3, (0.0, 0.02), (0.01, 0.0)),
    ]
    a0 = np.array([c.a0 for c in curves])
    cos_c = np.array([c.cos_coeffs for c in curves])
    sin_c = np.array([c.sin_coeffs for c in curves])
    rows = _admissible_rows(*_radius_rows(a0, cos_c, sin_c, _harmonic_basis(_ADMISSIBLE_NODES, 2)))
    assert rows.tolist() == [check_admissible(c) for c in curves] == [True, False, False, True]


@given(
    harmonics=st.integers(1, 16),
    edge=st.sampled_from(["origin", "rim"]),
    log_gap=st.floats(-12.0, np.log10(0.5)),
    scales=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6),
    nan_rows=st.sets(st.integers(0, 5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_coefficient_bound_clears_only_rows_the_samples_admit(harmonics, edge, log_gap, scales, nan_rows,
                                                               seed):
    # a0 sits 10**log_gap from the origin or the rim; each row's coefficients
    # sum to scale times the room the bound leaves, so scales below 1 are
    # cleared by the bound and scales above 1 fall through to the samples
    gap = 10.0 ** log_gap
    a0_value = gap if edge == "origin" else 1.0 - gap
    room = max(min(a0_value, 1.0 - a0_value) - 2.0 * _ADMISSIBLE_MARGIN, 0.0)
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, (len(scales), 2, harmonics))
    coeffs *= (np.array(scales) * room / np.abs(coeffs).sum(axis=(1, 2)))[:, None, None]
    for row in nan_rows & set(range(len(scales))):
        coeffs[row, rng.integers(2), rng.integers(harmonics)] = np.nan
    a0 = np.full(len(scales), a0_value)
    cos_c, sin_c = coeffs[:, 0], coeffs[:, 1]
    cleared = _bound_clears(a0, cos_c, sin_c)
    sampled = _admissible_rows(*_radius_rows(a0, cos_c, sin_c, _harmonic_basis(_ADMISSIBLE_NODES, harmonics)))
    assert np.all(sampled[cleared])
    assert not np.any(cleared[np.isnan(coeffs).any(axis=(1, 2))])  # a NaN row is sampled, and fails
    assert _admissible(a0, cos_c, sin_c).tolist() == sampled.tolist()


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
    with pytest.raises(VerificationError, match="leaves the admissible polar-graph class"):
        require_admissible(PolarFourierCurve(0.5, (0.6,), (0.0,)))


def test_rotation_shifts_the_radius_function():
    curve = PolarFourierCurve(0.5, (0.04, -0.01, 0.02), (0.01, 0.03, -0.02))
    phi = 0.7
    rot = rotated(curve, phi)
    ts = np.linspace(0.0, TWO_PI, 17)
    r_rot, rd_rot = rot.radius_batch(ts)
    r, rd = curve.radius_batch(ts + phi)
    assert r_rot == pytest.approx(r, abs=1e-14)
    assert rd_rot == pytest.approx(rd, abs=1e-13)


def test_rotation_by_period_is_identity():
    curve = PolarFourierCurve(0.5, (0.04, -0.01), (0.01, 0.03))
    back = rotated(curve, TWO_PI)
    assert back.cos_coeffs == pytest.approx(curve.cos_coeffs, abs=1e-15)
    assert back.sin_coeffs == pytest.approx(curve.sin_coeffs, abs=1e-15)

