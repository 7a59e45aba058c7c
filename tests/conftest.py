import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from randers_disc import Circle, PolarFourierCurve, RandersConfig, VolumeForm, lambda_for_circle

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# the acceptance grid: every (radius, drift, form) combination under test
GRID_A = (0.2, 0.5, 0.8)
GRID_B = (0.0, 0.3, 0.7)
GRID = [(a, b, form) for a in GRID_A for b in GRID_B for form in VolumeForm]


@pytest.fixture
def cfg_bh():
    return RandersConfig(0.3, VolumeForm.BUSEMANN_HAUSDORFF)


@pytest.fixture
def circle_half():
    return Circle(0.5)


@pytest.fixture
def system_half(cfg_bh):
    return (cfg_bh.kappa, lambda_for_circle(0.5, cfg_bh))


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)


def rotated(curve, phi):
    """The curve with parameter t -> t + phi, expressed back in Fourier coefficients."""
    k = np.arange(1, curve.harmonics + 1) * phi
    c, s = np.array(curve.cos_coeffs), np.array(curve.sin_coeffs)
    return PolarFourierCurve(curve.a0, c * np.cos(k) + s * np.sin(k), s * np.cos(k) - c * np.sin(k))
