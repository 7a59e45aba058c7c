"""Randers length and the enclosed-area functionals.

Both are line integrals over one period, evaluated with the periodic
trapezoid rule (spectrally accurate for smooth integrands); the error
estimate compares against the half-resolution subgrid.  The area uses the
Green form of the volume integral: every volume form is the constant
kappa(form, b) times the same orientation-sensitive integral.

The integrands take samples of a polar graph gamma = r (cos t, sin t) as
rows of (r, r'), with no Cartesian frame.  On such a curve x . v = r r',
x1 v2 - x2 v1 = r^2 and |v| = sqrt(r^2 + r'^2), so the Randers norm is
F = (2 sqrt(r^2 + r'^2) + 2 b r') / (1 - r^2) and the Green integrand is
2 r^2 / (1 - r^2).  The tests bound F against the metric's finsler_norm
on the frame to within 8 eps alpha / (1 - r^2) at every node, the rounding
of the Cartesian 1 - |x|^2 near the rim.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .config import RandersConfig
from .curves import TWO_PI, PolarFourierCurve, require_admissible, require_radius
from .errors import DomainError


@dataclasses.dataclass(frozen=True)
class QuadratureGrid:
    """Uniform nodes on [0, 2*pi); n a power of two >= 256 so it can halve."""

    n: int = 1024

    def __post_init__(self):
        if self.n < 256 or (self.n & (self.n - 1)) != 0:
            raise DomainError(f"quadrature node count must be a power of two >= 256, got {self.n}")

    @property
    def nodes(self) -> np.ndarray:
        return TWO_PI * np.arange(self.n) / self.n


@dataclasses.dataclass(frozen=True)
class FunctionalValue:
    value: float
    est_error: float


def _trapezoid(values: np.ndarray) -> np.ndarray:
    """Periodic trapezoid rule over one period of samples on the last axis."""
    return values.mean(axis=-1) * TWO_PI


def _periodic_integral(values: np.ndarray) -> tuple[float, float]:
    """(integral, doubling error estimate) for one period of samples on the last axis."""
    full = _trapezoid(values)
    return full, abs(full - _trapezoid(values[..., ::2]))


def length_integrand(r: np.ndarray, rd: np.ndarray, cfg: RandersConfig,
                     speed: np.ndarray | None = None, s: np.ndarray | None = None) -> np.ndarray:
    """F(gamma, gamma') = (2 sqrt(r^2 + r'^2) + 2 b r') / (1 - r^2) on polar-graph samples.

    Includes the drift term.  A caller that has speed = hypot(r, r') and
    s = 1 - r*r already passes them in; the result has the same bits.
    """
    if speed is None:
        speed = np.hypot(r, rd)
    if s is None:
        s = 1.0 - r * r
    return 2.0 * (speed + cfg.b * rd) / s


def signed_area_integrand(r: np.ndarray) -> np.ndarray:
    """Green-form area integrand 2 (x1 v2 - x2 v1) / (1 - |x|^2) = 2 r^2 / (1 - r^2) on a polar graph."""
    r2 = r * r
    return 2.0 * r2 / (1.0 - r2)


def length(curve: PolarFourierCurve, cfg: RandersConfig, grid: QuadratureGrid = QuadratureGrid()) -> FunctionalValue:
    """Randers length over one period.

    The drift one-form is exact, so for closed curves its contribution
    integrates to zero; it is integrated anyway, which turns that
    b-independence into a testable property rather than an assumption.
    """
    require_admissible(curve)
    value, est = _periodic_integral(length_integrand(*curve.radius_batch(grid.nodes), cfg))
    return FunctionalValue(value, est)


def area(curve: PolarFourierCurve, cfg: RandersConfig, grid: QuadratureGrid = QuadratureGrid()) -> FunctionalValue:
    """Enclosed area under cfg.form: kappa(form, b) times the shared Green integral."""
    require_admissible(curve)
    base, est = _periodic_integral(signed_area_integrand(curve.radius_batch(grid.nodes)[0]))
    kap = cfg.kappa
    return FunctionalValue(kap * base, kap * est)


def circle_closed_forms(a: float, cfg: RandersConfig) -> dict:
    """Analytic circle values: L = 4 pi a/(1-a^2), A = kappa 4 pi a^2/(1-a^2)."""
    require_radius(a)
    s = 1.0 - a * a
    return {"length": 4.0 * math.pi * a / s, "area": cfg.kappa * 4.0 * math.pi * a * a / s}
