"""Randers length and the enclosed-area functionals.

Both are line integrals over one period, evaluated with the periodic
trapezoid rule (spectrally accurate for smooth integrands); the error
estimate compares against the half-resolution subgrid.  The area uses the
Green form of the volume integral: every volume form is the constant
kappa(form, b) times the same orientation-sensitive integral.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .config import RandersConfig
from .curves import TWO_PI, _PolarCurve, require_admissible
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

    @property
    def weight(self) -> float:
        return TWO_PI / self.n


@dataclasses.dataclass(frozen=True)
class FunctionalValue:
    value: float
    est_error: float


def _periodic_integral(values: np.ndarray) -> tuple[float, float]:
    """(integral, doubling error estimate) for one period of samples."""
    full = values.mean() * TWO_PI
    half = values[::2].mean() * TWO_PI
    return full, abs(full - half)


def length_integrand(points: np.ndarray, velocities: np.ndarray, cfg: RandersConfig) -> np.ndarray:
    """F(gamma, gamma') sampled along a curve; includes the drift term."""
    r2 = points[:, 0] ** 2 + points[:, 1] ** 2
    s = 1.0 - r2
    speed = np.hypot(velocities[:, 0], velocities[:, 1])
    vals = 2.0 * speed / s
    if cfg.b != 0.0:
        radial = points[:, 0] * velocities[:, 0] + points[:, 1] * velocities[:, 1]
        vals = vals + 2.0 * cfg.b * radial / (s * np.sqrt(r2))
    return vals


def signed_area_integrand(points: np.ndarray, velocities: np.ndarray) -> np.ndarray:
    """Green-form area integrand 2 (x1 v2 - x2 v1) / (1 - r^2); odd in orientation."""
    r2 = points[:, 0] ** 2 + points[:, 1] ** 2
    cross = points[:, 0] * velocities[:, 1] - points[:, 1] * velocities[:, 0]
    return 2.0 * cross / (1.0 - r2)


def length(curve: _PolarCurve, cfg: RandersConfig, grid: QuadratureGrid = QuadratureGrid()) -> FunctionalValue:
    """Randers length over one period.

    The drift one-form is exact, so for closed curves its contribution
    integrates to zero; it is integrated anyway, which turns that
    b-independence into a testable property rather than an assumption.
    """
    require_admissible(curve)
    points, velocities = curve.batch(grid.nodes)
    value, est = _periodic_integral(length_integrand(points, velocities, cfg))
    return FunctionalValue(value, est)


def area(curve: _PolarCurve, cfg: RandersConfig, grid: QuadratureGrid = QuadratureGrid()) -> FunctionalValue:
    """Enclosed area under cfg.form: kappa(form, b) times the shared Green integral."""
    require_admissible(curve)
    points, velocities = curve.batch(grid.nodes)
    base, est = _periodic_integral(signed_area_integrand(points, velocities))
    kap = cfg.kappa
    return FunctionalValue(kap * base, kap * est)


def circle_closed_forms(a: float, cfg: RandersConfig) -> dict:
    """Analytic circle values: L = 4 pi a/(1-a^2), A = kappa 4 pi a^2/(1-a^2)."""
    if not 0.0 < a < 1.0:
        raise DomainError(f"circle radius must lie in (0, 1), got {a}")
    s = 1.0 - a * a
    return {"length": 4.0 * math.pi * a / s, "area": cfg.kappa * 4.0 * math.pi * a * a / s}
