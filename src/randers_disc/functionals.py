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
from .curves import TWO_PI, PolarFourierCurve, require_admissible, require_radius
from .errors import DomainError
from .metric import _randers_norm


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


def _periodic_integral(values: np.ndarray) -> tuple[float, float]:
    """(integral, doubling error estimate) for one period of samples on the last axis."""
    full = values.mean(axis=-1) * TWO_PI
    half = values[..., ::2].mean(axis=-1) * TWO_PI
    return full, abs(full - half)


def length_integrand(points: np.ndarray, velocities: np.ndarray, cfg: RandersConfig) -> np.ndarray:
    """F(gamma, gamma') sampled along a curve; includes the drift term.

    The callers have checked the curve's admissibility, so the metric's
    norm is taken without revalidating every node.
    """
    return _randers_norm(points, velocities, cfg.b)


def signed_area_integrand(points: np.ndarray, velocities: np.ndarray) -> np.ndarray:
    """Green-form area integrand 2 (x1 v2 - x2 v1) / (1 - r^2); odd in orientation."""
    r2 = points[..., 0] ** 2 + points[..., 1] ** 2
    cross = points[..., 0] * velocities[..., 1] - points[..., 1] * velocities[..., 0]
    return 2.0 * cross / (1.0 - r2)


def length(curve: PolarFourierCurve, cfg: RandersConfig, grid: QuadratureGrid = QuadratureGrid()) -> FunctionalValue:
    """Randers length over one period.

    The drift one-form is exact, so for closed curves its contribution
    integrates to zero; it is integrated anyway, which turns that
    b-independence into a testable property rather than an assumption.
    """
    require_admissible(curve)
    points, velocities = curve.batch(grid.nodes)
    value, est = _periodic_integral(length_integrand(points, velocities, cfg))
    return FunctionalValue(value, est)


def area(curve: PolarFourierCurve, cfg: RandersConfig, grid: QuadratureGrid = QuadratureGrid()) -> FunctionalValue:
    """Enclosed area under cfg.form: kappa(form, b) times the shared Green integral."""
    require_admissible(curve)
    points, velocities = curve.batch(grid.nodes)
    base, est = _periodic_integral(signed_area_integrand(points, velocities))
    kap = cfg.kappa
    return FunctionalValue(kap * base, kap * est)


def circle_closed_forms(a: float, cfg: RandersConfig) -> dict:
    """Analytic circle values: L = 4 pi a/(1-a^2), A = kappa 4 pi a^2/(1-a^2)."""
    require_radius(a)
    s = 1.0 - a * a
    return {"length": 4.0 * math.pi * a / s, "area": cfg.kappa * 4.0 * math.pi * a * a / s}
