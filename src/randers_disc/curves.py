"""Closed curves in the disc as polar graphs gamma(t) = r(t)(cos t, sin t).

Polar graphs are automatically simple and positively oriented, and they
carry exact analytic velocities, which keeps the quadrature of the length
and area functionals spectrally accurate.  The parameter period is 2*pi.
Curves evaluate only through batch, on parameters of any shape (not
reduced modulo 2*pi), with positions and velocities on a trailing axis.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError, VerificationError

TWO_PI = 2.0 * math.pi

_ADMISSIBLE_GRID = 4096     # uniform samples of t in the admissibility check
_ADMISSIBLE_MARGIN = 1e-9   # distance kept from the origin, the rim and zero speed


def require_radius(a: float) -> None:
    if not 0.0 < a < 1.0:
        raise DomainError(f"circle radius must lie in (0, 1), got {a}")


class _PolarCurve:
    """Shared evaluation path; subclasses provide r(t) and r'(t) on arrays of t."""

    def radius_batch(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def batch(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """Positions and velocities at parameters of any shape, shape ts.shape + (2,) each."""
        ts = np.asarray(ts, dtype=float)
        r, rd = self.radius_batch(ts)
        return _polar_frame(r, rd, np.cos(ts), np.sin(ts))


def _polar_frame(r, rd, ct, st) -> tuple[np.ndarray, np.ndarray]:
    """Positions and velocities of a polar graph from r, r' and cos t, sin t."""
    points = np.stack([r * ct, r * st], axis=-1)
    velocities = np.stack([rd * ct - r * st, rd * st + r * ct], axis=-1)
    return points, velocities


@dataclasses.dataclass(frozen=True)
class Circle(_PolarCurve):
    """Origin-centered circle of Euclidean radius a, 0 < a < 1."""

    a: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        require_radius(self.a)

    def radius_batch(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.full(ts.shape, self.a), np.zeros(ts.shape)


@dataclasses.dataclass(frozen=True)
class PolarFourierCurve(_PolarCurve):
    """r(t) = a0 + sum_k (c_k cos kt + s_k sin kt), k = 1..K.

    Construction only fixes the coefficient data; whether the curve stays
    inside the disc with nonvanishing speed is the job of check_admissible
    (the inadmissible cases must be representable to be rejected).
    """

    a0: float
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "a0", float(self.a0))
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(c) for c in self.sin_coeffs))
        if len(self.cos_coeffs) != len(self.sin_coeffs):
            raise DomainError(
                f"coefficient lists must share one harmonic cutoff, got lengths "
                f"{len(self.cos_coeffs)} and {len(self.sin_coeffs)}"
            )

    @property
    def harmonics(self) -> int:
        return len(self.cos_coeffs)

    def radius_batch(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # cos kt and sin kt by angle addition from cos t and sin t, so a call
        # takes two transcendental arrays whatever the harmonic count
        c1, s1 = np.cos(ts), np.sin(ts)
        c, s = c1, s1
        r = np.full(ts.shape, self.a0)
        rd = np.zeros(ts.shape)
        for k in range(self.harmonics):
            if k:
                c, s = c * c1 - s * s1, s * c1 + c * s1
            w = k + 1
            r += self.cos_coeffs[k] * c + self.sin_coeffs[k] * s
            rd += w * (self.sin_coeffs[k] * c - self.cos_coeffs[k] * s)
        return r, rd

    def with_base_radius(self, a0: float) -> "PolarFourierCurve":
        return PolarFourierCurve(a0, self.cos_coeffs, self.sin_coeffs)


def check_admissible(curve: _PolarCurve) -> bool:
    """True iff r(t) in (margin, 1 - margin) and |velocity| > margin on the grid."""
    ts = TWO_PI * np.arange(_ADMISSIBLE_GRID) / _ADMISSIBLE_GRID
    r, rd = curve.radius_batch(ts)
    margin = _ADMISSIBLE_MARGIN
    if not (np.all(r > margin) and np.all(r < 1.0 - margin)):
        return False
    return bool(np.all(r * r + rd * rd > margin * margin))


def require_admissible(curve: _PolarCurve) -> None:
    if not check_admissible(curve):
        raise VerificationError(f"curve {curve!r} leaves the admissible polar-graph class")
