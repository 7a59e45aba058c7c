"""Closed curves in the disc as polar graphs gamma(t) = r(t)(cos t, sin t).

Polar graphs are automatically simple and positively oriented, and they
carry exact analytic velocities, which keeps the quadrature of the length
and area functionals spectrally accurate.  The parameter period is 2*pi.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import AdmissibilityError, DomainError

TWO_PI = 2.0 * math.pi

_ADMISSIBLE_GRID = 4096     # uniform samples of t in the admissibility check
_ADMISSIBLE_MARGIN = 1e-9   # distance kept from the origin, the rim and zero speed


def reduce_parameter(t: float) -> float:
    """Map t into [0, 2*pi); exact for exact multiples (fmod is exact)."""
    u = math.fmod(t, TWO_PI)
    return u + TWO_PI if u < 0.0 else u


@dataclasses.dataclass(frozen=True)
class CurveSample:
    t: float
    point: np.ndarray
    velocity: np.ndarray


class _PolarCurve:
    """Shared evaluation path; subclasses provide r(t) and r'(t) on arrays of t."""

    def radius_batch(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def eval(self, t: float) -> CurveSample:
        tr = reduce_parameter(t)
        point, velocity = self.batch(tr)
        if not velocity.any():
            raise AdmissibilityError(f"velocity vanishes at t={tr}")
        return CurveSample(tr, point, velocity)

    def batch(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """Positions and velocities at parameters of any shape, shape ts.shape + (2,) each."""
        ts = np.asarray(ts, dtype=float)
        r, rd = self.radius_batch(ts)
        ct, st = np.cos(ts), np.sin(ts)
        points = np.stack([r * ct, r * st], axis=-1)
        velocities = np.stack([rd * ct - r * st, rd * st + r * ct], axis=-1)
        return points, velocities


@dataclasses.dataclass(frozen=True)
class Circle(_PolarCurve):
    """Origin-centered circle of Euclidean radius a, 0 < a < 1."""

    a: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        if not 0.0 < self.a < 1.0:
            raise DomainError(f"circle radius must lie in (0, 1), got {self.a}")

    def radius_batch(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.full(ts.shape, self.a), np.zeros(ts.shape)

    def to_dict(self) -> dict:
        return {"kind": "circle", "a0": self.a, "cos_coeffs": [], "sin_coeffs": []}


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
        r = np.full(ts.shape, self.a0)
        rd = np.zeros(ts.shape)
        for k in range(self.harmonics):
            w = k + 1
            c, s = np.cos(w * ts), np.sin(w * ts)
            r = r + self.cos_coeffs[k] * c + self.sin_coeffs[k] * s
            rd = rd + w * (self.sin_coeffs[k] * c - self.cos_coeffs[k] * s)
        return r, rd

    def with_base_radius(self, a0: float) -> "PolarFourierCurve":
        return PolarFourierCurve(a0, self.cos_coeffs, self.sin_coeffs)

    def rotated(self, phi: float) -> "PolarFourierCurve":
        """Parameter shift t -> t + phi expressed back in coefficients."""
        cos_c, sin_c = [], []
        for k in range(self.harmonics):
            w = (k + 1) * phi
            cw, sw = math.cos(w), math.sin(w)
            cos_c.append(self.cos_coeffs[k] * cw + self.sin_coeffs[k] * sw)
            sin_c.append(-self.cos_coeffs[k] * sw + self.sin_coeffs[k] * cw)
        return PolarFourierCurve(self.a0, tuple(cos_c), tuple(sin_c))

    def to_dict(self) -> dict:
        return {
            "kind": "polar_fourier",
            "a0": self.a0,
            "cos_coeffs": list(self.cos_coeffs),
            "sin_coeffs": list(self.sin_coeffs),
        }


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
        raise AdmissibilityError(f"curve {curve!r} leaves the admissible polar-graph class")
