"""Closed curves in the disc as polar graphs gamma(t) = r(t)(cos t, sin t).

Polar graphs are automatically simple and positively oriented, and they
carry exact analytic velocities, which keeps the quadrature of the length
and area functionals spectrally accurate.  The parameter period is 2*pi.
Curves evaluate only through batch, on parameters of any shape (not
reduced modulo 2*pi), with positions and velocities on a trailing axis.
There is one curve class: radii come from one harmonic kernel that
evaluates rows of coefficients at once, a single curve is its one-row case,
and a Circle is the Fourier curve with no harmonics.

Admissibility has one rule over rows of coefficients.  Every sample of a
row satisfies |r - a0| <= M = sum_k |c_k| + |s_k|, and |velocity| >= r, so
a row with a0 - M > 2*margin and a0 + M < 1 - 2*margin is admissible on
every node; the spare margin absorbs roundoff in r.  Only rows this
coefficient bound cannot clear (a NaN bound clears nothing) are sampled
on the 4096-node grid.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import DomainError, VerificationError

TWO_PI = 2.0 * math.pi

_ADMISSIBLE_GRID = 4096     # uniform samples of t in the admissibility check
_ADMISSIBLE_MARGIN = 1e-9   # distance kept from the origin, the rim and zero speed
_ADMISSIBLE_NODES = TWO_PI * np.arange(_ADMISSIBLE_GRID) / _ADMISSIBLE_GRID
_ADMISSIBLE_NODES.setflags(write=False)


def require_radius(a: float) -> None:
    if not 0.0 < a < 1.0:
        raise DomainError(f"circle radius must lie in (0, 1), got {a}")


def _polar_frame(r, rd, ct, st) -> tuple[np.ndarray, np.ndarray]:
    """Positions and velocities of a polar graph from r, r' and cos t, sin t."""
    points = np.stack([r * ct, r * st], axis=-1)
    velocities = np.stack([rd * ct - r * st, rd * st + r * ct], axis=-1)
    return points, velocities


def _harmonic_basis(ts: np.ndarray, harmonics: int) -> tuple[np.ndarray, np.ndarray]:
    """cos kt and sin kt for k = 1..max(harmonics, 1), shape (K,) + ts.shape each.

    Built by angle addition from cos t and sin t, so a grid takes two
    transcendental arrays whatever the harmonic count; row 0 is cos t, sin t.
    """
    c1, s1 = np.cos(ts), np.sin(ts)
    cos_k = np.empty((max(harmonics, 1),) + ts.shape)
    sin_k = np.empty_like(cos_k)
    cos_k[0], sin_k[0] = c1, s1
    for k in range(1, harmonics):
        cos_k[k] = cos_k[k - 1] * c1 - sin_k[k - 1] * s1
        sin_k[k] = sin_k[k - 1] * c1 + cos_k[k - 1] * s1
    return cos_k, sin_k


def _radius_rows(a0: np.ndarray, cos_coeffs: np.ndarray, sin_coeffs: np.ndarray,
                 basis: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """r and r' of polar Fourier rows on the grid of basis, shape (rows,) + grid shape each.

    Row i has base radius a0[i] and coefficients cos_coeffs[i], sin_coeffs[i]
    (shape (rows, K)); the harmonics are summed in order k = 1..K, so a row
    comes out the same whatever rows share its call.
    """
    cos_k, sin_k = basis
    column = (slice(None),) + (None,) * (cos_k.ndim - 1)
    r = np.empty((len(a0),) + cos_k.shape[1:])
    r[...] = a0[column]
    rd = np.zeros(r.shape)
    for k in range(cos_coeffs.shape[1]):
        c, s = cos_k[k], sin_k[k]
        ck, sk = cos_coeffs[:, k][column], sin_coeffs[:, k][column]
        r += ck * c + sk * s
        rd += (k + 1) * (sk * c - ck * s)
    return r, rd


@dataclasses.dataclass(frozen=True)
class PolarFourierCurve:
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

    def _radius_on(self, basis: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """r and r' on the grid of a harmonic basis: the kernel's one-row case."""
        r, rd = _radius_rows(np.array([self.a0]), np.array([self.cos_coeffs]),
                             np.array([self.sin_coeffs]), basis)
        return r[0, ...], rd[0, ...]

    def radius_batch(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._radius_on(_harmonic_basis(ts, self.harmonics))

    def batch(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """Positions and velocities at parameters of any shape, shape ts.shape + (2,) each."""
        # cos t and sin t come back from the basis the radius is built on
        cos_k, sin_k = basis = _harmonic_basis(np.asarray(ts, dtype=float), self.harmonics)
        return _polar_frame(*self._radius_on(basis), cos_k[0, ...], sin_k[0, ...])

    def with_base_radius(self, a0: float) -> "PolarFourierCurve":
        return PolarFourierCurve(a0, self.cos_coeffs, self.sin_coeffs)


class Circle(PolarFourierCurve):
    """Origin-centered circle of Euclidean radius a, 0 < a < 1: no harmonics."""

    def __init__(self, a: float):
        super().__init__(a)
        require_radius(self.a0)

    @property
    def a(self) -> float:
        return self.a0

    def __repr__(self) -> str:
        return f"Circle(a={self.a!r})"


def _admissible_rows(r: np.ndarray, rd: np.ndarray) -> np.ndarray:
    """Per row of samples: r in (margin, 1 - margin) and |velocity| > margin throughout."""
    margin = _ADMISSIBLE_MARGIN
    inside = np.all(r > margin, axis=-1) & np.all(r < 1.0 - margin, axis=-1)
    return inside & np.all(r * r + rd * rd > margin * margin, axis=-1)


def _coefficient_bound(cos_coeffs: np.ndarray, sin_coeffs: np.ndarray) -> np.ndarray:
    """M = sum_k |c_k| + sum_k |s_k| of each row, a bound on |r - a0| at every t.

    Each sum runs left to right from k = 1, as a plain Python sum does
    (numpy's sum pairs terms from eight on), so M has the same bits in the
    draw check, in the matcher's bracket and in a one-curve reference.
    """
    def total(coeffs):
        m = np.zeros(len(coeffs))
        for k in range(coeffs.shape[1]):
            m = m + np.abs(coeffs[:, k])
        return m

    return total(cos_coeffs) + total(sin_coeffs)


@functools.lru_cache(maxsize=4)
def _admissible_basis(harmonics: int) -> tuple[np.ndarray, np.ndarray]:
    """The harmonic basis on the admissibility grid, read-only."""
    basis = _harmonic_basis(_ADMISSIBLE_NODES, harmonics)
    for part in basis:
        part.setflags(write=False)
    return basis


def _bound_clears(a0: np.ndarray, cos_coeffs: np.ndarray, sin_coeffs: np.ndarray) -> np.ndarray:
    """Per row: a0 - M > 2*margin and a0 + M < 1 - 2*margin, so every node is admissible."""
    bound = _coefficient_bound(cos_coeffs, sin_coeffs)
    slack = 2.0 * _ADMISSIBLE_MARGIN
    return (a0 - bound > slack) & (a0 + bound < 1.0 - slack)


def _admissible(a0: np.ndarray, cos_coeffs: np.ndarray, sin_coeffs: np.ndarray) -> np.ndarray:
    """Per row: admissible by the coefficient bound, or else on the sampled grid."""
    ok = _bound_clears(a0, cos_coeffs, sin_coeffs)
    rest = np.flatnonzero(~ok)
    if len(rest):
        basis = _admissible_basis(cos_coeffs.shape[1])
        ok[rest] = _admissible_rows(*_radius_rows(a0[rest], cos_coeffs[rest], sin_coeffs[rest], basis))
    return ok


def check_admissible(curve: PolarFourierCurve) -> bool:
    """True iff r(t) in (margin, 1 - margin) and |velocity| > margin on the grid.

    A curve the coefficient bound clears is admissible without sampling.
    """
    return bool(_admissible(np.array([curve.a0]), np.array([curve.cos_coeffs]), np.array([curve.sin_coeffs])))


def require_admissible(curve: PolarFourierCurve) -> None:
    if not check_admissible(curve):
        raise VerificationError(f"curve {curve!r} leaves the admissible polar-graph class")
