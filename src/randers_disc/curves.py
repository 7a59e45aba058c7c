"""Closed curves in the disc as polar graphs gamma(t) = r(t)(cos t, sin t).

Polar graphs are automatically simple and positively oriented, and they
carry exact analytic velocities, which keeps the quadrature of the length
and area functionals spectrally accurate.  The parameter period is 2*pi.
Curves evaluate only through batch, on parameters of any shape (not
reduced modulo 2*pi), with positions and velocities on a trailing axis.
There is one curve class: radii come from one harmonic kernel that
evaluates rows of coefficients at once, a single curve is its one-row case,
and a Circle is the Fourier curve with no harmonics.

Admissibility has one rule, decided on the n uniform quadrature nodes.
Write r = a0 + p.  Between nodes p exceeds its node extremes by at most
(h^2/8) sum_k k^2 (|c_k| + |s_k|), h = 2*pi/n: at an interior extremum
p' = 0, some node lies within h/2 of it, and |p''| is at most that sum
(the grid-excursion argument of Ehlich & Zeller, Math. Z. 86, 1964).
With that slack and the margin added, a row of coefficients has the
base-radius interval lo = slack - min p, hi = 1 - slack - max p over the
nodes, and it is admissible at a0 iff lo < a0 < hi: then r stays in
(margin, 1 - margin) at every t, and |velocity| >= r covers the speed.
A NaN coefficient makes p NaN, and the interval admits nothing.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError, VerificationError

TWO_PI = 2.0 * math.pi

_ADMISSIBLE_MARGIN = 1e-9   # distance kept from the origin and the rim


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
    """r = a0 + p and r' = p' of polar Fourier rows on the grid of basis, shape (rows,) + grid shape each.

    Row i has base radius a0[i] and coefficients cos_coeffs[i], sin_coeffs[i]
    (shape (rows, K)).  The harmonics are summed into p in order k = 1..K and
    a0 is added last, so r has the bits of a0 + p whatever a0 is, and a row
    comes out the same whatever rows share its call.
    """
    cos_k, sin_k = basis
    column = (slice(None),) + (None,) * (cos_k.ndim - 1)
    p = np.zeros((len(a0),) + cos_k.shape[1:])
    rd = np.zeros(p.shape)
    for k in range(cos_coeffs.shape[1]):
        c, s = cos_k[k], sin_k[k]
        ck, sk = cos_coeffs[:, k][column], sin_coeffs[:, k][column]
        p += ck * c + sk * s
        rd += (k + 1) * (sk * c - ck * s)
    return a0[column] + p, rd


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


def _base_interval(p: np.ndarray, cos_coeffs: np.ndarray, sin_coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's admissible base radii (lo, hi): r = a0 + p is admissible iff lo < a0 < hi.

    p holds each row's samples on n uniform nodes of one period (shape
    (rows, n)), and cos_coeffs, sin_coeffs its coefficients (shape (rows, K)).
    """
    h = TWO_PI / p.shape[-1]
    ks = np.arange(1, cos_coeffs.shape[-1] + 1)
    bend = np.sum(ks * ks * (np.abs(cos_coeffs) + np.abs(sin_coeffs)), axis=-1)
    slack = h * h / 8.0 * bend + _ADMISSIBLE_MARGIN
    return slack - p.min(axis=-1), 1.0 - slack - p.max(axis=-1)


def _node_samples(curve: PolarFourierCurve, grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray, bool]:
    """r and r' of a curve on the nodes of grid, and whether its base radius lies in its interval there."""
    cos_c, sin_c = np.array([curve.cos_coeffs]), np.array([curve.sin_coeffs])
    p, pd = _radius_rows(np.zeros(1), cos_c, sin_c, _harmonic_basis(grid.nodes, curve.harmonics))
    lo, hi = _base_interval(p, cos_c, sin_c)
    return curve.a0 + p[0], pd[0], bool(lo[0] < curve.a0 < hi[0])


def _admissible_samples(curve: PolarFourierCurve, grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray]:
    """r and r' of an admissible curve on the nodes of grid; VerificationError if it is not admissible there."""
    r, rd, admissible = _node_samples(curve, grid)
    if not admissible:
        raise VerificationError(f"curve {curve!r} leaves the admissible polar-graph class")
    return r, rd


def check_admissible(curve: PolarFourierCurve) -> bool:
    """True iff a0 lies in the curve's base-radius interval on the default grid's nodes.

    Then r(t) stays in (margin, 1 - margin) at every t, and so does
    |velocity| >= r above the margin.
    """
    return _node_samples(curve, QuadratureGrid())[2]
