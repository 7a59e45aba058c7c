"""Randers metric on the Poincare disc.

The base Riemannian structure is the hyperbolic disc metric
a_ij = 4 delta_ij / (1 - r^2)^2 (curvature -1) and the drift one-form is
the differential of the radial potential f = b log((1+r)/(1-r)), scaled so
that its alpha-norm equals b at every point.  F = alpha + beta is a Randers
norm for every 0 <= b < 1.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .config import RandersConfig
from .errors import DomainError, NumericalError
from . import fd

# Yasuda-Shimada curvature parameter: alpha has sectional curvature -1 = -(lam/2)^2
_LAMBDA_YS = 2.0

# the drift covector direction x/r is not continuous at the origin
_ORIGIN_RADIUS = 1e-15

_TENSOR_REL_STEP = 1e-4   # velocity step of fundamental_tensor, relative to |v|
_POSITION_STEP = 1e-6     # point step of the covector Jacobian and the potential gradient

# check_metric thresholds
_YS_FLOOR = 0.1        # non-flatness floor for the max Yasuda-Shimada entry
_NORM_TOL = 1e-12      # drift one-form norm deviation allowed on the grid
_GRAD_TOL = 1e-8       # potential-gradient mismatch allowed (central differences)


def _as_point(p) -> np.ndarray:
    q = np.asarray(p, dtype=float)
    if q.shape != (2,):
        raise DomainError(f"point must have two coordinates, got shape {q.shape}")
    if q[0] * q[0] + q[1] * q[1] >= 1.0:
        raise DomainError(f"point {q.tolist()} lies outside the open unit disc")
    return q


def _as_vector(v, *, nonzero: bool = True) -> np.ndarray:
    w = np.asarray(v, dtype=float)
    if w.shape != (2,):
        raise DomainError(f"vector must have two components, got shape {w.shape}")
    if nonzero and w[0] == 0.0 and w[1] == 0.0:
        raise DomainError("zero vector is outside the metric's domain")
    return w


def alpha_norm(p, v) -> float:
    """Hyperbolic norm 2|v| / (1 - r^2)."""
    q = _as_point(p)
    w = _as_vector(v)
    return 2.0 * math.hypot(w[0], w[1]) / (1.0 - q[0] * q[0] - q[1] * q[1])


def beta_covector(p, cfg: RandersConfig) -> np.ndarray:
    """Drift covector b_i = 2b x_i / ((1 - r^2) r); identically zero when b = 0."""
    q = _as_point(p)
    if cfg.b == 0.0:
        return np.zeros(2)
    r = math.hypot(q[0], q[1])
    if r < _ORIGIN_RADIUS:
        raise DomainError("drift covector has no continuous extension at the origin")
    return 2.0 * cfg.b * q / ((1.0 - r * r) * r)


def beta_value(p, v, cfg: RandersConfig) -> float:
    """beta evaluated on a tangent vector."""
    if cfg.b == 0.0:
        _as_point(p)
        return 0.0
    w = _as_vector(v, nonzero=False)
    cov = beta_covector(p, cfg)
    return float(cov @ w)


def potential(p, cfg: RandersConfig) -> float:
    """Radial potential with beta = df."""
    q = _as_point(p)
    r = math.hypot(q[0], q[1])
    return cfg.b * math.log((1.0 + r) / (1.0 - r))


def finsler_norm(p, v, cfg: RandersConfig) -> float:
    """F = alpha + beta; positive for v != 0 whenever b < 1."""
    return alpha_norm(p, v) + beta_value(p, v, cfg)


def sigma_alpha(p) -> float:
    """Riemannian area density 4 / (1 - r^2)^2."""
    q = _as_point(p)
    s = 1.0 - q[0] * q[0] - q[1] * q[1]
    return 4.0 / (s * s)


def volume_density(p, cfg: RandersConfig) -> float:
    """kappa(form, b) * sigma_alpha(p)."""
    return cfg.kappa * sigma_alpha(p)


@dataclasses.dataclass(frozen=True)
class ChristoffelSymbols:
    """gamma1[i][j] = gamma^1_ij, gamma2[i][j] = gamma^2_ij."""

    gamma1: np.ndarray
    gamma2: np.ndarray


def christoffel(p) -> ChristoffelSymbols:
    q = _as_point(p)
    x1, x2 = q
    c = 2.0 / (1.0 - x1 * x1 - x2 * x2)
    g1 = c * np.array([[x1, x2], [x2, -x1]])
    g2 = c * np.array([[-x2, x1], [x1, x2]])
    return ChristoffelSymbols(g1, g2)


@dataclasses.dataclass(frozen=True)
class FundamentalTensor:
    g11: float
    g12: float
    g22: float

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.g11, self.g12], [self.g12, self.g22]])

    def contract(self, v) -> float:
        w = np.asarray(v, dtype=float)
        return float(w @ self.matrix @ w)


def fundamental_tensor(p, v, cfg: RandersConfig) -> FundamentalTensor:
    """Velocity Hessian of F^2/2 by central differences at step 1e-4*|v|.

    Validated by the contraction identity v^i v^j g_ij = F^2; positive
    definiteness is checked and a failure signals step misconfiguration.
    """
    q = _as_point(p)
    w = _as_vector(v)
    h = _TENSOR_REL_STEP * math.hypot(w[0], w[1])

    def half_f2(v1: float, v2: float) -> float:
        val = finsler_norm(q, (v1, v2), cfg)
        return 0.5 * val * val

    g11 = fd.d2_central(lambda s: half_f2(w[0] + s, w[1]), 0.0, h)
    g22 = fd.d2_central(lambda s: half_f2(w[0], w[1] + s), 0.0, h)
    g12 = fd.mixed_2nd(lambda s, u: half_f2(w[0] + s, w[1] + u), 0.0, 0.0, h, h)
    if not (g11 > 0.0 and g11 * g22 - g12 * g12 > 0.0):
        raise NumericalError(
            f"fundamental tensor lost positive definiteness at p={q.tolist()}, v={w.tolist()}"
        )
    return FundamentalTensor(g11, g12, g22)


def yasuda_shimada_residual(p, cfg: RandersConfig) -> np.ndarray:
    """Residual R_ij = db_i/dx^j - b_k gamma^k_ij - 2 (a_ij - b_i b_j).

    A nonzero matrix certifies that the metric does not have constant
    negative flag curvature.  The test degenerates in the Riemannian case,
    so b = 0 is a domain error; the covector differencing also degrades
    like step^2/r^3, so points within r < 0.01 are rejected.
    """
    q = _as_point(p)
    if cfg.b == 0.0:
        raise DomainError("flag-curvature residual test requires b > 0 (Riemannian case excluded)")
    r = math.hypot(q[0], q[1])
    if r < 0.01:
        raise DomainError("flag-curvature residual is unreliable near the origin (r < 0.01)")

    jac = np.empty((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = _POSITION_STEP
        jac[:, j] = (beta_covector(q + e, cfg) - beta_covector(q - e, cfg)) / (2.0 * _POSITION_STEP)

    bcov = beta_covector(q, cfg)
    gam = christoffel(q)
    s = 1.0 - r * r
    a_ij = (4.0 / (s * s)) * np.eye(2)
    return jac - bcov[0] * gam.gamma1 - bcov[1] * gam.gamma2 - _LAMBDA_YS * (a_ij - np.outer(bcov, bcov))


def disc_grid() -> np.ndarray:
    """Deterministic (200, 2) sample grid: 10 radii in [0.1, 0.9] times 20
    angles; angle 0 keeps axis points."""
    radii = np.linspace(0.1, 0.9, 10)
    angles = 2.0 * np.pi * np.arange(20) / 20
    rr, aa = np.meshgrid(radii, angles, indexing="ij")
    return np.column_stack([(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()])


def check_metric(cfg: RandersConfig) -> dict:
    """Worst deviations over disc_grid: the drift's alpha-norm from b, and
    beta from df; and the metric is not of constant flag curvature.

    Keys: norm_deviation_max, gradient_mismatch_max, yasuda_shimada_max
    (None when b = 0, where that test degenerates and is skipped),
    yasuda_shimada_note and pass.
    """
    points = disc_grid()
    norm_dev = 0.0
    grad_dev = 0.0
    for p in points:
        beta = beta_covector(p, cfg)
        s = 1.0 - float(p @ p)
        alpha_norm_beta = 0.5 * s * math.hypot(beta[0], beta[1])
        norm_dev = max(norm_dev, abs(alpha_norm_beta - cfg.b))
        for i in range(2):
            def f_along(h: float, i=i, p=p) -> float:
                q = p.copy()
                q[i] += h
                return potential(q, cfg)

            grad_i = fd.d1_central(f_along, 0.0, _POSITION_STEP)
            grad_dev = max(grad_dev, abs(grad_i - beta[i]))
    if cfg.b == 0.0:
        ys_max = None
        ys_note = "skipped (Riemannian case)"
        ys_ok = True
    else:
        ys_max = max(float(np.max(np.abs(yasuda_shimada_residual(p, cfg)))) for p in points)
        ys_note = f"max residual entry over {len(points)} grid points"
        ys_ok = ys_max > _YS_FLOOR
    return {
        "norm_deviation_max": norm_dev,
        "gradient_mismatch_max": grad_dev,
        "yasuda_shimada_max": ys_max,
        "yasuda_shimada_note": ys_note,
        "pass": bool(norm_dev <= _NORM_TOL and grad_dev <= _GRAD_TOL and ys_ok),
    }
