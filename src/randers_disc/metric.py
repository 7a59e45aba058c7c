"""Randers metric on the Poincare disc.

The base Riemannian structure is the hyperbolic disc metric
a_ij = 4 delta_ij / (1 - r^2)^2 (curvature -1) and the drift one-form is
the differential of the radial potential f = b log((1+r)/(1-r)), scaled so
that its alpha-norm equals b at every point.  F = alpha + beta is a Randers
norm for every 0 <= b < 1.

Points and vectors have shape (..., 2), every function broadcasts over
the leading axes, and tensors come back as arrays indexed on trailing axes.
"""
from __future__ import annotations

import numpy as np

from .config import RandersConfig
from .errors import DomainError, VerificationError
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
    if q.shape[-1:] != (2,):
        raise DomainError(f"point must have two coordinates, got shape {q.shape}")
    # negated so that a NaN coordinate is rejected too
    outside = ~(q[..., 0] * q[..., 0] + q[..., 1] * q[..., 1] < 1.0)
    if np.any(outside):
        raise DomainError(f"point {q[outside][0].tolist()} lies outside the open unit disc")
    return q


def _as_vector(v) -> np.ndarray:
    w = np.asarray(v, dtype=float)
    if w.shape[-1:] != (2,):
        raise DomainError(f"vector must have two components, got shape {w.shape}")
    nonfinite = ~np.all(np.isfinite(w), axis=-1)
    if np.any(nonfinite):
        raise DomainError(f"vector {w[nonfinite][0].tolist()} has a non-finite component")
    if np.any((w[..., 0] == 0.0) & (w[..., 1] == 0.0)):
        raise DomainError("zero vector is outside the metric's domain")
    return w


def _drift_radius(q: np.ndarray) -> np.ndarray:
    """r = |q|, where the drift direction x/r must exist."""
    r = np.hypot(q[..., 0], q[..., 1])
    if np.any(r < _ORIGIN_RADIUS):
        raise DomainError("drift covector has no continuous extension at the origin")
    return r


def beta_covector(p, cfg: RandersConfig) -> np.ndarray:
    """Drift covector b_i = 2b x_i / ((1 - r^2) r); identically zero when b = 0."""
    q = _as_point(p)
    if cfg.b == 0.0:
        return np.zeros(q.shape)
    r = _drift_radius(q)
    return 2.0 * cfg.b * q / ((1.0 - r * r) * r)[..., None]


def potential(p, cfg: RandersConfig) -> np.ndarray:
    """Radial potential with beta = df."""
    q = _as_point(p)
    r = np.hypot(q[..., 0], q[..., 1])
    return cfg.b * np.log((1.0 + r) / (1.0 - r))


def finsler_norm(p, v, cfg: RandersConfig) -> np.ndarray:
    """F = alpha + beta; positive for v != 0 whenever b < 1.

    beta is left out when b = 0, where its formula fails at the origin.
    """
    q = _as_point(p)
    w = _as_vector(v)
    x1, x2 = q[..., 0], q[..., 1]
    v1, v2 = w[..., 0], w[..., 1]
    r2 = x1 * x1 + x2 * x2
    s = 1.0 - r2
    alpha = 2.0 * np.hypot(v1, v2) / s
    if cfg.b == 0.0:
        return alpha
    _drift_radius(q)
    return alpha + 2.0 * cfg.b * (x1 * v1 + x2 * v2) / (s * np.sqrt(r2))


def christoffel(p) -> np.ndarray:
    """Christoffel symbols of alpha, shape (..., 2, 2, 2): [..., k, i, j] is gamma^k_ij."""
    q = _as_point(p)
    x1, x2 = q[..., 0], q[..., 1]
    c = 2.0 / (1.0 - x1 * x1 - x2 * x2)
    symbols = [[[x1, x2], [x2, -x1]], [[-x2, x1], [x1, x2]]]
    return np.moveaxis(c * np.array(symbols), (0, 1, 2), (-3, -2, -1))


def fundamental_tensor(p, v, cfg: RandersConfig) -> np.ndarray:
    """Velocity Hessian g_ij of F^2/2, shape (..., 2, 2), by central
    differences at step 1e-4*|v|.

    Validated by the contraction identity v^i v^j g_ij = F^2; positive
    definiteness is checked and a failure signals step misconfiguration.
    """
    q = _as_point(p)
    w = _as_vector(v)
    h = _TENSOR_REL_STEP * np.hypot(w[..., 0], w[..., 1])

    def half_f2(s1, s2) -> np.ndarray:
        moved = np.stack(np.broadcast_arrays(w[..., 0] + s1, w[..., 1] + s2), axis=-1)
        val = finsler_norm(q, moved, cfg)
        return 0.5 * val * val

    g11 = fd.d2_central(lambda s: half_f2(s, 0.0), 0.0, h)
    g22 = fd.d2_central(lambda s: half_f2(0.0, s), 0.0, h)
    g12 = fd.mixed_2nd(half_f2, 0.0, 0.0, h, h)
    indefinite = ~((g11 > 0.0) & (g11 * g22 - g12 * g12 > 0.0))
    if np.any(indefinite):
        qb, wb = np.broadcast_arrays(q, w)
        raise VerificationError(
            "fundamental tensor lost positive definiteness at "
            f"p={qb[indefinite][0].tolist()}, v={wb[indefinite][0].tolist()}"
        )
    return np.stack([np.stack([g11, g12], axis=-1), np.stack([g12, g22], axis=-1)], axis=-2)


def _position_gradient(f, q: np.ndarray) -> np.ndarray:
    """Central differences of f along x^1 and x^2, stacked on a new last axis."""
    return np.stack(
        [fd.d1_central(lambda h, e=e: f(q + h * e), 0.0, _POSITION_STEP) for e in np.eye(2)], axis=-1
    )


def yasuda_shimada_residual(p, cfg: RandersConfig) -> np.ndarray:
    """Residual R_ij = db_i/dx^j - b_k gamma^k_ij - 2 (a_ij - b_i b_j), shape (..., 2, 2).

    A nonzero matrix certifies that the metric does not have constant
    negative flag curvature.  The test degenerates in the Riemannian case,
    so b = 0 is a domain error; the covector differencing also degrades
    like step^2/r^3, so points within r < 0.01 are rejected.
    """
    q = _as_point(p)
    if cfg.b == 0.0:
        raise DomainError("flag-curvature residual test requires b > 0 (Riemannian case excluded)")
    r = np.hypot(q[..., 0], q[..., 1])
    if np.any(r < 0.01):
        raise DomainError("flag-curvature residual is unreliable near the origin (r < 0.01)")

    jac = _position_gradient(lambda x: beta_covector(x, cfg), q)
    bcov = beta_covector(q, cfg)
    gam = christoffel(q)
    s = 1.0 - r * r
    a_ij = (4.0 / (s * s))[..., None, None] * np.eye(2)
    b1, b2 = bcov[..., 0, None, None], bcov[..., 1, None, None]
    outer = bcov[..., :, None] * bcov[..., None, :]
    return jac - b1 * gam[..., 0, :, :] - b2 * gam[..., 1, :, :] - _LAMBDA_YS * (a_ij - outer)


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
    beta = beta_covector(points, cfg)
    s = 1.0 - (points[:, 0] * points[:, 0] + points[:, 1] * points[:, 1])
    norm_dev = float(np.max(np.abs(0.5 * s * np.hypot(beta[:, 0], beta[:, 1]) - cfg.b)))
    grad = _position_gradient(lambda x: potential(x, cfg), points)
    grad_dev = float(np.max(np.abs(grad - beta)))
    if cfg.b == 0.0:
        ys_max = None
        ys_note = "skipped (Riemannian case)"
        ys_ok = True
    else:
        ys_max = float(np.max(np.abs(yasuda_shimada_residual(points, cfg))))
        ys_note = f"max residual entry over {len(points)} grid points"
        ys_ok = ys_max > _YS_FLOOR
    return {
        "norm_deviation_max": norm_dev,
        "gradient_mismatch_max": grad_dev,
        "yasuda_shimada_max": ys_max,
        "yasuda_shimada_note": ys_note,
        "pass": bool(norm_dev <= _NORM_TOL and grad_dev <= _GRAD_TOL and ys_ok),
    }
