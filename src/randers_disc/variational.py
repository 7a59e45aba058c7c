"""Sufficiency certificate for candidate circles in the isoperimetric problem.

The constrained Lagrangian is h = f + lam*g, where f is the Green-form area
integrand of the chosen volume form and g the hyperbolic length integrand.
The drift one-form integrates to zero over closed curves and drops out of
every variational quantity, so g carries only the alpha part.

A circle passes when, with its multiplier lam = -2 a kappa/(1 + a^2):
  (i)   the Euler-Lagrange residual vanishes along the curve,
  (ii)  the constraint gradient (P1, P2) never vanishes (normality),
  (iii) the Weierstrass excess is negative off the tangent direction,
  (iv)  the second variation, one symmetric matrix on a windowed trigonometric
        basis, is negative on random probes projected onto the linearized
        length constraint, and the Jacobi determinant D(c) has no interior
        zero over one period,
  (v)   the velocity Hessian of h is negative off the tangent direction.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .config import RandersConfig
from .curves import TWO_PI, Circle, PolarFourierCurve, require_radius
from .errors import DomainError, VerificationError
from .functionals import QuadratureGrid
from . import fd

_CHART_COS_MIN = 0.1          # |xdot2|/a floor for the x1-variation chart
_TANGENT_CONE = 1e-3          # rad; excess/Hessian equality cone around the tangent
_TIME_STEP = 1e-5             # central-difference step in t for d/dt in EL and normality
_HESS_REL_STEP = 2e-3         # velocity step of the 5-point Hessians, relative to the speed a
_MIXED_STEP = 5e-3            # Jacobi position step, before the rim cap
_RATE_STEP = 1e-2             # Jacobi step in t for d/dt K
_ZERO_REL_TOL = 1e-10         # |D| below this fraction of max |D| counts as a zero
_MIN_GAP = 0.05               # the |D| floor skips c within this of 0 and 2*pi
_CONSISTENCY_TOL = 1e-8       # allowed relative change of D under step halving
_T_SAMPLES = 64               # certificate samples of t for the EL and normality checks

CERT_TOL = 1e-6               # default EL residual ceiling and normality floor, read by the CLI

# the certificate's fixed sizes
N_PROBES = 50                 # random second-variation probes
PROBE_HARMONICS = 6           # harmonics per component of the probe basis
VARIATION_PANELS = 1024       # trapezoid panels of the second variation (1025 nodes)
SCAN_POINTS = 512             # conjugate scan samples of c
SCAN_STEPS = 4096             # conjugate scan RK4 steps over one period

# the first note of every certificate, one shared string
_BASIS_NOTE = f"second variation probed on a finite trigonometric basis (harmonics <= {PROBE_HARMONICS})"


def lagrangian(x1, x2, v1, v2, kap: float, lam: float):
    """h = f + lam*g; accepts scalars or numpy arrays."""
    s = 1.0 - x1 * x1 - x2 * x2
    return (2.0 * kap * (x1 * v2 - x2 * v1) + 2.0 * lam * np.sqrt(v1 * v1 + v2 * v2)) / s


def lambda_for_circle(a: float, cfg: RandersConfig) -> float:
    """Multiplier of the extremal circle: -2 a kappa/(1 + a^2), negative on (0,1)."""
    require_radius(a)
    return -2.0 * a * cfg.kappa / (1.0 + a * a)


# -- Euler-Lagrange in the polar chart ---------------------------------------
#    h(r, rdot) = (2 kap r^2 + 2 lam sqrt(r^2 + rdot^2))/(1 - r^2)
#    Here and in normality, t is a scalar or an array and results take its shape.

def _dg_drdot(curve: PolarFourierCurve, ts) -> np.ndarray:
    r, rd = curve.radius_batch(ts)
    return 2.0 * rd / (np.hypot(r, rd) * (1.0 - r * r))


def _el_parts(curve: PolarFourierCurve, ts, kap: float) -> tuple[np.ndarray, np.ndarray]:
    """Residual = f_part + lam * g_part, both analytic except d/dt by differences."""
    ts = np.asarray(ts, dtype=float)
    r, rd = curve.radius_batch(ts)
    s = 1.0 - r * r
    w = np.hypot(r, rd)
    f_part = 4.0 * kap * r / (s * s)
    g_r = 2.0 * r / (w * s) + 4.0 * r * w / (s * s)
    dt_term = fd.d1_central(lambda u: _dg_drdot(curve, u), ts, _TIME_STEP)
    return f_part, g_r - dt_term


def el_residual(curve: PolarFourierCurve, kap: float, lam: float, t) -> np.ndarray:
    """Polar Euler-Lagrange residual dh/dr - d/dt dh/drdot at parameter(s) t."""
    f_part, g_part = _el_parts(curve, t, kap)
    return f_part + lam * g_part


def solve_lambda_numeric(a: float, cfg: RandersConfig) -> float:
    """Least-squares multiplier: the residual is affine in lam, so minimizing
    its L2 norm along the circle is one linear solve."""
    fs, gs = _el_parts(Circle(a), QuadratureGrid().nodes, cfg.kappa)
    denom = float(gs @ gs)
    if denom <= 0.0:
        raise VerificationError("multiplier system is singular: zero constraint response")
    return -float(fs @ gs) / denom


# -- normality ----------------------------------------------------------------

def _g_gradients(points: np.ndarray, velocities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g_x, g_v) of the length integrand g = 2|v|/(1 - |x|^2), shaped like the inputs."""
    x1, x2 = points[..., 0], points[..., 1]
    s = (1.0 - x1 * x1 - x2 * x2)[..., None]
    speed = np.hypot(velocities[..., 0], velocities[..., 1])[..., None]
    return 4.0 * points * speed / (s * s), 2.0 * velocities / (s * speed)


def normality(curve: PolarFourierCurve, t) -> tuple[np.ndarray, np.ndarray]:
    """(P1, P2) = g_x - d/dt g_v for the length constraint; must never both vanish."""
    t = np.asarray(t, dtype=float)
    gx, _ = _g_gradients(*curve.batch(t))
    p = gx - fd.d1_central(lambda u: _g_gradients(*curve.batch(u))[1], t, _TIME_STEP)
    return p[..., 0], p[..., 1]


# -- Weierstrass excess --------------------------------------------------------
#    Points, velocities and directions have shape (..., 2) and broadcast over
#    the leading axes, as does t below; results take the broadcast shape.

def _components(z) -> tuple[np.ndarray, np.ndarray]:
    z = np.asarray(z, dtype=float)
    return z[..., 0], z[..., 1]


def weierstrass_E(p, xdot, u, kap: float, lam: float) -> np.ndarray:
    """Defining excess h(p,u) - h(p,xdot) - (u - xdot) . h_v(p,xdot).

    The area term is linear in velocity and cancels; the closed form is
    weierstrass_closed, and their agreement is a core verification target.
    """
    x1, x2 = _components(p)
    v1, v2 = _components(xdot)
    u1, u2 = _components(u)
    s = 1.0 - x1 * x1 - x2 * x2
    speed = np.hypot(v1, v2)
    h_v1 = (-2.0 * kap * x2 + 2.0 * lam * v1 / speed) / s
    h_v2 = (2.0 * kap * x1 + 2.0 * lam * v2 / speed) / s
    h_u = lagrangian(x1, x2, u1, u2, kap, lam)
    h_x = lagrangian(x1, x2, v1, v2, kap, lam)
    return h_u - h_x - ((u1 - v1) * h_v1 + (u2 - v2) * h_v2)


def weierstrass_closed(p, xdot, u, lam: float) -> np.ndarray:
    """(2 lam/((1-r^2)|xdot|)) (|u||xdot| - <xdot, u>); nonpositive iff lam <= 0."""
    x1, x2 = _components(p)
    v1, v2 = _components(xdot)
    u1, u2 = _components(u)
    nx = np.hypot(v1, v2)
    return 2.0 * lam * (np.hypot(u1, u2) * nx - (v1 * u1 + v2 * u2)) / ((1.0 - x1 * x1 - x2 * x2) * nx)


# -- velocity Hessian of h ------------------------------------------------------

def h1_along(circle: Circle, kap: float, lam: float, t: float = 0.0) -> float:
    """Velocity-Hessian trace h_v1v1 + h_v2v2 at (gamma(t), gamma'(t)), as two summed forms.

    Along an extremal circle this equals 2 lam/(a (1 - a^2)), the scalar whose
    negativity rules out conjugate points; the chart coefficient of the Jacobi
    system is this value divided by |gamma'|^2 = a^2.
    """
    return float(np.sum(hessian_velocity_form(circle, kap, lam, t, np.eye(2))))


def hessian_velocity_form(circle: Circle, kap: float, lam: float, t, y) -> np.ndarray:
    """Quadratic form sum h_{v^i v^j} y^i y^j at (gamma(t), gamma'(t)).

    Evaluated as one directional second derivative along y; vanishes iff y
    is tangent to the circle, and is negative elsewhere when lam < 0.
    """
    y1, y2 = _components(y)
    ny = np.hypot(y1, y2)
    nonzero = ny != 0.0
    points, velocities = circle.batch(t)
    x1, x2 = _components(points)
    v1, v2 = _components(velocities)
    step = _HESS_REL_STEP * circle.a / np.where(nonzero, ny, 1.0)
    return np.where(nonzero, _velocity_second(x1, x2, v1, v2, y1, y2, kap, lam, step), 0.0)


def _velocity_second(x1, x2, v1, v2, y1, y2, kap: float, lam: float, step):
    """5-point second derivative of h at (x, v) along the velocity direction y."""
    return fd.d2_5pt(lambda s_: lagrangian(x1, x2, v1 + s_ * y1, v2 + s_ * y2, kap, lam), 0.0, step)


def hessian_velocity_closed(circle: Circle, lam: float, t, y) -> np.ndarray:
    """Closed form 2 lam (v2 y1 - v1 y2)^2 / ((1 - r^2) |v|^3)."""
    y1, y2 = _components(y)
    points, velocities = circle.batch(t)
    x1, x2 = _components(points)
    v1, v2 = _components(velocities)
    cross = v2 * y1 - v1 * y2
    return 2.0 * lam * cross * cross / ((1.0 - x1 * x1 - x2 * x2) * np.hypot(v1, v2) ** 3)


# -- Jacobi coefficients and the conjugate-point determinant --------------------

@dataclasses.dataclass(frozen=True, slots=True)
class JacobiCoefficients:
    """Coefficients of the Jacobi system in the x1-variation chart.

    h1, h2, U are t-independent along extremal circles; K oscillates like
    -2 kappa sin(2t)/(1 + a^2) but only its time derivative enters h2.
    """

    h1: float
    h2: float
    K: float
    U: float


def jacobi_coeffs(circle: Circle, kap: float, lam: float, t: float = 0.0) -> JacobiCoefficients:
    """Chart coefficients at parameter t (requires |cos t| >= 0.1).

    The rate d/dt K is taken with a wide 4th-order stencil (offsets up to
    2*_RATE_STEP = 0.02), so t should sit away from the chart edge by that much.
    The position step is capped at a quarter of the rim distance 1 - a, so the
    4th-order stencils (offsets up to twice the step) stay inside the disc.
    """
    if abs(math.cos(t)) < _CHART_COS_MIN:
        raise VerificationError(
            f"x1-chart is degenerate near t={t} (|cos t| < {_CHART_COS_MIN})"
        )
    a = circle.a
    hv = _HESS_REL_STEP * a
    hx = min(_MIXED_STEP, 0.25 * (1.0 - a))
    hvm = hx * a

    def kinematics(tau: float) -> list[float]:
        point, velocity = circle.batch(tau)
        return [*point.tolist(), *velocity.tolist()]

    def K_at(tau: float) -> float:
        x1, x2, v1, v2 = kinematics(tau)
        mixed = fd.mixed_4th(
            lambda sx, sv: lagrangian(x1 + sx, x2, v1 + sv, v2, kap, lam), 0.0, 0.0, hx, hvm
        )
        # -x2 is the second derivative of x^2 along the circle
        return mixed + x2 * _velocity_second(x1, x2, v1, v2, 1.0, 0.0, kap, lam, hv) / v2

    x1, x2, v1, v2 = kinematics(t)
    h1 = _velocity_second(x1, x2, v1, v2, 1.0, 0.0, kap, lam, hv) / (v2 * v2)
    K = K_at(t)
    dK = fd.d1_4th(K_at, t, _RATE_STEP)
    h_x1x1 = fd.d2_5pt(lambda s_: lagrangian(x1 + s_, x2, v1, v2, kap, lam), 0.0, hx)
    h2 = (h_x1x1 - x2 * x2 * h1 - dK) / (v2 * v2)

    # U is built from the constraint integrand g alone (kap = 0, lam = 1)
    g_x1v2 = fd.mixed_4th(
        lambda sx, sv: lagrangian(x1 + sx, x2, v1, v2 + sv, 0.0, 1.0), 0.0, 0.0, hx, hvm
    )
    g_v1x2 = fd.mixed_4th(
        lambda sv, sx: lagrangian(x1, x2 + sx, v1 + sv, v2, 0.0, 1.0), 0.0, 0.0, hvm, hx
    )
    g_v1v1 = _velocity_second(x1, x2, v1, v2, 1.0, 0.0, 0.0, 1.0, hv)
    # d/dt (v1/v2) along the circle, analytically: (a1 v2 - v1 a2)/v2^2 = -1/cos^2
    dtan = -1.0 / (math.cos(t) * math.cos(t))
    U = (g_x1v2 - g_v1x2) - g_v1v1 * dtan
    return JacobiCoefficients(h1=h1, h2=h2, K=K, U=U)


@dataclasses.dataclass(frozen=True, slots=True)
class ConjugateScanReport:
    """Verdict and margins of one conjugate scan; determinant_curve gives D(c) itself."""

    coeffs: JacobiCoefficients   # at t = 0, the coefficients the scan integrates
    zero_crossing: bool
    min_abs_D: float
    step_halving: float


def _rk4_determinants(h1: float, h2: float, U: float, n_steps: int, stride: int) -> np.ndarray:
    """Classical RK4 on the three fundamental Jacobi solutions.

    State per solution: (y, y', z, 1) with y'' = (h2 y + mu U)/h1, z' = U y and
    initial data theta1=(1,0), theta2=(0,1), theta3=(0,0) with mu = (0,0,1);
    the constant last slot carries the multiplier forcing.  The system is
    linear with constant coefficients, so one RK4 step of size H is exactly
    multiplication by R(HA) = I + HA + (HA)^2/2 + (HA)^3/6 + (HA)^4/24, and
    the solutions after i strides are columns 0, 1, 3 of P^i, P = R^stride.
    Returns D at every stride-th node from step 1 to n_steps, where
    D(c) = theta2(c) z3(c) - theta3(c) z2(c) (the 3x3 determinant with the
    initial-condition row reduced out).

    The powers P^1..P^n are built by prefix doubling: with the first m known,
    P^m times each of them gives the next m, one batched product per doubling
    (nine for n = 512).  The RK4 discretisation is the one a step-by-step loop
    integrates; only the rounding differs, because P^i is a product of powers
    grouped by the binary digits of i rather than i factors applied in turn
    (at most 1.6e-14 of max |D| on the acceptance grid and at a = 0.99, 0.999).
    """
    HA = (TWO_PI / n_steps) * np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [h2 / h1, 0.0, 0.0, U / h1],
            [U, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    eye = np.eye(4)
    R = eye
    n = n_steps // stride
    powers = np.empty((n, 4, 4))
    # coefficients from a near-zero h1 overflow; the caller rejects the non-finite result
    with np.errstate(over="ignore", invalid="ignore"):
        for k in (4.0, 3.0, 2.0, 1.0):
            R = eye + (HA @ R) / k
        powers[0] = np.linalg.matrix_power(R, stride)
        m = 1
        while m < n:
            powers[m:2 * m] = powers[m - 1] @ powers[:min(m, n - m)]
            m *= 2
        return powers[:, 0, 1] * powers[:, 2, 3] - powers[:, 0, 3] * powers[:, 2, 1]


def determinant_curve(coeffs: JacobiCoefficients, n_steps: int = SCAN_STEPS) -> tuple[np.ndarray, np.ndarray]:
    """(c, D(c)) at the SCAN_POINTS c = 2*pi*i/SCAN_POINTS, i = 1..SCAN_POINTS, by n_steps RK4 steps."""
    cs = TWO_PI * np.arange(1, SCAN_POINTS + 1) / SCAN_POINTS
    return cs, _rk4_determinants(coeffs.h1, coeffs.h2, coeffs.U, n_steps, n_steps // SCAN_POINTS)


def conjugate_scan(circle: Circle, kap: float, lam: float) -> ConjugateScanReport:
    """Scan D(0, c) for c in (0, 2*pi] and flag interior zeros or sign changes.

    D vanishes exactly at c = 2*pi (the rotation-neutral Jacobi field), and to
    fourth order at the scan start, so the |D| floor is only applied _MIN_GAP
    away from both ends; sign changes are checked on all interior pairs.
    """
    coeffs = jacobi_coeffs(circle, kap, lam, 0.0)
    check = jacobi_coeffs(circle, kap, lam, math.pi)
    for name in ("h1", "h2", "U"):
        value = getattr(coeffs, name)
        if not math.isfinite(value):
            raise VerificationError(f"Jacobi coefficient {name} = {value} is not finite")
        # written so that a NaN at t = pi fails the check too
        if not abs(getattr(check, name) - value) <= 1e-4 * abs(value):
            raise VerificationError(f"Jacobi coefficient {name} is not constant along the circle")

    cs, Ds = determinant_curve(coeffs)
    _, Ds_half = determinant_curve(coeffs, 2 * SCAN_STEPS)
    if not (np.all(np.isfinite(Ds)) and np.all(np.isfinite(Ds_half))):
        raise VerificationError("conjugate scan produced non-finite determinants")
    scale = float(np.max(np.abs(Ds)))
    if scale == 0.0:
        raise VerificationError("degenerate scan: D vanishes identically")
    step_halving = float(np.max(np.abs(Ds - Ds_half))) / scale
    if step_halving > _CONSISTENCY_TOL:
        raise VerificationError(
            f"step-halving changed D by {step_halving:.3e} relative (tol {_CONSISTENCY_TOL:.1e})"
        )

    interior = Ds[:-1]
    sign_change = bool(np.any(interior[:-1] * interior[1:] < 0.0))
    gap_mask = (cs[:-1] >= _MIN_GAP) & (cs[:-1] <= TWO_PI - _MIN_GAP)
    gapped = np.abs(interior[gap_mask])
    min_abs = float(gapped.min())
    small = bool(np.any(gapped < _ZERO_REL_TOL * scale))
    return ConjugateScanReport(
        coeffs=coeffs,
        zero_crossing=sign_change or small,
        min_abs_D=min_abs,
        step_halving=step_halving,
    )


# -- second variation ------------------------------------------------------------
#    A probe is a coefficient vector v on the window basis, component 1 then
#    component 2.  J'' is the quadratic form v . M v, and the linearized length
#    constraint the linear form ell . v; M and ell are assembled once per circle.

@functools.cache
def _variation_basis() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ts, w, B, dB) on the VARIATION_PANELS + 1 closed trapezoid nodes over [0, 2*pi].

    ts and w are the nodes and weights (the window is not periodic); B is
    sin(t/2) * [1, cos kt, sin kt (k=1..PROBE_HARMONICS)] and dB its
    t-derivative, each (13, len(ts)).  Built once and shared, so read-only.
    """
    n = VARIATION_PANELS
    ts = np.linspace(0.0, TWO_PI, n + 1)
    w = np.full(n + 1, TWO_PI / n)
    w[0] *= 0.5
    w[-1] *= 0.5
    k = np.arange(1, PROBE_HARMONICS + 1)[:, None]
    cos, sin = np.cos(k * ts), np.sin(k * ts)
    P = np.concatenate([np.ones((1, ts.size)), cos, sin])
    dP = np.concatenate([np.zeros((1, ts.size)), -k * sin, k * cos])
    win, dwin = np.sin(0.5 * ts), 0.5 * np.cos(0.5 * ts)
    basis = (ts, w, win * P, dwin * P + win * dP)
    for array in basis:
        array.flags.writeable = False
    return basis


def constraint_vector(circle: Circle) -> np.ndarray:
    """ell on each coefficient basis element: integral of g_x . y + g_v . ydot (length 26)."""
    ts, w, B, dB = _variation_basis()
    gx, gv = _g_gradients(*circle.batch(ts))
    return np.concatenate([B @ (w * gx[:, c]) + dB @ (w * gv[:, c]) for c in range(2)])


def _onto_kernel(vecs: np.ndarray, ell: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a coefficient vector, or of each row of an array, onto ker(ell)."""
    norm2 = float(ell @ ell)
    if norm2 <= 0.0:
        raise VerificationError("constraint functional vanishes on the whole probe basis")
    return vecs - np.multiply.outer(vecs @ ell / norm2, ell)


def hessian_blocks(a: float, kap: float, lam: float, ts: np.ndarray) -> np.ndarray:
    """All second partials of h along the circle, shape (4, 4, len(ts)), in closed form.

    Argument order (x1, x2, v1, v2).  With h = N/s, N = 2 kap (x1 v2 - x2 v1)
    + 2 lam |v| and s = 1 - |x|^2, the quotient rule at x = a e_r, v = a e_t,
    e_r = (cos t, sin t), e_t = (-sin t, cos t), gives
        h_xx = (8 a^2/s^2)(kap + N/s) e_r e_r^T + (2 N/s^2) I,
        h_xv = (2 kap/s) [[0, 1], [-1, 0]] + (2 N/s^2) e_r e_t^T = h_vx^T,
        h_vv = (2 lam/(a s)) e_r e_r^T.
    At the extremal multiplier kap a + lam and kap + N/s both cancel, so the
    blocks are accurate to about eps/(1 - a^2)^2 of max |H|: the conditioning
    of h itself, which any evaluation of it inherits.
    Probe-independent, so certificates compute this once.
    """
    require_radius(a)
    s = 1.0 - a * a
    n_s = 2.0 * a * (kap * a + lam) / s   # N/s on the circle
    er = np.stack([np.cos(ts), np.sin(ts)])
    rr = er[:, None] * er[None, :]
    rt = er[:, None] * np.stack([-er[1], er[0]])[None, :]
    eye, rot = np.eye(2)[:, :, None], np.array([[0.0, 1.0], [-1.0, 0.0]])[:, :, None]
    H = np.empty((4, 4, len(ts)))
    H[:2, :2] = (8.0 * a * a / (s * s)) * (kap + n_s) * rr + (2.0 * n_s / s) * eye
    H[:2, 2:] = (2.0 * kap / s) * rot + (2.0 * n_s / s) * rt
    H[2:, :2] = H[:2, 2:].transpose(1, 0, 2)
    H[2:, 2:] = (2.0 * lam / (a * s)) * rr
    return H


def second_variation_matrix(blocks: np.ndarray) -> np.ndarray:
    """Symmetric M with J''(v) = v . M v, from the (4, 4, VARIATION_PANELS + 1) blocks on the basis nodes.

    Component c of a basis field fills position slot c with the window basis
    and velocity slot 2 + c with its derivative, so the (c, d) block of M is
    the trapezoid sum of F_i (w H_ij) F_j over i in {c, 2+c}, j in {d, 2+d}.
    H is symmetric, so the (1, 0) block is the transpose of the (0, 1) block;
    the diagonal blocks are symmetric only up to rounding, hence the last step.
    """
    _, w, B, dB = _variation_basis()
    F = (B, B, dB, dB)
    m = len(B)
    M = np.empty((2 * m, 2 * m))
    for c, d in ((0, 0), (0, 1), (1, 1)):
        M[c * m:(c + 1) * m, d * m:(d + 1) * m] = sum(
            (F[i] * (w * blocks[i, j])) @ F[j].T for i in (c, 2 + c) for j in (d, 2 + d)
        )
    M[m:, :m] = M[:m, m:].T
    return 0.5 * (M + M.T)


def _quadratic_forms(vecs: np.ndarray, M: np.ndarray) -> np.ndarray:
    """v . M v for a coefficient vector, or for each row of an array."""
    return np.sum((vecs @ M) * vecs, axis=-1)


# -- the certificate --------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class ExtremalityCertificate:
    a: float
    cfg: RandersConfig
    lam: float
    el_residual_max: float
    normality_min: float
    weierstrass_max: float
    h1: float
    hess_form_max: float
    conjugate: ConjugateScanReport | None
    second_variation_max: float
    passed: bool
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        conj = {
            "zero_crossing": None if self.conjugate is None else self.conjugate.zero_crossing,
            "min_abs_D": None if self.conjugate is None else self.conjugate.min_abs_D,
        }
        return {
            "a": self.a,
            "b": self.cfg.b,
            "form": self.cfg.form.value,
            "lambda": self.lam,
            "el_residual_max": _none_if_nan(self.el_residual_max),
            "normality_min": _none_if_nan(self.normality_min),
            "weierstrass_max": _none_if_nan(self.weierstrass_max),
            "h1": _none_if_nan(self.h1),
            "hess_form_max": _none_if_nan(self.hess_form_max),
            "conjugate": conj,
            "second_variation_max": _none_if_nan(self.second_variation_max),
            "pass": self.passed,
            "notes": list(self.notes),
        }


def _none_if_nan(x: float):
    return None if math.isnan(x) else x


def _direction_samples(velocity, magnitudes=(0.5, 1.0, 2.0), n_angles: int = 40) -> np.ndarray:
    """Directions around each velocity, excluding the tangent cone.

    velocity has shape (..., 2); the result has shape (..., len(magnitudes) * n_angles, 2).
    """
    v1, v2 = _components(velocity)
    speed = np.hypot(v1, v2)[..., None, None]
    angles = np.arctan2(v2, v1)[..., None] + np.linspace(_TANGENT_CONE, TWO_PI - _TANGENT_CONE, n_angles)
    units = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    return np.concatenate([m * speed * units for m in magnitudes], axis=-2)


def build_certificate(
    a: float,
    cfg: RandersConfig,
    tol: float = CERT_TOL,
    probe_seed: int = 42,
    lambda_override: float | None = None,
) -> ExtremalityCertificate:
    """Run all five sufficiency checks for the circle of radius a.

    A check whose numerics fail (a VerificationError) is recorded as failed,
    with a note and a NaN field; any other exception propagates.
    """
    if probe_seed < 0:
        raise DomainError(f"probe seed must be nonnegative, got {probe_seed}")
    circle = Circle(a)
    kap = cfg.kappa
    lam = lambda_for_circle(a, cfg) if lambda_override is None else float(lambda_override)
    notes = [_BASIS_NOTE]
    if lambda_override is not None:
        notes.append(f"lambda overridden to {lam}")
    ts = np.linspace(0.0, TWO_PI, _T_SAMPLES, endpoint=False)
    sample_ts = ts[:: _T_SAMPLES // 16]
    points, velocities = circle.batch(sample_ts)

    def guarded(name: str, check, failed=math.nan):
        try:
            return check()
        except VerificationError as exc:
            notes.append(f"{name} failed: {exc}")
            return failed

    def h1_check() -> float:
        value = h1_along(circle, kap, lam, 0.0)
        if not value < 0.0:
            notes.append(f"h1 = {value} is not negative (corroboration only)")
        return value

    def probe_max() -> float:
        M = second_variation_matrix(hessian_blocks(a, kap, lam, _variation_basis()[0]))
        ell = constraint_vector(circle)
        probes = np.random.default_rng(probe_seed).standard_normal((N_PROBES, ell.size))
        return float(np.max(_quadratic_forms(_onto_kernel(probes, ell), M)))

    # np.max/np.min propagate a NaN sample, so it fails its comparison below
    el_max = guarded("euler_lagrange", lambda: float(np.max(np.abs(el_residual(circle, kap, lam, ts)))))
    normality_min = guarded("normality", lambda: float(np.min(np.hypot(*normality(circle, ts)))))
    weier_max = guarded("weierstrass", lambda: float(np.max(weierstrass_E(
        points[:, None], velocities[:, None], _direction_samples(velocities), kap, lam
    ))))
    h1_val = guarded("h1", h1_check)
    hess_max = guarded("hessian_form", lambda: float(np.max(hessian_velocity_form(
        circle, kap, lam, sample_ts[:, None], _direction_samples(velocities, magnitudes=(1.0,))
    ))))
    conj = guarded("conjugate scan", lambda: conjugate_scan(circle, kap, lam), None)
    sv_max = guarded("second variation", probe_max)

    ok = {
        "euler_lagrange": el_max <= tol,
        "normality": normality_min > tol,
        "weierstrass": weier_max < 0.0,
        "hessian_form": hess_max < 0.0,
        "second_variation": sv_max < 0.0 and conj is not None and not conj.zero_crossing,
    }
    passed = all(ok.values())
    for name, good in ok.items():
        if not good:
            notes.append(f"condition failed: {name}")
    return ExtremalityCertificate(
        a=a,
        cfg=cfg,
        lam=lam,
        el_residual_max=el_max,
        normality_min=normality_min,
        weierstrass_max=weier_max,
        h1=h1_val,
        hess_form_max=hess_max,
        conjugate=conj,
        second_variation_max=sv_max,
        passed=passed,
        notes=tuple(notes),
    )
