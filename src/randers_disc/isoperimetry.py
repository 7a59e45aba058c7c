"""Length-matched perturbation trials around candidate circles.

Random polar Fourier perturbations are length-matched to the circle by
shifting the base radius (scaling the curve would distort the perturbation
class relative to the hyperbolic metric), then compared by enclosed area.
A strong maximum shows up as strictly negative area changes; harmonic-1
perturbations are near-neutral translation directions, so strictness is
only required past -1e-12.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .config import RandersConfig
from .curves import Circle, PolarFourierCurve, _PolarCurve, check_admissible, require_radius
from .errors import DomainError, VerificationError
from .functionals import QuadratureGrid, _periodic_integral, area, length, length_integrand

MATCH_WIDTH = 1e-13       # bisection interval width target on a0
MATCH_TOL = 1e-10         # required |length - target| after matching
STRICT_DECREASE = -1e-12  # area must drop below this unless the curve is the circle


@dataclasses.dataclass(frozen=True)
class PerturbationSpec:
    """Deterministic family of random perturbations of a circle."""

    seed: int = 42
    harmonics: int = 4
    epsilon: float = 0.05
    count: int = 200

    def __post_init__(self):
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        if self.harmonics < 1:
            raise DomainError("need at least one harmonic")
        if not 0.0 <= self.epsilon < math.inf:
            raise DomainError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        if self.count < 1:
            raise DomainError("count must be positive")


@dataclasses.dataclass(frozen=True)
class TrialResult:
    index: int
    curve: PolarFourierCurve
    a0_matched: float
    length: float
    area: float
    length_err: float
    delta_area: float
    deficit: float
    ok: bool
    note: str = ""


def generate_perturbations(spec: PerturbationSpec, a: float) -> list[PolarFourierCurve]:
    """count admissible curves; coefficient k is uniform on [-eps, eps]/k.

    Each index owns the stream seeded by (seed, index), so trial i is
    reproducible in isolation; inadmissible draws are redrawn from the same
    stream against a global budget of 100*count rejections.
    """
    require_radius(a)
    ks = np.arange(1, spec.harmonics + 1)
    budget = 100 * spec.count
    rejected = 0
    curves = []
    for index in range(spec.count):
        rng = np.random.default_rng([spec.seed, index])
        while True:
            cos_coeffs = rng.uniform(-spec.epsilon, spec.epsilon, spec.harmonics) / ks
            sin_coeffs = rng.uniform(-spec.epsilon, spec.epsilon, spec.harmonics) / ks
            candidate = PolarFourierCurve(a, tuple(cos_coeffs), tuple(sin_coeffs))
            if check_admissible(candidate):
                curves.append(candidate)
                break
            rejected += 1
            if rejected > budget:
                raise VerificationError(
                    f"rejected {rejected} draws for {spec.count} curves; epsilon too large for a={a}"
                )
    return curves


def match_length(
    curve: PolarFourierCurve,
    target_L: float,
    cfg: RandersConfig,
    grid: QuadratureGrid = QuadratureGrid(),
) -> PolarFourierCurve:
    """Shift a0 until length(curve) = target_L, by bisection.

    Monotonicity in a0 is not assumed: the bracket endpoints must straddle
    the target or a VerificationError is raised.  A curve already at the
    target is returned unchanged (the circle is an exact fixed point).
    """
    if abs(length(curve, cfg, grid).value - target_L) <= MATCH_TOL:
        return curve
    margin = float(sum(abs(c) for c in curve.cos_coeffs) + sum(abs(s) for s in curve.sin_coeffs))
    lo = margin + 1e-6
    hi = 1.0 - margin - 1e-6
    if lo >= hi:
        raise VerificationError(f"no admissible base-radius interval for margin {margin}")

    # within the bracket the radius stays inside [a0 - margin, a0 + margin],
    # so admissibility holds by construction and the per-step check is skipped
    def excess(a0: float) -> float:
        points, velocities = curve.with_base_radius(a0).batch(grid.nodes)
        return _periodic_integral(length_integrand(points, velocities, cfg))[0] - target_L

    f_lo, f_hi = excess(lo), excess(hi)
    # negated so that a NaN excess (a NaN target) fails the bracket too
    if not f_lo * f_hi <= 0.0:
        raise VerificationError(
            f"target length {target_L} not bracketed on [{lo}, {hi}] "
            f"(excess {f_lo:.3e} and {f_hi:.3e})"
        )
    while hi - lo >= MATCH_WIDTH:
        mid = 0.5 * (lo + hi)
        f_mid = excess(mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo = mid
            f_lo = f_mid
    a0 = 0.5 * (lo + hi)
    residual = abs(excess(a0))
    if not residual <= MATCH_TOL:
        raise VerificationError(f"length matching stalled at |dL| = {residual:.3e}")
    return curve.with_base_radius(a0)


def deficit_value(length_value: float, area_value: float, cfg: RandersConfig) -> float:
    """L^2 - 4 pi A^ - A^2 with A^ = A/kappa, so all four forms share one deficit."""
    a_hat = area_value / cfg.kappa
    return length_value * length_value - 4.0 * math.pi * a_hat - a_hat * a_hat


def isoperimetric_deficit(
    curve: _PolarCurve,
    cfg: RandersConfig,
    grid: QuadratureGrid = QuadratureGrid(),
) -> float:
    """Hyperbolic isoperimetric deficit: nonnegative, zero exactly on circles."""
    return deficit_value(length(curve, cfg, grid).value, area(curve, cfg, grid).value, cfg)


def _is_unperturbed(curve: PolarFourierCurve) -> bool:
    return all(c == 0.0 for c in curve.cos_coeffs) and all(s == 0.0 for s in curve.sin_coeffs)


def run_trials(
    a: float,
    cfg: RandersConfig,
    spec: PerturbationSpec,
    grid: QuadratureGrid = QuadratureGrid(),
) -> list[TrialResult]:
    """Length-match every perturbation to the circle and compare areas.

    Matching failures do not abort the batch; the trial is marked not-ok
    with NaN metrics and the error message in its note.
    """
    circle = Circle(a)
    target_L = length(circle, cfg, grid).value
    circle_A = area(circle, cfg, grid).value
    results = []
    for index, curve in enumerate(generate_perturbations(spec, a)):
        try:
            matched = match_length(curve, target_L, cfg, grid)
            L = length(matched, cfg, grid).value
            A = area(matched, cfg, grid).value
            delta = A - circle_A
            ok = delta < STRICT_DECREASE or _is_unperturbed(matched)
            results.append(
                TrialResult(
                    index=index,
                    curve=matched,
                    a0_matched=matched.a0,
                    length=L,
                    area=A,
                    length_err=abs(L - target_L),
                    delta_area=delta,
                    deficit=deficit_value(L, A, cfg),
                    ok=ok,
                )
            )
        except VerificationError as exc:
            nan = math.nan
            results.append(
                TrialResult(
                    index=index,
                    curve=curve,
                    a0_matched=nan,
                    length=nan,
                    area=nan,
                    length_err=nan,
                    delta_area=nan,
                    deficit=nan,
                    ok=False,
                    note=str(exc),
                )
            )
    return results
