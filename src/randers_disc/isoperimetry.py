"""Length-matched perturbation trials around candidate circles.

Random polar Fourier perturbations are length-matched to the circle by
shifting the base radius (scaling the curve would distort the perturbation
class relative to the hyperbolic metric), then compared by enclosed area.
The shift is found by Newton's method on the base radius with an analytic
slope, safeguarded by a bisection bracket.  A strong maximum shows up as
strictly negative area changes; harmonic-1 perturbations are near-neutral
translation directions, so strictness is only required past -1e-12.
Results come back as a TrialBatch, which stores them by column.
"""
from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from .config import RandersConfig
from .curves import (
    TWO_PI,
    Circle,
    PolarFourierCurve,
    _polar_frame,
    _PolarCurve,
    check_admissible,
    require_radius,
)
from .errors import DomainError, VerificationError
from .functionals import (
    QuadratureGrid,
    _periodic_integral,
    area,
    length,
    length_integrand,
    signed_area_integrand,
)

MATCH_WIDTH = 1e-13       # bracket width on a0 at which matching stops
MATCH_TOL = 1e-10         # required |length - target| after matching
_NEWTON_TOL = 1e-3 * MATCH_TOL  # |length - target| at which Newton stops
_MATCH_STEPS = 100        # iterate cap; bisection alone narrows [lo, hi] below MATCH_WIDTH in 44
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
    """Shift a0 until length(curve) = target_L, by Newton's method kept in a bracket.

    Monotonicity in a0 is not assumed: the bracket endpoints must straddle
    the target or a VerificationError is raised.  Each iterate tightens the
    bracket, and a Newton step that would leave it is replaced by bisection.
    A curve already at the target is returned unchanged (the circle is an
    exact fixed point).
    """
    if abs(length(curve, cfg, grid).value - target_L) <= MATCH_TOL:
        return curve
    margin = float(sum(abs(c) for c in curve.cos_coeffs) + sum(abs(s) for s in curve.sin_coeffs))
    lo = margin + 1e-6
    hi = 1.0 - margin - 1e-6
    if lo >= hi:
        raise VerificationError(f"no admissible base-radius interval for margin {margin}")

    # r = a0 + p with p independent of a0, so p and p' are sampled once; within
    # the bracket the radius stays inside [a0 - margin, a0 + margin], so
    # admissibility holds by construction and the per-step check is skipped
    ts = grid.nodes
    p, pd = curve.with_base_radius(0.0).radius_batch(ts)
    ct, st = np.cos(ts), np.sin(ts)

    def excess(a0: float) -> tuple[float, float]:
        """L(a0) - target_L and dL/da0.

        The drift one-form is exact, so its part of L does not depend on a0
        and the slope is the derivative of the alpha part alone:
        d/da0 of 2|v|/(1 - r^2) with |v| = sqrt(r^2 + p'^2).
        """
        r = a0 + p
        points, velocities = _polar_frame(r, pd, ct, st)
        value = _periodic_integral(length_integrand(points, velocities, cfg))[0]
        speed = np.hypot(r, pd)
        s = 1.0 - r * r
        slope = TWO_PI * np.mean(2.0 * r / (speed * s) + 4.0 * r * speed / (s * s))
        return value - target_L, slope

    f_lo, f_hi = excess(lo)[0], excess(hi)[0]
    # negated so that a NaN excess (a NaN target) fails the bracket too
    if not f_lo * f_hi <= 0.0:
        raise VerificationError(
            f"target length {target_L} not bracketed on [{lo}, {hi}] "
            f"(excess {f_lo:.3e} and {f_hi:.3e})"
        )
    a0 = curve.a0 if lo < curve.a0 < hi else 0.5 * (lo + hi)
    for _ in range(_MATCH_STEPS):
        f, slope = excess(a0)
        if abs(f) <= _NEWTON_TOL:
            break
        if f_lo * f <= 0.0:
            hi = a0
        else:
            lo, f_lo = a0, f
        if hi - lo < MATCH_WIDTH:
            break
        step = a0 - f / slope
        a0 = step if lo < step < hi else 0.5 * (lo + hi)
    if not abs(f) <= MATCH_TOL:
        raise VerificationError(f"length matching stalled at |dL| = {abs(f):.3e}")
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


class TrialBatch(Sequence):
    """Read-only sequence of trial results, stored by column.

    batch[i] builds the i-th TrialResult on demand.  The columns are the
    circle radius a, the six numbers of each trial (a0_matched, length,
    area, length_err, delta_area, deficit), ok, the (count, 2, K) drawn
    coefficients, and the notes of failed trials by index; a failed
    trial's curve keeps the drawn base radius a.
    """

    FIELDS = ("a0_matched", "length", "area", "length_err", "delta_area", "deficit")

    def __init__(self, a: float, numbers: np.ndarray, ok: np.ndarray, coeffs: np.ndarray,
                 notes: dict[int, str]):
        for column in (numbers, ok, coeffs):
            column.setflags(write=False)
        self.a, self.numbers, self.ok, self.coeffs, self.notes = a, numbers, ok, coeffs, notes

    def __len__(self) -> int:
        return len(self.ok)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]  # negative indices count from the end; IndexError past it
        values = dict(zip(self.FIELDS, self.numbers[i].tolist()))
        note = self.notes.get(i, "")
        a0 = self.a if i in self.notes else values["a0_matched"]
        curve = PolarFourierCurve(a0, *self.coeffs[i])
        return TrialResult(index=i, curve=curve, **values, ok=bool(self.ok[i]), note=note)


def run_trials(
    a: float,
    cfg: RandersConfig,
    spec: PerturbationSpec,
    grid: QuadratureGrid = QuadratureGrid(),
) -> TrialBatch:
    """Length-match every perturbation to the circle and compare areas.

    Matching failures do not abort the batch; the trial is marked not-ok
    with NaN metrics and the error message in its note.
    """
    circle = Circle(a)
    target_L = length(circle, cfg, grid).value
    circle_A = area(circle, cfg, grid).value
    curves = generate_perturbations(spec, a)
    numbers = np.full((spec.count, len(TrialBatch.FIELDS)), math.nan)
    ok = np.zeros(spec.count, dtype=bool)
    coeffs = np.array([(c.cos_coeffs, c.sin_coeffs) for c in curves])
    notes = {}
    for index, curve in enumerate(curves):
        try:
            matched = match_length(curve, target_L, cfg, grid)
        except VerificationError as exc:
            notes[index] = str(exc)
            continue
        # matched is admissible (checked, or inside the matching bracket), so
        # length and area share one evaluation without a further check
        points, velocities = matched.batch(grid.nodes)
        L = _periodic_integral(length_integrand(points, velocities, cfg))[0]
        A = cfg.kappa * _periodic_integral(signed_area_integrand(points, velocities))[0]
        delta = A - circle_A
        numbers[index] = (matched.a0, L, A, abs(L - target_L), delta, deficit_value(L, A, cfg))
        ok[index] = delta < STRICT_DECREASE or _is_unperturbed(matched)
    return TrialBatch(a, numbers, ok, coeffs, notes)
