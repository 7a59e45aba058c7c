"""Length-matched perturbation trials around candidate circles.

Random polar Fourier perturbations are length-matched to the circle by
shifting the base radius (scaling the curve would distort the perturbation
class relative to the hyperbolic metric), then compared by enclosed area.
The shift is found by Newton's method on the base radius with an analytic
slope, safeguarded by a bisection bracket.  A strong maximum shows up as
strictly negative area changes; harmonic-1 perturbations are near-neutral
translation directions, so strictness is only required past -1e-12.

run_trials works on small fixed blocks of trials: draws are checked for
admissibility a block at a time, and one Newton matcher runs a block's rows
side by side, each row with its own bracket and stops.  Every row gets the
arithmetic it would get alone, so a trial does not depend on the block it
falls in; match_length is the matcher's one-row case.  cos t, sin t and
the harmonic basis are built once per grid per call.  Results come back as
a TrialBatch, which stores them by column.
"""
from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from .config import RandersConfig
from .curves import (
    _ADMISSIBLE_NODES,
    TWO_PI,
    Circle,
    PolarFourierCurve,
    _admissible_rows,
    _harmonic_basis,
    _polar_frame,
    _PolarCurve,
    _radius_rows,
    require_admissible,
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
_DRAW_ROWS = 2            # draws checked together on the admissibility grid
_MATCH_ROWS = 4           # trials matched together on the quadrature nodes


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


def _draw(spec: PerturbationSpec, a: float, basis: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(count, 2, K) cosine and sine coefficients drawn as generate_perturbations states.

    Draws are checked _DRAW_ROWS at a time, each once, on basis (the
    harmonic basis on the admissibility grid).  Each index rejects the
    same draws in any order and every rejection is counted as it is seen,
    so the budget runs out, with the same message, exactly when it would
    drawing one index at a time.
    """
    ks = np.arange(1, spec.harmonics + 1)
    budget = 100 * spec.count
    rejected = 0
    coeffs = np.empty((spec.count, 2, spec.harmonics))
    for start in range(0, spec.count, _DRAW_ROWS):
        stop = min(start + _DRAW_ROWS, spec.count)
        streams = {i: np.random.default_rng([spec.seed, i]) for i in range(start, stop)}
        while streams:
            for i, rng in streams.items():
                coeffs[i, 0] = rng.uniform(-spec.epsilon, spec.epsilon, spec.harmonics) / ks
                coeffs[i, 1] = rng.uniform(-spec.epsilon, spec.epsilon, spec.harmonics) / ks
            pending = list(streams)
            drawn = coeffs[pending]
            r, rd = _radius_rows(np.full(len(pending), a), drawn[:, 0], drawn[:, 1], basis)
            for i, admissible in zip(pending, _admissible_rows(r, rd)):
                if admissible:
                    del streams[i]
                    continue
                rejected += 1
                if rejected > budget:
                    raise VerificationError(
                        f"rejected {rejected} draws for {spec.count} curves; epsilon too large for a={a}"
                    )
    return coeffs


def generate_perturbations(spec: PerturbationSpec, a: float) -> list[PolarFourierCurve]:
    """count admissible curves; coefficient k is uniform on [-eps, eps]/k.

    Each index owns the stream seeded by (seed, index), so trial i is
    reproducible in isolation; inadmissible draws are redrawn from the same
    stream against a global budget of 100*count rejections.
    """
    require_radius(a)
    coeffs = _draw(spec, a, _harmonic_basis(_ADMISSIBLE_NODES, spec.harmonics))
    return [PolarFourierCurve(a, c.tolist(), s.tolist()) for c, s in coeffs]


def _lengths(r: np.ndarray, rd: np.ndarray, ct: np.ndarray, st: np.ndarray, cfg: RandersConfig):
    """Randers length of each row of radius samples."""
    points, velocities = _polar_frame(r, rd, ct, st)
    return _periodic_integral(length_integrand(points, velocities, cfg))[0]


def _match_rows(
    a0: np.ndarray,
    coeffs: np.ndarray,
    target_L: float,
    cfg: RandersConfig,
    basis: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, dict[int, VerificationError]]:
    """Matched base radius of each row, and the error of each row that failed.

    Row i is the curve with base radius a0[i] and coefficients coeffs[i]
    (cosines, sines), admissible already; basis is the harmonic basis on the
    quadrature nodes.  Rows run side by side but never mix: each keeps its
    own bracket, bisection fallback, stops and step cap, as in match_length.
    A row already within MATCH_TOL keeps its a0; a failed row's entry in the
    returned radii is meaningless.
    """
    cos_c, sin_c = coeffs[:, 0], coeffs[:, 1]
    ct, st = basis[0][0], basis[1][0]
    entry = _lengths(*_radius_rows(a0, cos_c, sin_c, basis), ct, st, cfg)
    margin = [float(sum(abs(c) for c in row[0]) + sum(abs(s) for s in row[1])) for row in coeffs.tolist()]
    lo = np.array(margin) + 1e-6
    hi = 1.0 - np.array(margin) - 1e-6
    errors = {}
    todo = []
    for i, m in enumerate(margin):
        # a row already at the target keeps its a0 (the circle is an exact fixed point)
        if abs(entry[i] - target_L) <= MATCH_TOL:
            continue
        if lo[i] >= hi[i]:
            errors[i] = VerificationError(f"no admissible base-radius interval for margin {m}")
        else:
            todo.append(i)
    matched = a0.copy()
    if not todo:
        return matched, errors

    # r = a0 + p with p independent of a0, so p and p' are sampled once; within
    # the bracket the radius stays inside [a0 - margin, a0 + margin], so
    # admissibility holds by construction and the per-step check is skipped
    p, pd = _radius_rows(np.zeros(len(todo)), cos_c[todo], sin_c[todo], basis)
    lo, hi = lo[todo], hi[todo]

    def excess(x: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """L(x) - target_L and dL/da0 for the rows live of p.

        The drift one-form is exact, so its part of L does not depend on a0
        and the slope is the derivative of the alpha part alone:
        d/da0 of 2|v|/(1 - r^2) with |v| = sqrt(r^2 + p'^2).
        """
        r = x[:, None] + p[live]
        q = pd[live]
        speed = np.hypot(r, q)
        s = 1.0 - r * r
        slope = TWO_PI * np.mean(2.0 * r / (speed * s) + 4.0 * r * speed / (s * s), axis=-1)
        return _lengths(r, q, ct, st, cfg) - target_L, slope

    f_lo = _lengths(lo[:, None] + p, pd, ct, st, cfg) - target_L
    f_hi = _lengths(hi[:, None] + p, pd, ct, st, cfg) - target_L
    bracketed = f_lo * f_hi <= 0.0
    # tested negated so that a NaN excess (a NaN target) fails the bracket too
    for j in np.flatnonzero(~bracketed):
        errors[todo[j]] = VerificationError(
            f"target length {target_L} not bracketed on [{float(lo[j])}, {float(hi[j])}] "
            f"(excess {f_lo[j]:.3e} and {f_hi[j]:.3e})"
        )
    start = a0[todo]
    x = np.where((lo < start) & (start < hi), start, 0.5 * (lo + hi))
    f = np.full(len(todo), math.nan)
    live = np.flatnonzero(bracketed)
    for _ in range(_MATCH_STEPS):
        if not len(live):
            break
        x_l, lo_l, hi_l, f_lo_l = x[live], lo[live], hi[live], f_lo[live]
        f_l, slope = excess(x_l, live)
        f[live] = f_l
        near = np.abs(f_l) <= _NEWTON_TOL
        below = f_lo_l * f_l <= 0.0  # the root lies below x, which becomes hi
        hi_l = np.where(~near & below, x_l, hi_l)
        lo_l = np.where(~near & ~below, x_l, lo_l)
        f_lo[live] = np.where(~near & ~below, f_l, f_lo_l)
        done = near | (hi_l - lo_l < MATCH_WIDTH)
        step = x_l - f_l / slope
        inside = (lo_l < step) & (step < hi_l)
        x[live] = np.where(done, x_l, np.where(inside, step, 0.5 * (lo_l + hi_l)))
        lo[live], hi[live] = lo_l, hi_l
        live = live[~done]
    for j, i in enumerate(todo):
        if i in errors:
            continue
        if not abs(f[j]) <= MATCH_TOL:
            errors[i] = VerificationError(f"length matching stalled at |dL| = {abs(f[j]):.3e}")
        matched[i] = x[j]
    return matched, errors


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
    A curve already at the target comes back with its a0 unchanged (the
    circle is an exact fixed point).  The one-row case of _match_rows, after
    the admissibility check that run_trials leaves to its draw.
    """
    require_admissible(curve)
    coeffs = np.array([[curve.cos_coeffs, curve.sin_coeffs]])
    basis = _harmonic_basis(grid.nodes, curve.harmonics)
    a0, errors = _match_rows(np.array([curve.a0]), coeffs, target_L, cfg, basis)
    if errors:
        raise errors[0]
    return curve.with_base_radius(a0[0])


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
    coeffs = _draw(spec, a, _harmonic_basis(_ADMISSIBLE_NODES, spec.harmonics))
    basis = _harmonic_basis(grid.nodes, spec.harmonics)
    ct, st = basis[0][0], basis[1][0]
    numbers = np.full((spec.count, len(TrialBatch.FIELDS)), math.nan)
    ok = np.zeros(spec.count, dtype=bool)
    notes = {}
    for start in range(0, spec.count, _MATCH_ROWS):
        block = coeffs[start:start + _MATCH_ROWS]
        a0, errors = _match_rows(np.full(len(block), a), block, target_L, cfg, basis)
        for row, exc in errors.items():
            notes[start + row] = str(exc)
        good = [row for row in range(len(block)) if row not in errors]
        if not good:
            continue
        # the drawn curves were checked once and the matched ones stay inside
        # the matching bracket, so length and area share one evaluation
        # without a further check
        a0 = a0[good]
        r, rd = _radius_rows(a0, block[good, 0], block[good, 1], basis)
        points, velocities = _polar_frame(r, rd, ct, st)
        L = _periodic_integral(length_integrand(points, velocities, cfg))[0]
        A = cfg.kappa * _periodic_integral(signed_area_integrand(points, velocities))[0]
        delta = A - circle_A
        index = [start + row for row in good]
        numbers[index] = np.stack(
            [a0, L, A, np.abs(L - target_L), delta, deficit_value(L, A, cfg)], axis=-1)
        ok[index] = (delta < STRICT_DECREASE) | np.all(block[good] == 0.0, axis=(1, 2))
    return TrialBatch(a, numbers, ok, coeffs, notes)
