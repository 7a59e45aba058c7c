"""Length-matched perturbation trials around candidate circles.

Random polar Fourier perturbations are length-matched to the circle by
shifting the base radius (scaling the curve would distort the perturbation
class relative to the hyperbolic metric), then compared by enclosed area.
The shift is found by Newton's method on the base radius with an analytic
slope; the length is increasing and convex in the base radius, so Newton
converges from one side and needs no bracket to steer it.  A strong
maximum shows up as strictly negative area changes; harmonic-1
perturbations are near-neutral translation directions, so strictness is
only required past -1e-12.

run_trials works on small fixed blocks of trials: draws are checked for
admissibility a block at a time, by the coefficient bound and on the
sampled grid only where the bound cannot clear them, and one Newton
matcher runs a block's rows side by side, each row with its own iterate
and stops.  Every row gets the arithmetic it would get alone, so a trial
does not depend on the block it falls in.  Work a proof makes redundant
is skipped: the entry check is Newton's first iterate, and a row's
bracket ends are evaluated only to report a target out of its reach.  The
circle is the row with no harmonics, checked before anything is drawn and
measured by the same kernel and integrals as its trials.  The harmonic
basis is built once per grid per call.  Results come back as a
TrialBatch, which stores them by column.

Trials are measured on rows of (r, r') by the polar-graph integrands of
functionals, with no Cartesian frame; the final measurement uses the
radius summed from the matched a0, as length and area do, so every
reported trial re-measures bitwise through its own curve.
"""
from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from .config import RandersConfig
from .curves import (
    Circle,
    PolarFourierCurve,
    _admissible,
    _coefficient_bound,
    _harmonic_basis,
    _radius_rows,
    require_admissible,
    require_radius,
)
from .errors import DomainError, VerificationError
from .functionals import QuadratureGrid, _trapezoid, length_integrand, signed_area_integrand

MATCH_WIDTH = 1e-13       # unused here; perfbench/gate.py compares redrawn coefficients to it
MATCH_TOL = 1e-10         # required |length - target| after matching
_NEWTON_TOL = 1e-3 * MATCH_TOL  # |length - target| at which Newton stops
_MATCH_STEPS = 100        # iterate cap; no row took more than 7 on 20 640 trials with a up to 0.995
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


def _draw(spec: PerturbationSpec, a: float) -> np.ndarray:
    """(count, 2, K) cosine and sine coefficients of admissible perturbations of the circle a.

    Coefficient k is uniform on [-eps, eps]/k.  Each index owns the stream
    seeded by (seed, index), so trial i is reproducible in isolation;
    inadmissible draws are redrawn from the same stream against a global
    budget of 100*count rejections.  Draws are checked _DRAW_ROWS at a
    time, each once, by the one admissibility rule.  Each index rejects the
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
            verdicts = _admissible(np.full(len(pending), a), drawn[:, 0], drawn[:, 1])
            for i, admissible in zip(pending, verdicts):
                if admissible:
                    del streams[i]
                    continue
                rejected += 1
                if rejected > budget:
                    raise VerificationError(
                        f"rejected {rejected} draws for {spec.count} curves; epsilon too large for a={a}"
                    )
    return coeffs


def _bracket_ends(lo: np.ndarray, hi: np.ndarray, p: np.ndarray, pd: np.ndarray,
                  gap) -> tuple[np.ndarray, np.ndarray]:
    """gap (L - target_L of rows of r, r') at the ends lo and hi of each row's bracket."""
    return gap(lo[:, None] + p, pd), gap(hi[:, None] + p, pd)


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
    own iterate, stops and step cap.  A row already within MATCH_TOL, on its
    radius summed from a0, keeps its a0 (the circle is an exact fixed
    point).  Otherwise Newton starts at a0, its entry point at a0 + p, if a0
    lies inside the bracket [lo, hi] = [M + 1e-6, 1 - M - 1e-6] (M the
    coefficient bound), else at hi.  A failed row's radius is meaningless.

    f = L(a0 + p) - target_L is increasing and convex in a0: the alpha part
    2w/s of the integrand, with w = sqrt(r^2 + r'^2) and s = 1 - r^2, is a
    product of two positive, increasing, convex factors of r > 0, and the
    drift part does not depend on a0.  So Newton from the right of the root
    decreases monotonically to it, and one step from the left lands right
    of it.  A step at or past hi restarts at hi.  A row stops when
    |f| <= _NEWTON_TOL, when its step no longer moves it, or when f turns
    <= 0 after having been > 0, which from the right is roundoff; it is
    matched if |f| <= MATCH_TOL, else stalled.  It is not bracketed when
    f <= 0 at hi, when a step from the right lands at or below lo, or when
    f is NaN; only then are its bracket ends evaluated, for the message.
    """
    cos_c, sin_c = coeffs[:, 0], coeffs[:, 1]
    # r = a0 + p with p independent of a0, so p and p' are sampled once; within
    # the bracket the radius stays inside [a0 - M, a0 + M], so admissibility
    # holds by construction and the per-step check is skipped
    p, pd = _radius_rows(np.zeros(len(a0)), cos_c, sin_c, basis)

    def gap(r: np.ndarray, rd: np.ndarray, *parts: np.ndarray) -> np.ndarray:
        """L - target_L of each row of radius samples; parts are hypot(r, r') and 1 - r*r if in hand."""
        return _trapezoid(length_integrand(r, rd, cfg, *parts)) - target_L

    def excess(x: np.ndarray, p: np.ndarray, pd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """L - target_L and dL/da0 of the rows r = x + p.

        The drift one-form is exact, so its part of L does not depend on a0
        and the slope is the derivative of the alpha part alone:
        d/da0 of 2|v|/(1 - r^2) with |v| = sqrt(r^2 + p'^2).  The slope and
        the integrand share |v| and 1 - r^2.
        """
        r = x[:, None] + p
        speed = np.hypot(r, pd)
        s = 1.0 - r * r
        slope = _trapezoid(2.0 * r / (speed * s) + 4.0 * r * speed / (s * s))
        return gap(r, pd, speed, s), slope

    bound = _coefficient_bound(cos_c, sin_c)
    lo, hi = bound + 1e-6, 1.0 - bound - 1e-6
    f, slope = excess(a0, p, pd)
    away = ~(np.abs(f) <= MATCH_TOL)
    # whether a row keeps a0 is decided on r summed from a0, as the curve's own
    # radius is; a0 + p differs from it in the last bits, which move the excess
    # by far less than MATCH_TOL / 2 (at most 4.5e-13 over 130 000 trials with
    # a up to 0.99), so only rows this close to MATCH_TOL are evaluated again
    close = np.flatnonzero((0.5 * MATCH_TOL <= np.abs(f)) & (np.abs(f) <= 2.0 * MATCH_TOL))
    if len(close):
        away[close] = ~(np.abs(gap(*_radius_rows(a0[close], cos_c[close], sin_c[close], basis))) <= MATCH_TOL)
    errors = {}
    for i in np.flatnonzero(away & ~(lo < hi)).tolist():
        errors[i] = VerificationError(f"no admissible base-radius interval for margin {bound[i].item()}")
    todo = np.flatnonzero(away & (lo < hi))
    matched = a0.copy()
    if not len(todo):
        return matched, errors

    # from here on, arrays hold the rows of todo
    x, f, slope, p, pd, lo, hi = a0[todo], f[todo], slope[todo], p[todo], pd[todo], lo[todo], hi[todo]
    todo = todo.tolist()
    outside = np.flatnonzero(~((lo < x) & (x < hi)))
    if len(outside):
        x[outside] = hi[outside]
        f[outside], slope[outside] = excess(x[outside], p[outside], pd[outside])
    right = np.zeros(len(todo), dtype=bool)  # f has been > 0: the row is right of its root
    unbracketed = np.zeros(len(todo), dtype=bool)
    live = np.arange(len(todo))
    for iterate in range(_MATCH_STEPS):
        if not len(live):
            break
        if iterate:  # the first iterate's excess is in hand
            f[live], slope[live] = excess(x[live], p[live], pd[live])
        x_l, f_l, hi_l = x[live], f[live], hi[live]
        step = x_l - f_l / slope[live]
        done = (np.abs(f_l) <= _NEWTON_TOL) | (right[live] & (f_l <= 0.0)) | (step == x_l)
        unbracketed[live] = ~done & (np.isnan(f_l) | ((x_l >= hi_l) & (f_l <= 0.0)) | (step <= lo[live]))
        right[live] |= f_l > 0.0
        stop = done | unbracketed[live]
        x[live] = np.where(stop, x_l, np.where(step < hi_l, step, hi_l))
        live = live[~stop]
    matched[todo] = x
    ends = np.flatnonzero(unbracketed)
    if len(ends):
        at_lo, at_hi = _bracket_ends(lo[ends], hi[ends], p[ends], pd[ends], gap)
        for j, e_lo, e_hi in zip(ends.tolist(), at_lo, at_hi):
            errors[todo[j]] = VerificationError(
                f"target length {target_L} not bracketed on [{lo[j].item()}, {hi[j].item()}] "
                f"(excess {e_lo:.3e} and {e_hi:.3e})")
    for j in np.flatnonzero(~unbracketed & ~(np.abs(f) <= MATCH_TOL)).tolist():
        errors[todo[j]] = VerificationError(f"length matching stalled at |dL| = {abs(f[j]):.3e}")
    return matched, errors


def deficit_value(length_value: float, area_value: float, cfg: RandersConfig) -> float:
    """L^2 - 4 pi A^ - A^2 with A^ = A/kappa, so all four forms share one deficit."""
    a_hat = area_value / cfg.kappa
    return length_value * length_value - 4.0 * math.pi * a_hat - a_hat * a_hat


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
    require_radius(a)
    # the circle is checked before its perturbations, so a radius within the
    # admissibility margin of 0 or 1 is named as such rather than blamed on epsilon
    require_admissible(Circle(a))
    coeffs = _draw(spec, a)
    basis = _harmonic_basis(grid.nodes, spec.harmonics)

    def measure(a0: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Randers length and area of coefficient rows at base radii a0, as length and area measure them."""
        r, rd = _radius_rows(a0, rows[:, 0], rows[:, 1], basis)
        return _trapezoid(length_integrand(r, rd, cfg)), cfg.kappa * _trapezoid(signed_area_integrand(r))

    # the circle is the row with no harmonics, measured as its trials are
    (target_L,), (circle_A,) = measure(np.array([a]), np.zeros((1, 2, 0)))
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
        L, A = measure(a0, block[good])
        delta = A - circle_A
        index = [start + row for row in good]
        numbers[index] = np.stack(
            [a0, L, A, np.abs(L - target_L), delta, deficit_value(L, A, cfg)], axis=-1)
        ok[index] = (delta < STRICT_DECREASE) | np.all(block[good] == 0.0, axis=(1, 2))
    return TrialBatch(a, numbers, ok, coeffs, notes)
