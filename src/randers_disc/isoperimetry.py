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

run_trials works on blocks of four trials: a block is drawn on the
quadrature nodes, where each draw's p, p' and base-radius interval
(lo, hi) of the one admissibility rule of curves are computed once, and a
draw is admissible iff lo < a < hi.  The same interval is the matcher's
bracket, and one Newton matcher runs a block's rows side by side, each
row with its own iterate and stops.  Every row gets the arithmetic it
would get alone, so a trial does not depend on the block it falls in.
Newton runs first on a subset of the nodes, about 32 per harmonic, where
the trapezoid rule has converged for moderate draws, and only moves the
start point there; it then runs on all nodes, where every stop rule and
verdict is decided, and usually stops at its first iterate.  Work a
proof makes redundant is skipped: a row's bracket ends are evaluated
only to report a target out of its reach.  The circle is measured by
length and area before anything is drawn.  The harmonic basis is built
once per grid per call.  Results come back as a TrialBatch, which stores
what was measured by column.

Every polar curve's radius is a0 + p, the harmonics summed into p first,
so the matcher, length and area see the same bits at the same base
radius.  A trial is measured where its matcher stopped: its length is the
one the matcher last evaluated on all nodes, by the polar-graph
integrands of functionals on rows of (r, r'), and its area is taken on
the same radius, so every reported trial re-measures bitwise through its
own curve.
"""
from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterator, Sequence

import numpy as np

from .config import RandersConfig
from .curves import Circle, PolarFourierCurve, _base_interval, _harmonic_basis, _radius_rows
from .errors import DomainError, VerificationError
from .functionals import QuadratureGrid, _trapezoid, area, length, length_integrand, signed_area_integrand

MATCH_WIDTH = 1e-13       # unused here; perfbench/gate.py compares redrawn coefficients to it
MATCH_TOL = 1e-10         # required |length - target| after matching
_NEWTON_TOL = 1e-3 * MATCH_TOL  # |length - target| at which Newton stops
_MATCH_STEPS = 100        # iterate cap; no row took more than 7 on 20 640 trials with a up to 0.995
STRICT_DECREASE = -1e-12  # area must drop below this unless the curve is the circle
_MATCH_ROWS = 4           # trials drawn and matched together on the quadrature nodes


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


def _draw(spec: PerturbationSpec, a: float, basis: tuple[np.ndarray, np.ndarray]) -> Iterator[tuple]:
    """Yield blocks of _MATCH_ROWS admissible perturbations of the circle a, in index order.

    Each block is (start, coeffs, p, p', lo, hi): the (rows, 2, K) cosine
    and sine coefficients of trials start, start + 1, ..., their p and p'
    on the nodes of basis, and their base-radius intervals there.
    Coefficient k is uniform on [-eps, eps]/k.  Each index owns the stream
    seeded by (seed, index), so trial i is reproducible in isolation; a draw
    is admissible iff lo < a < hi, and an inadmissible one is redrawn from
    the same stream against a global budget of 100*count rejections.  Each
    index rejects the same draws in any order and every rejection is
    counted as it is seen, so the budget runs out, with the same message,
    exactly when it would drawing one index at a time.
    """
    ks = np.arange(1, spec.harmonics + 1)
    budget = 100 * spec.count
    rejected = 0
    for start in range(0, spec.count, _MATCH_ROWS):
        rows = min(_MATCH_ROWS, spec.count - start)
        streams = [np.random.default_rng([spec.seed, i]) for i in range(start, start + rows)]
        coeffs = np.empty((rows, 2, spec.harmonics))
        pending = np.arange(rows)
        while len(pending):
            for j in pending.tolist():
                coeffs[j, 0] = streams[j].uniform(-spec.epsilon, spec.epsilon, spec.harmonics) / ks
                coeffs[j, 1] = streams[j].uniform(-spec.epsilon, spec.epsilon, spec.harmonics) / ks
            # a pass that redraws the whole block takes it as it is, with no gather
            whole = len(pending) == rows
            drawn = coeffs if whole else coeffs[pending]
            # r = a0 + p with p independent of a0, so p and p' are sampled once per draw
            p_new, pd_new = _radius_rows(np.zeros(len(pending)), drawn[:, 0], drawn[:, 1], basis)
            lo_new, hi_new = _base_interval(p_new, drawn[:, 0], drawn[:, 1])
            if whole:
                p, pd, lo, hi = p_new, pd_new, lo_new, hi_new
            else:
                p[pending], pd[pending], lo[pending], hi[pending] = p_new, pd_new, lo_new, hi_new
            admitted = (lo_new < a) & (a < hi_new)
            for admissible in admitted.tolist():
                if admissible:
                    continue
                rejected += 1
                if rejected > budget:
                    raise VerificationError(
                        f"rejected {rejected} draws for {spec.count} curves; epsilon too large for a={a}"
                    )
            pending = pending[~admitted]
        yield start, coeffs, p, pd, lo, hi


def _bracket_ends(lo: np.ndarray, hi: np.ndarray, p: np.ndarray, pd: np.ndarray,
                  gap) -> tuple[np.ndarray, np.ndarray]:
    """gap (L - target_L of rows of r, r') at the ends lo and hi of each row's bracket."""
    return gap(lo[:, None] + p, pd), gap(hi[:, None] + p, pd)


def _coarse_stride(n: int, harmonics: int) -> int:
    """Stride of the node subset the matcher's first Newton stage runs on, or 0 for none.

    The subset holds the smallest power of two >= 32 K nodes, for K
    harmonics; when that is more than half of the n nodes, there is no
    first stage and the matcher runs on all n.
    """
    nodes = 1 << (32 * harmonics - 1).bit_length()
    return n // nodes if 2 * nodes <= n else 0


def _match_rows(
    a0: np.ndarray,
    p: np.ndarray,
    pd: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    target_L: float,
    cfg: RandersConfig,
    harmonics: int,
) -> tuple[np.ndarray, np.ndarray, dict[int, VerificationError]]:
    """Matched base radius and length of each row, and the error of each row that failed.

    Row i is the curve r = a0[i] + p[i], r' = pd[i] on the n quadrature
    nodes, p a sum of the first harmonics harmonics, and (lo[i], hi[i]) is
    its base-radius interval there, the bracket, with lo[i] < a0[i] < hi[i].  Rows run side
    by side but never mix: each keeps its own iterate, stops and step cap.
    A row's length is the last one the matcher evaluated on all n nodes, at
    the radius it returns, so it is what length measures on the matched
    curve.  A failed row's radius and length are meaningless.

    f = L(a0 + p) - target_L is increasing and convex in a0: the alpha part
    2w/s of the integrand, with w = sqrt(r^2 + r'^2) and s = 1 - r^2, is a
    product of two positive, increasing, convex factors of r > 0, and the
    drift part does not depend on a0.  So Newton from the right of the root
    decreases monotonically to it, and one step from the left lands right
    of it.  This holds for the trapezoid sum on any set of nodes.

    Newton runs in two stages from a0, each with its own step cap
    _MATCH_STEPS: first on every m-th node (m from _coarse_stride), which
    only moves the start point, then on all n nodes from where the first
    stage stopped.  In both a row stops when |f| <= _NEWTON_TOL, when its
    step no longer moves it, or when f turns <= 0 after having been > 0 in
    that stage, which from the right is roundoff.  The first stage also
    stops a row, where it is, at a step that leaves (lo, hi).  On all n
    nodes a step at or past hi restarts at hi, and a row that uses up its
    steps is evaluated once more where its last step took it.  It is
    matched if |f| <= MATCH_TOL there, else stalled.  It is not bracketed
    when f <= 0 at hi, when a step from the right lands at or below lo, or
    when f is NaN; only then are its bracket ends evaluated, for the
    message.  A row that enters within MATCH_TOL is matched like any other;
    the circle keeps a0, since its excess is exactly 0.
    """
    def lengths(r: np.ndarray, rd: np.ndarray, *parts: np.ndarray) -> np.ndarray:
        """L of each row of radius samples; parts are hypot(r, r') and 1 - r*r if in hand."""
        return _trapezoid(length_integrand(r, rd, cfg, *parts))

    def gap(r: np.ndarray, rd: np.ndarray) -> np.ndarray:
        """L - target_L of each row of radius samples."""
        return lengths(r, rd) - target_L

    def measure(x: np.ndarray, p: np.ndarray, pd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """L and dL/da0 of the rows r = x + p.

        The drift one-form is exact, so its part of L does not depend on a0
        and the slope is the derivative of the alpha part alone:
        d/da0 of 2|v|/(1 - r^2) with |v| = sqrt(r^2 + p'^2).  The slope and
        the integrand share |v| and 1 - r^2.
        """
        r = x[:, None] + p
        speed = np.hypot(r, pd)
        s = 1.0 - r * r
        slope = _trapezoid(2.0 * r / (speed * s) + 4.0 * r * speed / (s * s))
        return lengths(r, pd, speed, s), slope

    # inside the bracket every iterate is admissible, on any subset of the nodes
    x, L, errors = a0.copy(), np.empty(len(a0)), {}
    unbracketed = np.zeros(len(x), dtype=bool)
    stride = _coarse_stride(p.shape[-1], harmonics)
    stages = [(p[:, ::stride], pd[:, ::stride]), (p, pd)] if stride else [(p, pd)]
    for p_s, pd_s in stages:
        full = p_s is p
        # the rows still iterating, with their iterates, samples and brackets,
        # and whether f has been > 0 on them: then the row is right of its root
        live, x_l, p_l, pd_l, lo_l, hi_l = np.arange(len(x)), x, p_s, pd_s, lo, hi
        right = np.zeros(len(x), dtype=bool)
        for _ in range(_MATCH_STEPS):
            if not len(live):
                break
            L_l, slope = measure(x_l, p_l, pd_l)
            L[live] = L_l
            f_l = L_l - target_L
            step = x_l - f_l / slope
            done = (np.abs(f_l) <= _NEWTON_TOL) | (right & (f_l <= 0.0)) | (step == x_l)
            if full:
                failed = ~done & (np.isnan(f_l) | ((x_l >= hi_l) & (f_l <= 0.0)) | (step <= lo_l))
                unbracketed[live] = failed
                stop = done | failed
            else:
                stop = done | ~((lo_l < step) & (step < hi_l))
            right |= f_l > 0.0
            x_l = np.where(stop, x_l, np.where(step < hi_l, step, hi_l))
            x[live] = x_l
            if stop.any():
                go = ~stop
                live, x_l, p_l, pd_l, lo_l, hi_l, right = (
                    v[go] for v in (live, x_l, p_l, pd_l, lo_l, hi_l, right))
    if len(live):  # rows that used up their steps on all n nodes are measured where they end
        L[live] = lengths(x_l[:, None] + p_l, pd_l)
    ends = np.flatnonzero(unbracketed)
    if len(ends):
        at_lo, at_hi = _bracket_ends(lo[ends], hi[ends], p[ends], pd[ends], gap)
        for j, e_lo, e_hi in zip(ends.tolist(), at_lo, at_hi):
            errors[j] = VerificationError(
                f"target length {target_L} not bracketed on [{lo[j].item()}, {hi[j].item()}] "
                f"(excess {e_lo:.3e} and {e_hi:.3e})")
    f = L - target_L
    for j in np.flatnonzero(~unbracketed & ~(np.abs(f) <= MATCH_TOL)).tolist():
        errors[j] = VerificationError(f"length matching stalled at |dL| = {abs(f[j]):.3e}")
    return x, L, errors


def deficit_value(length_value: float, area_value: float, cfg: RandersConfig) -> float:
    """L^2 - 4 pi A^ - A^2 with A^ = A/kappa, so all four forms share one deficit."""
    return _deficit(length_value, area_value, cfg.kappa)


def _deficit(length_value, area_value, kappa: float):
    """deficit_value for the form's kappa, on floats or arrays alike."""
    a_hat = area_value / kappa
    return length_value * length_value - 4.0 * math.pi * a_hat - a_hat * a_hat


class TrialBatch(Sequence):
    """Read-only sequence of trial results, stored by column.

    batch[i] builds the i-th TrialResult on demand.  The batch stores what
    was measured: the circle radius a, its length target_L and area
    circle_A, the form's kappa, each trial's (a0_matched, length, area),
    ok, the (count, 2, K) drawn coefficients, and the notes of failed
    trials by index.  length_err, delta_area and deficit are derived from
    them on each read, by the same float operations for one trial and for
    the numbers column, so both give the same bits.  A failed trial's
    numbers are NaN and its curve keeps the drawn base radius a.
    """

    FIELDS = ("a0_matched", "length", "area", "length_err", "delta_area", "deficit")

    def __init__(self, a: float, measured: np.ndarray, ok: np.ndarray, coeffs: np.ndarray,
                 notes: dict[int, str], target_L: float, circle_A: float, kappa: float):
        for column in (measured, ok, coeffs):
            column.setflags(write=False)
        self.a, self.measured, self.ok, self.coeffs, self.notes = a, measured, ok, coeffs, notes
        self.target_L, self.circle_A, self.kappa = float(target_L), float(circle_A), float(kappa)

    def _fields(self, a0, L, A) -> tuple:
        """The FIELDS of trials measured at a0, L and A, floats or columns."""
        return a0, L, A, abs(L - self.target_L), A - self.circle_A, _deficit(L, A, self.kappa)

    @property
    def numbers(self) -> np.ndarray:
        """The (count, 6) read-only array of every trial's FIELDS."""
        numbers = np.stack(self._fields(*self.measured.T), axis=-1)
        numbers.setflags(write=False)
        return numbers

    def __len__(self) -> int:
        return len(self.ok)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]  # negative indices count from the end; IndexError past it
        values = dict(zip(self.FIELDS, self._fields(*self.measured[i].tolist())))
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
    # the circle is measured before anything is drawn, so a radius within the
    # admissibility margin of 0 or 1 is named as such rather than blamed on epsilon
    target_L = length(Circle(a), cfg, grid).value
    circle_A = area(Circle(a), cfg, grid).value
    coeffs = np.empty((spec.count, 2, spec.harmonics))
    measured = np.full((spec.count, 3), math.nan)  # a0_matched, length, area
    ok = np.zeros(spec.count, dtype=bool)
    notes = {}
    for start, block, p, pd, lo, hi in _draw(spec, a, _harmonic_basis(grid.nodes, spec.harmonics)):
        coeffs[start:start + len(block)] = block
        a0, L, errors = _match_rows(np.full(len(block), a), p, pd, lo, hi, target_L, cfg, spec.harmonics)
        for row, exc in errors.items():
            notes[start + row] = str(exc)
        good = [row for row in range(len(block)) if row not in errors]
        if not good:
            continue
        # the matcher's last length is at the matched radius; the area is taken
        # on the same r = a0 + p, which stays inside the matching bracket
        a0, L = a0[good], L[good]
        A = cfg.kappa * _trapezoid(signed_area_integrand(a0[:, None] + p[good]))
        index = [start + row for row in good]
        measured[index] = np.stack([a0, L, A], axis=-1)
        ok[index] = (A - circle_A < STRICT_DECREASE) | np.all(block[good] == 0.0, axis=(1, 2))
    return TrialBatch(a, measured, ok, coeffs, notes, target_L, circle_A, cfg.kappa)
