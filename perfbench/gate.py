"""Correctness gate for the benchmark's operations.

An operation counts as failed when it raises, reports a non-finite number,
fails its own verdict (a trial that is not ok or misses the length target, a
certificate that does not pass, a CLI command that exits non-zero or writes
a document outside its schema, a rerun that is not byte-identical), or when
a certified value drifts from its reference:

* perturbation trials are checked against an independent oracle: the
  coefficients are redrawn from the per-index RNG streams and the base
  radius is solved by Newton's method on the trapezoid length, so any seed
  can be checked;
* certificate fields and the README command outputs are checked against
  ``reference.json``, recorded from the library by ``record_reference.py``.

Tolerances come from the library itself: ``MATCH_TOL``, ``MATCH_WIDTH`` and
``STRICT_DECREASE`` from ``isoperimetry`` and the default ``tol`` of
``build_certificate``.  Each check returns a list of reasons; an empty list
is a pass.
"""
from __future__ import annotations

import dataclasses
import inspect
import json
import math
from pathlib import Path

import numpy as np

from randers_disc import isoperimetry, variational
from randers_disc.config import RandersConfig

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

MATCH_TOL = isoperimetry.MATCH_TOL
MATCH_WIDTH = isoperimetry.MATCH_WIDTH
STRICT_DECREASE = isoperimetry.STRICT_DECREASE
CERT_TOL = inspect.signature(variational.build_certificate).parameters["tol"].default

TWO_PI = 2.0 * math.pi
_ADMISSIBLE_GRID = 4096   # check_admissible's default grid
_ADMISSIBLE_MARGIN = 1e-9  # check_admissible's default margin

# certificate fields compared relative to their reference, and those that are
# residuals near roundoff and so compared in absolute terms
CERT_REL = ("lambda", "normality_min", "weierstrass_max", "h1", "hess_form_max",
            "min_abs_D", "second_variation_max")
CERT_ABS = ("el_residual_max",)


def point_key(a: float, b: float, form: str) -> str:
    return f"{a!r},{b!r},{form}"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _finite(x) -> bool:
    return x is not None and not isinstance(x, bool) and math.isfinite(x)


def _drift(name: str, x: float, ref, relative: bool) -> list[str]:
    """Reason list for x against ref; a null reference is checked by finiteness alone."""
    if ref is None or not _finite(x):
        return []
    bound = CERT_TOL * abs(ref) if relative else CERT_TOL
    if abs(x - ref) > bound:
        return [f"{name} = {x!r} drifted from reference {ref!r} (bound {bound:.3e})"]
    return []


def compare_fields(values: dict, ref: dict, relative: tuple, absolute: tuple) -> list[str]:
    reasons = [f"{k} is non-finite ({v!r})" for k, v in values.items() if not _finite(v)]
    for k in relative:
        reasons += _drift(k, values[k], ref.get(k), True)
    for k in absolute:
        reasons += _drift(k, values[k], ref.get(k), False)
    return reasons


# -- certificates -----------------------------------------------------------------

def certificate_values(cert) -> dict:
    """Flat numeric fields of an ExtremalityCertificate."""
    conj = cert.conjugate
    return {
        "lambda": cert.lam,
        "el_residual_max": cert.el_residual_max,
        "normality_min": cert.normality_min,
        "weierstrass_max": cert.weierstrass_max,
        "h1": cert.h1,
        "hess_form_max": cert.hess_form_max,
        "min_abs_D": None if conj is None else conj.min_abs_D,
        "second_variation_max": cert.second_variation_max,
    }


def certificate_doc_values(doc: dict) -> dict:
    """The same fields read back from the certificate command's JSON."""
    values = {k: doc[k] for k in ("el_residual_max", "normality_min", "weierstrass_max",
                                  "h1", "hess_form_max", "second_variation_max")}
    values["lambda"] = doc["lambda"]
    values["min_abs_D"] = doc["conjugate"]["min_abs_D"]
    return values


def certificate_reasons(values: dict, passed: bool, zero_crossing, ref: dict, probe_seed: int) -> list[str]:
    """ref is the reference entry of the certificate's grid point."""
    fields = dict(ref["fields"])
    fields["second_variation_max"] = ref["second_variation_max"].get(str(probe_seed))
    if fields["second_variation_max"] is None:
        return [f"no reference recorded for probe seed {probe_seed}"]
    reasons = compare_fields(values, fields, CERT_REL, CERT_ABS)
    if not passed:
        reasons.append("certificate did not pass")
    if zero_crossing is not False:
        reasons.append(f"conjugate scan zero_crossing = {zero_crossing!r}")
    return reasons


def check_certificate(cert, ref: dict, probe_seed: int) -> list[str]:
    zc = None if cert.conjugate is None else cert.conjugate.zero_crossing
    return certificate_reasons(certificate_values(cert), cert.passed, zc, ref, probe_seed)


# -- perturbation trials ------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TrialRow:
    """What the gate needs from one trial; CSV rows lack the last two fields."""

    index: int
    numbers: tuple          # every reported number of the trial
    a0_matched: float
    delta_area: float
    ok: bool
    length_err: float | None = None
    coeffs: tuple | None = None  # (cos_coeffs, sin_coeffs)


def trial_rows(results) -> list[TrialRow]:
    rows = []
    for r in results:
        numbers = (r.a0_matched, r.length, r.area, r.length_err, r.delta_area, r.deficit,
                   *r.curve.cos_coeffs, *r.curve.sin_coeffs)
        rows.append(TrialRow(r.index, numbers, r.a0_matched, r.delta_area, r.ok,
                             r.length_err, (r.curve.cos_coeffs, r.curve.sin_coeffs)))
    return rows


def _basis(harmonics: int, n: int):
    ts = TWO_PI * np.arange(n) / n
    ks = np.arange(1, harmonics + 1)[:, None]
    return ks, np.cos(ks * ts), np.sin(ks * ts)


def redraw_coefficients(spec, a: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """The perturbation coefficients of generate_perturbations, drawn independently."""
    ks, cos_b, sin_b = _basis(spec.harmonics, _ADMISSIBLE_GRID)
    scale = np.arange(1, spec.harmonics + 1)
    m = _ADMISSIBLE_MARGIN
    out = []
    for index in range(spec.count):
        rng = np.random.default_rng([spec.seed, index])
        while True:
            c = rng.uniform(-spec.epsilon, spec.epsilon, spec.harmonics) / scale
            s = rng.uniform(-spec.epsilon, spec.epsilon, spec.harmonics) / scale
            r = a + c @ cos_b + s @ sin_b
            rd = (s * scale) @ cos_b - (c * scale) @ sin_b
            if np.all(r > m) and np.all(r < 1.0 - m) and np.all(r * r + rd * rd > m * m):
                out.append((c, s))
                break
    return out


def _polar_parts(coeffs: np.ndarray, harmonics: int, n: int):
    """Perturbation p(t) and p'(t) on the quadrature nodes, one row per trial."""
    ks, cos_b, sin_b = _basis(harmonics, n)
    c, s = coeffs[:, 0, :], coeffs[:, 1, :]
    p = c @ cos_b + s @ sin_b
    pd = (s * ks.T) @ cos_b - (c * ks.T) @ sin_b
    return p, pd


def newton_base_radius(p: np.ndarray, pd: np.ndarray, a: float) -> np.ndarray:
    """Base radius a0 per row with L(a0 + p) equal to the circle's length.

    The drift one-form is exact, so only the alpha part of the Randers length
    enters; L'(a0) is analytic.
    """
    target = 4.0 * math.pi * a / (1.0 - a * a)
    a0 = np.full(p.shape[0], a)
    for _ in range(50):
        r = a0[:, None] + p
        s = 1.0 - r * r
        w = np.sqrt(r * r + pd * pd)
        L = TWO_PI * np.mean(2.0 * w / s, axis=1)
        dL = TWO_PI * np.mean(2.0 * r / (w * s) + 4.0 * r * w / (s * s), axis=1)
        step = (L - target) / dL
        a0 = a0 - step
        if np.max(np.abs(step)) < 1e-16:
            break
    return a0


def _area_hat(a0: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Green-form area integral over kappa; x1 v2 - x2 v1 = r^2 for a polar graph."""
    r = a0[:, None] + p
    return TWO_PI * np.mean(2.0 * r * r / (1.0 - r * r), axis=1)


def check_trials(rows: list[TrialRow], a: float, cfg: RandersConfig, spec, n: int) -> list[list[str]]:
    """One reason list per trial row, against the oracle for (a, cfg, spec, n)."""
    if len(rows) != spec.count or [row.index for row in rows] != list(range(spec.count)):
        bad = ["trial indices do not run 0..count-1"]
        return [bad for _ in range(max(len(rows), spec.count))]
    coeffs = np.array(redraw_coefficients(spec, a))
    p, pd = _polar_parts(coeffs, spec.harmonics, n)
    a0_oracle = newton_base_radius(p, pd, a)
    a0_lib = np.array([row.a0_matched for row in rows])
    kap = cfg.kappa
    circle_area = kap * 4.0 * math.pi * a * a / (1.0 - a * a)
    with np.errstate(invalid="ignore"):
        delta_oracle = kap * _area_hat(a0_lib, p) - circle_area
    area_bound = abs(STRICT_DECREASE) * max(1.0, circle_area)

    out = []
    for i, row in enumerate(rows):
        reasons = [f"non-finite value {x!r}" for x in row.numbers if not _finite(x)]
        if not row.ok:
            reasons.append("trial not ok")
        if row.length_err is not None and not row.length_err <= MATCH_TOL:
            reasons.append(f"length_err {row.length_err!r} > MATCH_TOL")
        if row.coeffs is not None:
            drawn = np.concatenate(coeffs[i])
            got = np.concatenate([np.asarray(row.coeffs[0]), np.asarray(row.coeffs[1])])
            if got.shape != drawn.shape or not np.all(np.abs(got - drawn) <= MATCH_WIDTH):
                reasons.append("coefficients differ from the per-index RNG stream")
        if not abs(row.a0_matched - a0_oracle[i]) <= MATCH_TOL:
            reasons.append(f"a0_matched {row.a0_matched!r} drifted from oracle {a0_oracle[i]!r}")
        if not abs(row.delta_area - delta_oracle[i]) <= area_bound:
            reasons.append(f"delta_area {row.delta_area!r} drifted from oracle {delta_oracle[i]!r}")
        out.append(reasons)
    return out


# -- CLI documents --------------------------------------------------------------------

def schema_validator(schema_dir: Path):
    """validate(doc, schema_name) -> list of schema errors, resolving $refs in schema_dir."""
    import jsonschema
    from referencing import Registry, Resource

    registry = Registry()
    schemas = {}
    for path in schema_dir.glob("*.schema.json"):
        schema = json.loads(path.read_text())
        schemas[path.name] = schema
        registry = registry.with_resource(path.name, Resource.from_contents(schema))

    def validate(doc: dict, schema_name: str) -> list[str]:
        validator = jsonschema.validators.Draft7Validator(schemas[schema_name], registry=registry)
        return [f"schema {schema_name}: {e.message}" for e in validator.iter_errors(doc)]

    return validate


def parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# config "):
        raise ValueError("CSV output lacks its config line")
    config = json.loads(lines[0][len("# config "):])
    return config, lines[1].split(","), [line.split(",") for line in lines[2:]]


def perturb_csv_rows(text: str) -> list[TrialRow]:
    _, header, body = parse_csv(text)
    col = {name: i for i, name in enumerate(header)}
    rows = []
    for fields in body:
        nums = tuple(float(fields[col[k]]) for k in ("a0_matched", "length", "area", "delta_area", "deficit"))
        rows.append(TrialRow(int(fields[col["index"]]), nums, nums[0], nums[3], fields[col["ok"]] == "1"))
    return rows


def conjugate_reasons(doc: dict, ref: dict) -> list[str]:
    values = {"lambda": doc["lambda"], **{k: doc["jacobi"][k] for k in ("h1", "h2", "K", "U")},
              "min_abs_D": doc["min_abs_D"], "step_halving": doc["step_halving"]}
    reasons = compare_fields(values, ref, ("lambda", "h1", "h2", "U", "min_abs_D"), ("K", "step_halving"))
    if not all(_finite(x) for x in doc["D_values"]):
        reasons.append("non-finite D value")
    if doc["zero_crossing"] is not False:
        reasons.append("conjugate scan found a zero crossing")
    return reasons


def check_metric_reasons(doc: dict, ref: dict) -> list[str]:
    values = {k: doc[k] for k in ("norm_deviation_max", "gradient_mismatch_max", "yasuda_shimada_max")}
    reasons = compare_fields(values, ref, ("yasuda_shimada_max",),
                             ("norm_deviation_max", "gradient_mismatch_max"))
    if doc["pass"] is not True:
        reasons.append("check-metric did not pass")
    return reasons


def deficit_sweep_reasons(text: str, ref: dict) -> list[str]:
    _, header, body = parse_csv(text)
    if header != ref["header"] or len(body) != len(ref["rows"]):
        return ["deficit-sweep table shape differs from reference"]
    reasons = []
    for fields, ref_row in zip(body, ref["rows"]):
        values = {h: float(v) for h, v in zip(header, fields)}
        refs = dict(zip(header, ref_row))
        reasons += compare_fields(values, refs, tuple(h for h in header if h != "deficit"), ("deficit",))
    return reasons


# -- self-test ----------------------------------------------------------------------

def self_test(reference: dict) -> list[str]:
    """Feed the gate good and deliberately broken outputs; return the gate's mistakes.

    Uses real library outputs as the good cases, so it also confirms that the
    oracle and the reference agree with the library at this commit.
    """
    from randers_disc.isoperimetry import PerturbationSpec, run_trials
    from randers_disc.variational import build_certificate

    mistakes = []
    a, cfg = 0.5, RandersConfig(0.3, "bh")
    spec = PerturbationSpec(seed=1, count=4)
    trials = run_trials(a, cfg, spec)
    good = trial_rows(trials)
    verdicts = check_trials(good, a, cfg, spec, 1024)
    if any(verdicts):
        mistakes.append(f"good trials counted as failed: {verdicts}")
    broken = [
        dataclasses.replace(trials[0], ok=False),
        dataclasses.replace(trials[1], a0_matched=trials[1].a0_matched + 10.0 * MATCH_TOL),
        dataclasses.replace(trials[2], delta_area=math.nan),
        dataclasses.replace(trials[3], length_err=10.0 * MATCH_TOL),
    ]
    verdicts = check_trials(trial_rows(broken), a, cfg, spec, 1024)
    for name, reasons in zip(("not-ok trial", "drifted a0_matched", "NaN delta_area", "length_err"), verdicts):
        if not reasons:
            mistakes.append(f"{name} passed the gate")

    probe_seed = 0
    cert = build_certificate(a, cfg, probe_seed=probe_seed)
    ref = reference["certificates"][point_key(a, cfg.b, cfg.form.value)]
    if check_certificate(cert, ref, probe_seed):
        mistakes.append(f"good certificate counted as failed: {check_certificate(cert, ref, probe_seed)}")
    broken_certs = {
        "NaN certificate field": dataclasses.replace(cert, weierstrass_max=math.nan),
        "drifted certificate field": dataclasses.replace(
            cert, second_variation_max=cert.second_variation_max * (1.0 + 10.0 * CERT_TOL)),
        "certificate that did not pass": dataclasses.replace(cert, passed=False),
    }
    for name, broken_cert in broken_certs.items():
        if not check_certificate(broken_cert, ref, probe_seed):
            mistakes.append(f"{name} passed the gate")
    return mistakes
