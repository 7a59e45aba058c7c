"""Command-line front end.

Subcommands: certificate, perturb, conjugate, check-metric, deficit-sweep.
Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
Reports carry a config echo sufficient to reproduce the run; files are
written atomically (write-then-rename) after all computation completes.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from .config import RandersConfig, VolumeForm
from .curves import Circle
from .errors import DomainError, VerificationError
from .functionals import QuadratureGrid, area, length
from .isoperimetry import PerturbationSpec, TrialBatch, deficit_value, run_trials
from .metric import check_metric
from .variational import CERT_TOL, build_certificate, conjugate_scan, determinant_curve, lambda_for_circle


def _check(cfg: argparse.Namespace) -> None:
    """Reject flag values no run could use, before anything is computed."""
    for name in _FLAGS:
        value = getattr(cfg, name, None)
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"--{name.replace('_', '-')} must be finite, got {value}")
    # the EL residual and the deficit are absolute values, so no run could pass
    if getattr(cfg, "tol", 0.0) < 0.0:
        raise DomainError(f"--tol must be nonnegative, got {cfg.tol}")
    # checked before any computation, so a long run cannot end in a failed write
    if cfg.output and not os.path.isdir(os.path.dirname(os.path.abspath(cfg.output))):
        raise DomainError(f"--output directory does not exist: {cfg.output}")
    if cfg.output and os.path.isdir(cfg.output):
        raise DomainError(f"--output is a directory, not a file: {cfg.output}")


def _echo(cfg: argparse.Namespace) -> dict:
    # only the subcommand's flags; the output path plays no part in the
    # computation, and leaving it out keeps reruns byte-identical regardless
    # of where they are written
    return {"command": cfg.command, **{name: getattr(cfg, name) for name in _COMMANDS[cfg.command][2]}}


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd_, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd_, "w") as fh:
            fh.write(text)
            # mkstemp creates the file 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: argparse.Namespace, text: str) -> None:
    if cfg.output:
        _write_atomic(cfg.output, text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_text(cfg: argparse.Namespace, header: list[str], rows: list[list]) -> str:
    lines = ["# config " + json.dumps(_echo(cfg), sort_keys=True, allow_nan=False)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def cmd_certificate(cfg: argparse.Namespace) -> int:
    rc = RandersConfig(cfg.b, cfg.form)
    cert = build_certificate(cfg.a, rc, tol=cfg.tol, probe_seed=cfg.seed)
    doc = {"config": _echo(cfg), **cert.to_json_dict()}
    _emit(cfg, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return 0 if cert.passed else 1


def cmd_perturb(cfg: argparse.Namespace) -> int:
    rc = RandersConfig(cfg.b, cfg.form)
    spec = PerturbationSpec(
        seed=cfg.seed, harmonics=cfg.harmonics, epsilon=cfg.epsilon, count=cfg.trials
    )
    results = run_trials(cfg.a, rc, spec, QuadratureGrid(cfg.n))
    header = ["index", "a0_matched", "length", "area", "delta_area", "deficit", "ok"]
    # read straight from the batch's columns, without building a TrialResult per trial
    columns = [TrialBatch.FIELDS.index(name) for name in header[1:-1]]
    rows = [
        [index, *numbers, int(ok)]
        for index, (numbers, ok) in enumerate(zip(results.numbers[:, columns].tolist(), results.ok.tolist()))
    ]
    _emit(cfg, _csv_text(cfg, header, rows))
    return 0 if results.ok.all() else 1


def cmd_conjugate(cfg: argparse.Namespace) -> int:
    rc = RandersConfig(cfg.b, cfg.form)
    lam = lambda_for_circle(cfg.a, rc)
    report = conjugate_scan(Circle(cfg.a), rc.kappa, lam)
    cs, Ds = determinant_curve(report.coeffs)
    doc = {
        "config": _echo(cfg),
        "lambda": lam,
        "jacobi": dataclasses.asdict(report.coeffs),
        "zero_crossing": report.zero_crossing,
        "min_abs_D": report.min_abs_D,
        "step_halving": report.step_halving,
        "c_values": cs.tolist(),
        "D_values": Ds.tolist(),
    }
    _emit(cfg, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return 0 if not report.zero_crossing else 1


def cmd_check_metric(cfg: argparse.Namespace) -> int:
    rc = RandersConfig(cfg.b)
    doc = {"config": _echo(cfg), "b": rc.b, **check_metric(rc)}
    _emit(cfg, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return 0 if doc["pass"] else 1


def cmd_deficit_sweep(cfg: argparse.Namespace) -> int:
    if not (0.0 < cfg.a_min <= cfg.a_max < 1.0) or cfg.a_count < 1:
        raise DomainError("sweep grid must satisfy 0 < a_min <= a_max < 1 and a_count >= 1")
    grid = QuadratureGrid(cfg.n)
    header = ["a", "L", "A_bh", "A_ht", "A_max", "A_min", "deficit"]
    rows = []
    worst = 0.0
    # every form's area is its kappa times the Green integral, which is the
    # Holmes-Thompson area since kappa_ht = 1
    rc_ht = RandersConfig(cfg.b, VolumeForm.HOLMES_THOMPSON)
    kappas = {form.value: RandersConfig(cfg.b, form).kappa for form in VolumeForm}
    for a in np.linspace(cfg.a_min, cfg.a_max, cfg.a_count):
        circle = Circle(float(a))
        green = area(circle, rc_ht, grid).value
        areas = {form: kap * green for form, kap in kappas.items()}
        L = length(circle, rc_ht, grid).value
        deficit = deficit_value(L, areas["ht"], rc_ht)
        worst = max(worst, abs(deficit))
        rows.append(
            [float(a), L, areas["bh"], areas["ht"], areas["max"], areas["min"], deficit]
        )
    _emit(cfg, _csv_text(cfg, header, rows))
    return 0 if worst <= cfg.tol else 1


# name -> (type, library default, help), in the order reports echo them;
# --form has no default, it is a required choice
_FLAGS = {
    "a": (float, 0.5, "circle radius in (0, 1)"),
    "b": (float, 0.0, "drift strength, 0 <= b < 1"),
    "form": (VolumeForm, None, "volume form"),
    "n": (int, QuadratureGrid.n, "quadrature nodes (power of two >= 256)"),
    "tol": (float, CERT_TOL, "verification tolerance"),
    "trials": (int, PerturbationSpec.count, "number of perturbations"),
    "epsilon": (float, PerturbationSpec.epsilon, "coefficient scale"),
    "harmonics": (int, PerturbationSpec.harmonics, "max perturbation harmonic"),
    "seed": (int, PerturbationSpec.seed, "random seed"),
    "a_min": (float, 0.1, "sweep start radius"),
    "a_max": (float, 0.9, "sweep end radius"),
    "a_count": (int, 9, "sweep point count"),
}

# subcommand -> (function, help, the flags it reads and echoes, in _FLAGS order);
# only these flags are accepted, so one the subcommand would ignore is a usage error
_COMMANDS = {
    "certificate": (
        cmd_certificate, "run all sufficiency checks for one circle", ("a", "b", "form", "tol", "seed")
    ),
    "perturb": (
        cmd_perturb,
        "length-matched perturbation trials",
        ("a", "b", "form", "n", "trials", "epsilon", "harmonics", "seed"),
    ),
    "conjugate": (cmd_conjugate, "Jacobi determinant scan over one period", ("a", "b", "form")),
    "check-metric": (cmd_check_metric, "drift norm, potential gradient, flag-curvature residual", ("b",)),
    "deficit-sweep": (
        cmd_deficit_sweep,
        "isoperimetric deficit of circles over a radius grid",
        ("b", "n", "tol", "a_min", "a_max", "a_count"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randers-disc",
        description="Isoperimetric sufficiency checks for circles in the Randers Poincare disc.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for name in flags:
            kind, default, flag_help = _FLAGS[name]
            flag = "--" + name.replace("_", "-")
            if kind is VolumeForm:
                sp.add_argument(flag, choices=[f.value for f in VolumeForm], required=True, help=flag_help)
            else:
                sp.add_argument(flag, type=kind, default=default, help=flag_help)
        sp.add_argument("--output", type=str, help="write the report to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        cfg = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        _check(cfg)
        return _COMMANDS[cfg.command][0](cfg)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
