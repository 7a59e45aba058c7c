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
from .isoperimetry import PerturbationSpec, deficit_value, run_trials
from .metric import check_metric
from .variational import CERT_TOL, build_certificate, conjugate_scan, determinant_curve, lambda_for_circle


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Parsed flags.

    argparse leaves an unset flag at None and main drops None values, so
    these field defaults apply. The values the library also uses are read
    from it; the rest are the only copy.
    """

    command: str
    a: float = 0.5
    b: float = 0.0
    form: str = "bh"
    n: int = QuadratureGrid.n
    tol: float = CERT_TOL
    trials: int = PerturbationSpec.count
    epsilon: float = PerturbationSpec.epsilon
    harmonics: int = PerturbationSpec.harmonics
    seed: int = PerturbationSpec.seed
    a_min: float = 0.1
    a_max: float = 0.9
    a_count: int = 9
    output: str | None = None

    def __post_init__(self):
        for name, value in dataclasses.asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"--{name.replace('_', '-')} must be finite, got {value}")
        # the EL residual and the deficit are absolute values, so no run could pass
        if self.tol < 0.0:
            raise DomainError(f"--tol must be nonnegative, got {self.tol}")
        # checked before any computation, so a long run cannot end in a failed write
        if self.output and not os.path.isdir(os.path.dirname(os.path.abspath(self.output))):
            raise DomainError(f"--output directory does not exist: {self.output}")

    def echo(self) -> dict:
        # the output path plays no part in the computation; leaving it out
        # keeps reruns byte-identical regardless of where they are written
        d = dataclasses.asdict(self)
        d.pop("output")
        return d


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


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        _write_atomic(cfg.output, text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_text(cfg: RunConfig, header: list[str], rows: list[list]) -> str:
    lines = ["# config " + json.dumps(cfg.echo(), sort_keys=True, allow_nan=False)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def cmd_certificate(cfg: RunConfig) -> int:
    rc = RandersConfig(cfg.b, cfg.form)
    cert = build_certificate(cfg.a, rc, tol=cfg.tol, probe_seed=cfg.seed)
    doc = {"config": cfg.echo(), **cert.to_json_dict()}
    _emit(cfg, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return 0 if cert.passed else 1


def cmd_perturb(cfg: RunConfig) -> int:
    rc = RandersConfig(cfg.b, cfg.form)
    spec = PerturbationSpec(
        seed=cfg.seed, harmonics=cfg.harmonics, epsilon=cfg.epsilon, count=cfg.trials
    )
    results = run_trials(cfg.a, rc, spec, QuadratureGrid(cfg.n))
    header = ["index", "a0_matched", "length", "area", "delta_area", "deficit", "ok"]
    rows = [
        [r.index, r.a0_matched, r.length, r.area, r.delta_area, r.deficit, int(r.ok)]
        for r in results
    ]
    _emit(cfg, _csv_text(cfg, header, rows))
    return 0 if all(r.ok for r in results) else 1


def cmd_conjugate(cfg: RunConfig) -> int:
    rc = RandersConfig(cfg.b, cfg.form)
    lam = lambda_for_circle(cfg.a, rc)
    report = conjugate_scan(Circle(cfg.a), rc.kappa, lam)
    cs, Ds = determinant_curve(report.coeffs)
    doc = {
        "config": cfg.echo(),
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


def cmd_check_metric(cfg: RunConfig) -> int:
    rc = RandersConfig(cfg.b, cfg.form)
    doc = {"config": cfg.echo(), "b": rc.b, "form": rc.form.value, **check_metric(rc)}
    _emit(cfg, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return 0 if doc["pass"] else 1


def cmd_deficit_sweep(cfg: RunConfig) -> int:
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


_DISPATCH = {
    "certificate": cmd_certificate,
    "perturb": cmd_perturb,
    "conjugate": cmd_conjugate,
    "check-metric": cmd_check_metric,
    "deficit-sweep": cmd_deficit_sweep,
}


def _add_common(sp: argparse.ArgumentParser, *, circle: bool, reads: tuple[str, ...]) -> None:
    if circle:
        sp.add_argument("--a", type=float, help="circle radius in (0, 1)")
    sp.add_argument("--b", type=float, help="drift strength, 0 <= b < 1")
    if circle:
        sp.add_argument(
            "--form", choices=[f.value for f in VolumeForm], required=True, help="volume form"
        )
    # only the flags the subcommand reads, so an ignored one is a usage error
    if "n" in reads:
        sp.add_argument("--n", type=int, help="quadrature nodes (power of two >= 256)")
    if "tol" in reads:
        sp.add_argument("--tol", type=float, help="verification tolerance")
    if "seed" in reads:
        sp.add_argument("--seed", type=int, help="random seed")
    sp.add_argument("--output", type=str, help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randers-disc",
        description="Isoperimetric sufficiency checks for circles in the Randers Poincare disc.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("certificate", help="run all sufficiency checks for one circle")
    _add_common(sp, circle=True, reads=("tol", "seed"))

    sp = sub.add_parser("perturb", help="length-matched perturbation trials")
    _add_common(sp, circle=True, reads=("n", "seed"))
    sp.add_argument("--trials", type=int, help="number of perturbations")
    sp.add_argument("--epsilon", type=float, help="coefficient scale")
    sp.add_argument("--harmonics", type=int, help="max perturbation harmonic")

    sp = sub.add_parser("conjugate", help="Jacobi determinant scan over one period")
    _add_common(sp, circle=True, reads=())

    sp = sub.add_parser("check-metric", help="drift norm, potential gradient, flag-curvature residual")
    _add_common(sp, circle=False, reads=())

    sp = sub.add_parser("deficit-sweep", help="isoperimetric deficit of circles over a radius grid")
    _add_common(sp, circle=False, reads=("n", "tol"))
    sp.add_argument("--a-min", type=float, help="sweep start radius")
    sp.add_argument("--a-max", type=float, help="sweep end radius")
    sp.add_argument("--a-count", type=int, help="sweep point count")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    kwargs = {k: v for k, v in vars(ns).items() if v is not None}
    try:
        cfg = RunConfig(**kwargs)
        return _DISPATCH[cfg.command](cfg)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
