#!/usr/bin/env python3
"""randers-disc benchmark: closed-loop workloads through the library's entry points.

Run from the root of a checkout:

    python3 perfbench/run.py --workload perturb-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client, one process, one thread, BLAS threads pinned to 1.  Each
workload calls ``isoperimetry.run_trials``, ``variational.build_certificate``
or ``cli.main`` back to back for ``--seconds`` (closed loop), then checks
every output with ``gate.py``.  With ``--trace 0`` it reports end-to-end
metrics; with ``--trace 1`` it runs the same calls untraced and then traced
(spans from ``spans.py``) and reports per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a report with the workload-specific metrics and the run context.
"""
from __future__ import annotations

import os

# pinned before numpy is imported, here and in every child interpreter
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

import argparse
import dataclasses
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

GRID_A = (0.2, 0.5, 0.8)
GRID_B = (0.0, 0.3, 0.7)
FORMS = ("bh", "ht", "max", "min")
GRID = [(a, b, form) for a in GRID_A for b in GRID_B for form in FORMS]
# the rim point whose certificate passes with min_abs_D = NaN at the commit
# that recorded reference.json; the gate must count it as failed
RIM = (0.99, 0.0, "bh")
PROBE_SEED_POOL = 8  # reference.json holds second_variation_max for probe seeds 0..7 (and 42)

README_COMMANDS = {
    "certificate": (["certificate", "--a", "0.5", "--b", "0.3", "--form", "bh"], "cert.json"),
    "perturb": (["perturb", "--a", "0.5", "--b", "0.3", "--form", "bh", "--trials", "200"], "trials.csv"),
    "conjugate": (["conjugate", "--a", "0.5", "--b", "0.3", "--form", "bh"], "scan.json"),
    "check_metric": (["check-metric", "--b", "0.5"], "metric.json"),
    "deficit_sweep": (["deficit-sweep", "--b", "0.3", "--a-min", "0.1", "--a-max", "0.9",
                       "--a-count", "9"], "sweep.csv"),
}

WORKLOADS = ("perturb-grid", "certify-grid", "perturb-wide", "cli-readme")
SETUP_SAMPLES = 7
# calls run in whole cycles, so every run of a workload visits the same
# points however fast the machine is: perturb-grid the nine (a, b) pairs,
# certify-grid all 37 points, at least four times (148 calls leave 14 beyond
# the p90), cli-readme the five README commands
CYCLE = {"perturb-grid": 9, "certify-grid": 37, "perturb-wide": 1, "cli-readme": 5}
MIN_CALLS = {"perturb-grid": 9, "certify-grid": 148, "perturb-wide": 1, "cli-readme": 5}

SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import randers_disc, randers_disc.cli\n"
    "randers_disc.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> list[float]:
    """Import randers_disc and build the CLI parser in fresh interpreters.

    One unrecorded run first, so that bytecode caches exist as they would
    for any user after the first invocation.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        if i:
            samples.append(float(proc.stdout.strip()))
    return samples


def l2_size() -> str:
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        return "unknown"


def run_context(args, derived: dict) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "l2_cache": l2_size(),
        "blas_threads": BLAS_ENV,
        "workload_seed": args.seed,
        **derived,
        "seconds": args.seconds,
        "clients": 1,
        "loop": "closed",
    }


# -- workloads -----------------------------------------------------------------------

@dataclasses.dataclass
class Record:
    op: object
    seconds: float
    output: object = None
    error: str | None = None


class PerturbWorkload:
    """run_trials calls; one op is one trial, one call is one run_trials call."""

    def __init__(self, name: str, seed: int):
        from randers_disc.functionals import QuadratureGrid
        from randers_disc.isoperimetry import PerturbationSpec

        self.name = name
        rng = random.Random(seed)
        if name == "perturb-grid":
            self.spec = PerturbationSpec(seed=seed, harmonics=4, epsilon=0.05, count=200)
            self.grid = QuadratureGrid(1024)
            # four blocks, each visiting the nine (a, b) pairs in a seeded
            # order with a seeded form; a run measures whole blocks, so every
            # run weighs each (a, b) pair's cost the same
            pairs = [(a, b) for a in GRID_A for b in GRID_B]
            forms = {pair: rng.sample(FORMS, len(FORMS)) for pair in pairs}
            self.points = [(a, b, forms[(a, b)][block])
                           for block in range(len(FORMS)) for a, b in rng.sample(pairs, len(pairs))]
        else:
            self.spec = PerturbationSpec(seed=seed, harmonics=8, epsilon=0.05, count=200)
            self.grid = QuadratureGrid(4096)
            self.points = [(0.5, 0.3, "bh")]
        self.derived = {"trial_seed": seed, "points": len(self.points)}

    def ops(self):
        while True:
            yield from self.points

    def execute(self, op):
        from randers_disc import isoperimetry
        from randers_disc.config import RandersConfig

        a, b, form = op
        return isoperimetry.run_trials(a, RandersConfig(b, form), self.spec, self.grid)

    def work(self, record: Record) -> int:
        return 0 if record.output is None else len(record.output)

    def check(self, record: Record, reference: dict) -> list[list[str]]:
        import gate
        from randers_disc.config import RandersConfig

        if record.error is not None:
            return [[f"raised {record.error}"]] * self.spec.count
        a, b, form = record.op
        rows = gate.trial_rows(record.output)
        return gate.check_trials(rows, a, RandersConfig(b, form), self.spec, self.grid.n)


class CertifyWorkload:
    """build_certificate calls over the acceptance grid plus the rim point."""

    name = "certify-grid"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.probe_seed = seed % PROBE_SEED_POOL
        self.points = rng.sample(GRID + [RIM], len(GRID) + 1)
        self.derived = {"probe_seed": self.probe_seed, "points": len(self.points)}

    def ops(self):
        while True:
            yield from self.points

    def execute(self, op):
        from randers_disc import variational
        from randers_disc.config import RandersConfig

        a, b, form = op
        return variational.build_certificate(a, RandersConfig(b, form), probe_seed=self.probe_seed)

    def work(self, record: Record) -> int:
        return 0 if record.output is None else 1

    def check(self, record: Record, reference: dict) -> list[list[str]]:
        import gate

        if record.error is not None:
            return [[f"raised {record.error}"]]
        ref = reference["certificates"][gate.point_key(*record.op)]
        return [gate.check_certificate(record.output, ref, self.probe_seed)]


class CliWorkload:
    """The five README commands through cli.main, cycled in a seeded order."""

    name = "cli-readme"

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        self.order = rng.sample(list(README_COMMANDS), len(README_COMMANDS))
        self.out_dir = out_dir
        self.first_output: dict[str, bytes] = {}
        self.derived = {"command_order": self.order}
        self._validate = None

    def ops(self):
        while True:
            yield from self.order

    def execute(self, op):
        from randers_disc import cli

        argv, filename = README_COMMANDS[op]
        path = self.out_dir / filename
        code = cli.main(argv + ["--output", str(path)])
        return code, path.read_bytes() if code == 0 else b""

    def work(self, record: Record) -> int:
        return 0 if record.output is None else 1

    def check(self, record: Record, reference: dict) -> list[list[str]]:
        import gate

        if record.error is not None:
            return [[f"raised {record.error}"]]
        code, data = record.output
        if code != 0:
            return [[f"exit code {code}"]]
        first = self.first_output.setdefault(record.op, data)
        reasons = [] if data == first else ["rerun output is not byte-identical"]
        if self._validate is None:
            self._validate = gate.schema_validator(ROOT / "docs" / "schemas")
        text = data.decode()
        ref = reference["cli"]
        try:
            reasons += self._check_text(record.op, text, ref, reference)
        except (ValueError, KeyError, TypeError) as exc:  # unparseable output
            reasons.append(f"output unreadable: {exc!r}")
        return [reasons]

    def _check_text(self, op: str, text: str, ref: dict, reference: dict) -> list[str]:
        import gate
        from randers_disc.config import RandersConfig
        from randers_disc.isoperimetry import PerturbationSpec

        if op == "certificate":
            doc = json.loads(text)
            reasons = self._validate(doc, "certificate.schema.json")
            cert_ref = reference["certificates"][gate.point_key(0.5, 0.3, "bh")]
            return reasons + gate.certificate_reasons(
                gate.certificate_doc_values(doc), doc["pass"], doc["conjugate"]["zero_crossing"],
                cert_ref, doc["config"]["seed"])
        if op == "perturb":
            rows = gate.perturb_csv_rows(text)
            spec = PerturbationSpec(seed=42, harmonics=4, epsilon=0.05, count=200)
            verdicts = gate.check_trials(rows, 0.5, RandersConfig(0.3, "bh"), spec, 1024)
            return [f"trial {i}: {r}" for i, rs in enumerate(verdicts) for r in rs]
        if op == "conjugate":
            doc = json.loads(text)
            return self._validate(doc, "conjugate.schema.json") + gate.conjugate_reasons(doc, ref["conjugate"])
        if op == "check_metric":
            doc = json.loads(text)
            return self._validate(doc, "check_metric.schema.json") + gate.check_metric_reasons(
                doc, ref["check_metric"])
        return gate.deficit_sweep_reasons(text, ref["deficit_sweep"])


def make_workload(name: str, seed: int, out_dir: Path):
    if name in ("perturb-grid", "perturb-wide"):
        return PerturbWorkload(name, seed)
    if name == "certify-grid":
        return CertifyWorkload(seed)
    return CliWorkload(seed, out_dir)


def run_ops(workload, ops, seconds: float | None, min_calls: int, cycle: int) -> list[Record]:
    """Closed loop: the next call starts when the previous one returns.

    With seconds=None, runs exactly the given ops (a replay).
    """
    records = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            output, error = workload.execute(op), None
        except Exception as exc:  # a raising call is a failed op, not a crash
            output, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        records.append(Record(op, t1 - t0, output, error))
        if seconds is not None and t1 - start >= seconds and len(records) >= min_calls \
                and len(records) % cycle == 0:
            break
    return records


def call_times(workload, records: list[Record]) -> list[float]:
    """Wall time per client call; a cli-readme call is one pass over the five commands."""
    times = [r.seconds for r in records]
    if isinstance(workload, CliWorkload):
        n = len(README_COMMANDS)
        return [sum(times[i:i + n]) for i in range(0, len(times) - n + 1, n)]
    return times


def check_all(workload, records: list[Record], reference: dict, known_defects: set):
    """(attempted, failed, unexpected failures, sample reasons)."""
    attempted = failed = unexpected = 0
    samples = []
    for record in records:
        for reasons in workload.check(record, reference):
            attempted += 1
            if reasons:
                failed += 1
                label = f"{workload.name} {record.op}"
                if not (isinstance(record.op, tuple) and _key(record.op) in known_defects):
                    unexpected += 1
                if len(samples) < 5:
                    samples.append(f"{label}: {'; '.join(reasons[:3])}")
    return attempted, failed, unexpected, samples


def _key(op) -> str:
    import gate

    return gate.point_key(*op)


# -- per-layer metrics ------------------------------------------------------------------

LAYER_FUNCS = {
    "curves": ("radius_batch", "batch", "check_admissible", "eval", "radius"),
    "functionals": ("length", "area", "length_integrand"),
    "isoperimetry": ("match_length", "generate_perturbations", "run_trials"),
    "variational": ("build_certificate", "el_residual", "normality", "weierstrass_E",
                    "hessian_velocity_form", "h1_along", "jacobi_coeffs", "conjugate_scan",
                    "hessian_blocks", "constraint_vector", "project_probe", "second_variation"),
    "metric": ("beta_covector", "potential", "yasuda_shimada_residual"),
}


def _count_rows(counters, args, result):
    counters["functionals.nodes_evaluated"] += len(args[0])


def _count_curves(counters, args, result):
    counters["isoperimetry.curves_returned"] += len(result)


TRACE_HOOKS = {
    "functionals.length_integrand": _count_rows,
    "functionals.signed_area_integrand": _count_rows,
    "isoperimetry.generate_perturbations": _count_curves,
}


def layer_metrics(tracer, calls: int, output_bytes: int, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics per client call (run_trials call, certificate, README pass)."""
    by = tracer.by_name()
    zero = [0, 0.0, 0.0]
    m = {}
    for layer, funcs in LAYER_FUNCS.items():
        for f in funcs:
            calls_f, _, self_f = by.get(f"{layer}.{f}", zero)
            m[f"{layer}.{f}.calls"] = metric(calls_f / calls, "calls/op")
            m[f"{layer}.{f}.self_s"] = metric(self_f / calls, "s/op")
    m["variational.lagrangian.calls"] = metric(by.get("variational.lagrangian", zero)[0] / calls, "calls/op")
    fd = [v for k, v in by.items() if k.startswith("fd.")]
    m["fd.calls"] = metric(sum(v[0] for v in fd) / calls, "calls/op")
    m["fd.self_s"] = metric(sum(v[2] for v in fd) / calls, "s/op")
    m["functionals.nodes_evaluated"] = metric(
        tracer.counters["functionals.nodes_evaluated"] / calls, "nodes/op")
    matches = by.get("isoperimetry.match_length", zero)[0]
    evals = (tracer.calls_under("functionals.length", "isoperimetry.match_length")
             + tracer.calls_under("functionals.length_integrand", "isoperimetry.match_length"))
    m["isoperimetry.length_evals_per_match"] = metric(evals / matches if matches else 0.0, "evals/match")
    checks = tracer.calls_under("curves.check_admissible", "isoperimetry.generate_perturbations")
    accepted = tracer.counters["isoperimetry.curves_returned"]
    m["isoperimetry.draw_accept_ratio"] = metric(accepted / checks if checks else 0.0, "ratio")
    m["cli.main.self_s"] = metric(by.get("cli.main", zero)[2] / calls, "s/op")
    m["cli.output_bytes"] = metric(output_bytes / calls, "bytes/op")
    m["trace.overhead_ratio"] = metric(traced_s / untraced_s, "ratio")
    return m


# -- one workload ------------------------------------------------------------------------

def run_workload(args) -> int:
    import gate
    import randers_disc
    import randers_disc.cli  # noqa: F401  (bound as randers_disc.cli for the tracer)
    from spans import Tracer

    reference = gate.load_reference()
    known_defects = set(reference["known_defects"])
    out_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, out_dir)
        setup = [] if args.trace else measure_setup()
        mistakes = gate.self_test(reference)
        # warm-up calls: imports done, lazy set-up finished before timing
        if isinstance(workload, CliWorkload):
            for op in ("check_metric", "deficit_sweep"):
                workload.execute(op)

        cycle = CYCLE[args.workload]
        report = {"workload": args.workload, "trace": args.trace}
        if not args.trace:
            records = run_ops(workload, workload.ops(), args.seconds, MIN_CALLS[args.workload], cycle)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            # per-layer metrics are per call and unbounded, so the traced run
            # needs no whole perturb-grid cycle; it replays the untraced calls
            untraced = run_ops(workload, workload.ops(), args.seconds / 2.0, 1,
                               1 if args.workload == "perturb-grid" else cycle)
            tracer = Tracer()
            tracer.install(randers_disc, TRACE_HOOKS)
            try:
                traced = []
                for op_id, rec in enumerate(untraced, start=1):
                    tracer.op_id = op_id
                    traced += run_ops(workload, [rec.op], None, 1, 1)
            finally:
                tracer.uninstall()
            records = untraced + traced
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path)

        attempted, failed, unexpected, samples = check_all(workload, records, reference, known_defects)
        correct = not mistakes and unexpected == 0
        report["context"] = run_context(args, workload.derived)
        report["attempted"] = attempted
        report["failed"] = failed
        report["failed_ratio"] = metric(failed / attempted, "ratio")
        report["failure_samples"] = samples
        report["self_test_mistakes"] = mistakes

        if not args.trace:
            times = call_times(workload, records)
            busy = sum(r.seconds for r in records)
            work = sum(workload.work(r) for r in records)
            metrics = {
                "setup_s": metric(statistics.median(setup), "s"),
                "ops_per_s": metric(work / busy, "1/s"),
                "peak_rss_mb": metric(peak_rss_mb, "MB"),
            }
            report["metrics"] = {**metrics,
                                 "call_s_p50": metric(statistics.median(times), "s"),
                                 **named_metrics(workload, records, times, work, busy)}
            report["setup_samples_s"] = setup
            report["call_samples_s"] = times
        else:
            calls = len(call_times(workload, traced))
            out_bytes = sum(len(r.output[1]) for r in traced
                            if isinstance(workload, CliWorkload) and r.output is not None)
            untraced_s = sum(r.seconds for r in untraced)
            traced_s = sum(r.seconds for r in traced)
            metrics = layer_metrics(tracer, calls, out_bytes, untraced_s, traced_s)
            report["metrics"] = metrics
            report["trace"] = {"file": str(trace_path.relative_to(ROOT)), "calls": calls,
                               "overhead_base_untraced_s": untraced_s, "traced_s": traced_s,
                               "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def named_metrics(workload, records, times, work, busy) -> dict:
    """The workload's metrics under the names users read them by."""
    if isinstance(workload, PerturbWorkload):
        return {"trials_per_s": metric(work / busy, "1/s"),
                "run_trials_s_p50": metric(statistics.median(times), "s")}
    if isinstance(workload, CertifyWorkload):
        return {"certs_per_s": metric(work / busy, "1/s"),
                "cert_s_p50": metric(statistics.median(times), "s"),
                "cert_s_p90": {**metric(percentile(times, 0.9), "s"), "samples": len(times),
                               "beyond_p90": sum(t > percentile(times, 0.9) for t in times)}}
    out = {}
    for name in README_COMMANDS:
        per = [r.seconds for r in records if r.op == name]
        out[f"cli_{name}_s"] = {**metric(statistics.median(per), "s"), "samples": len(per)}
    return out


# -- breakdown and the all-workloads runner -------------------------------------------------

def run_breakdown(args) -> dict:
    """ROADMAP's baseline table: run_trials and build_certificate at (0.5, 0.3, bh)."""
    import randers_disc
    import randers_disc.cli  # noqa: F401
    from randers_disc import isoperimetry, variational
    from randers_disc.config import RandersConfig
    from randers_disc.isoperimetry import PerturbationSpec
    from spans import Tracer

    cfg = RandersConfig(0.3, "bh")
    spec = PerturbationSpec(seed=args.seed, count=200)
    probe_seed = args.seed % PROBE_SEED_POOL
    calls = {
        "run_trials": lambda: isoperimetry.run_trials(0.5, cfg, spec),
        "build_certificate": lambda: variational.build_certificate(0.5, cfg, probe_seed=probe_seed),
    }
    untraced = {}
    for name, call in calls.items():
        t0 = time.perf_counter()
        call()
        untraced[name] = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install(randers_disc, TRACE_HOOKS)
    try:
        for call in calls.values():
            call()
    finally:
        tracer.uninstall()
    by = tracer.by_name()

    def share(part: str, whole: str) -> dict:
        return {"traced_s": by[part][1], "share_of": whole, "share": by[part][1] / by[whole][1]}

    matches = by["isoperimetry.match_length"][0]
    evals = (tracer.calls_under("functionals.length", "isoperimetry.match_length")
             + tracer.calls_under("functionals.length_integrand", "isoperimetry.match_length"))
    return {
        "point": [0.5, 0.3, "bh"], "trial_seed": args.seed, "probe_seed": probe_seed,
        "run_trials_s": metric(untraced["run_trials"], "s"),
        "match_length": {**share("isoperimetry.match_length", "isoperimetry.run_trials"),
                         "length_evals_per_match": evals / matches},
        "radius_batch": share("curves.radius_batch", "isoperimetry.run_trials"),
        "generate_perturbations": share("isoperimetry.generate_perturbations", "isoperimetry.run_trials"),
        "build_certificate_s": metric(untraced["build_certificate"], "s"),
        "conjugate_scan": share("variational.conjugate_scan", "variational.build_certificate"),
    }


def run_all(args) -> int:
    """Every workload untraced and traced, the breakdown, and one table."""
    rows = []
    correct = True
    attempted = failed = 0
    final_metrics = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace} failed (exit {proc.returncode}):\n{proc.stderr}", file=sys.stderr)
                return 1
            report = json.loads(lines[-2])["report"]
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            if not trace:
                attempted += result["attempted"]
                failed += result["failed"]
                report["metrics"]["failed_ratio"] = report["failed_ratio"]
            for key, m in report["metrics"].items():
                rows.append((name, key, m))
                final_metrics[f"{name}.{key}"] = {"value": m["value"], "unit": m["unit"]}
            if not trace:
                print(f"# {name}: attempted {report['attempted']}, failed {report['failed']}; "
                      f"context {json.dumps(report['context'])}")
                for sample in report["failure_samples"]:
                    print(f"#   failed: {sample}")
            else:
                print(f"# {name}: trace overhead base {report['trace']['overhead_base_untraced_s']:.3f} s "
                      f"untraced, {report['trace']['traced_s']:.3f} s traced; spans in {report['trace']['file']}")
    for name, key, m in rows:
        extra = "".join(f" {k}={m[k]}" for k in m if k not in ("value", "unit"))
        print(f"{name:<13} {key:<44} {m['value']:<24.6g} {m['unit']}{extra}")
    breakdown = run_breakdown(args)
    print("# breakdown " + json.dumps(breakdown))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": final_metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all", "breakdown", "self-test"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "randers_disc" / "__init__.py").is_file():
        print(f"error: {SRC / 'randers_disc'} not found; run from the root of a randers-disc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return run_all(args)
    if args.workload == "breakdown":
        print(json.dumps(run_breakdown(args)))
        return 0
    if args.workload == "self-test":
        import gate

        mistakes = gate.self_test(gate.load_reference())
        print(json.dumps({"self_test_mistakes": mistakes}))
        return 1 if mistakes else 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
