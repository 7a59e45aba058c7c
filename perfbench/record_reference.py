#!/usr/bin/env python3
"""Record perfbench/reference.json from the library as it stands.

Run from the root of a checkout:

    python3 perfbench/record_reference.py

Records every certificate field at the 36 acceptance-grid points and the rim
point (second_variation_max for each probe seed the certify-grid workload can
use, plus the CLI default 42), and the numbers of the conjugate,
check-metric and deficit-sweep README commands.  Re-record only on purpose:
the gate treats any later drift from these values beyond the library's
tolerances as a failed operation.
"""
from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import gate  # noqa: E402
from randers_disc import cli  # noqa: E402
from randers_disc.config import RandersConfig  # noqa: E402
from randers_disc.variational import build_certificate  # noqa: E402

PROBE_SEEDS = list(range(run.PROBE_SEED_POOL)) + [42]


def clean(x):
    """JSON-safe copy: non-finite floats become null."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        return {k: clean(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [clean(v) for v in x]
    return x


def record_certificates() -> dict:
    out = {}
    for a, b, form in run.GRID + [run.RIM]:
        fields = None
        sv = {}
        for seed in PROBE_SEEDS:
            values = gate.certificate_values(build_certificate(a, RandersConfig(b, form), probe_seed=seed))
            sv[str(seed)] = values.pop("second_variation_max")
            if fields is None:
                fields = values
            elif json.dumps(clean(values)) != json.dumps(clean(fields)):
                raise SystemExit(f"probe seed {seed} changed a seed-independent field at {(a, b, form)}")
        out[gate.point_key(a, b, form)] = {"fields": fields, "second_variation_max": sv}
        print(f"certificate {(a, b, form)} recorded", file=sys.stderr)
    return out


def record_cli(tmp: Path) -> dict:
    docs = {}
    for name in ("conjugate", "check_metric", "deficit_sweep"):
        argv, filename = run.README_COMMANDS[name]
        path = tmp / filename
        if cli.main(argv + ["--output", str(path)]) != 0:
            raise SystemExit(f"README command {name} failed")
        docs[name] = path.read_text()
    conj = json.loads(docs["conjugate"])
    metric = json.loads(docs["check_metric"])
    _, header, body = gate.parse_csv(docs["deficit_sweep"])
    return {
        "conjugate": {"lambda": conj["lambda"], **conj["jacobi"], "min_abs_D": conj["min_abs_D"],
                      "step_halving": conj["step_halving"]},
        "check_metric": {k: metric[k] for k in ("norm_deviation_max", "gradient_mismatch_max",
                                                "yasuda_shimada_max")},
        "deficit_sweep": {"header": header, "rows": [[float(v) for v in row] for row in body]},
    }


def main() -> int:
    tmp = run.OUT_DIR / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        reference = {
            "known_defects": [gate.point_key(*run.RIM)],
            "certificates": record_certificates(),
            "cli": record_cli(tmp),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    gate.REFERENCE_PATH.write_text(json.dumps(clean(reference), indent=1, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
