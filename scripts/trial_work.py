#!/usr/bin/env python3
"""Count the work run_trials does per trial at each (radius, drift) pair.

For each pair it prints, per trial, the rows of the length integrand
evaluated on the quadrature nodes (matching and the final measurement),
the draws checked on the sampled admissibility grid, and ("ends") the rows
the matcher reported as not bracketed, whose bracket ends it evaluates
for the message.  It counts by wrapping three kernels
of the package from outside; the package has no counting switch.  The
trials are the perturb-grid workload's: form bh, epsilon 0.05, four
harmonics and 1024 nodes, by default 200 per pair at seed 1 on the nine
pairs of radii 0.2, 0.5, 0.8 and drifts 0, 0.3, 0.7.
"""
import argparse
import sys
from collections import Counter

from randers_disc import PerturbationSpec, QuadratureGrid, RandersConfig, curves, isoperimetry, run_trials

FORM = "bh"
EPSILON = 0.05
# (module, kernel, counter, rows in one call); on the trial path every call
# takes rows of samples, so the rows are the length of the first argument
KERNELS = (
    (isoperimetry, "length_integrand", "integrand", lambda r, *_: len(r)),
    (curves, "_admissible_rows", "sampled", lambda r, rd: len(r)),
    (isoperimetry, "_bracket_ends", "ends", lambda lo, *_: len(lo)),
)


def count_trial_work(install=setattr) -> Counter:
    """Wrap the kernels of KERNELS so that every call adds its rows to the returned counter.

    install(module, name, wrapper) puts each wrapper in place; pytest's
    monkeypatch.setattr undoes it after the test.
    """
    counts = Counter()

    def counting(func, key, rows):
        def wrapped(*args, **kwargs):
            counts[key] += rows(*args)
            return func(*args, **kwargs)

        return wrapped

    for module, name, key, rows in KERNELS:
        install(module, name, counting(getattr(module, name), key, rows))
    return counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radii", type=float, nargs="+", default=[0.2, 0.5, 0.8])
    ap.add_argument("--drifts", type=float, nargs="+", default=[0.0, 0.3, 0.7])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    counts = count_trial_work()
    spec = PerturbationSpec(seed=args.seed, epsilon=EPSILON, count=args.trials)
    total = Counter()
    for a in args.radii:
        for b in args.drifts:
            counts.clear()
            batch = run_trials(a, RandersConfig(b, FORM), spec, QuadratureGrid(1024))
            per = {key: counts[key] / len(batch) for key in ("integrand", "sampled", "ends")}
            total.update(counts)
            print(f"a={a:<4} b={b:<4} integrand={per['integrand']:.3f}  "
                  f"sampled={per['sampled']:.3f}  ends={per['ends']:.3f}  failed={len(batch.notes)}")
    trials = spec.count * len(args.radii) * len(args.drifts)
    print(f"# all pairs: integrand={total['integrand'] / trials:.3f}  "
          f"sampled={total['sampled'] / trials:.3f}  ends={total['ends'] / trials:.3f} rows per trial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
