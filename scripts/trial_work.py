#!/usr/bin/env python3
"""Count the work run_trials does per trial at each (radius, drift) pair.

For each pair it prints, per trial, the length-integrand work of the
matcher: its rows ("integrand"), the rows of those on all 1024 nodes
("full"; the others are Newton iterates on a node subset) and the nodes
they hold ("nodes").  A trial is measured where the matcher stopped, so
there is no further length evaluation.  It also prints the draw rows whose
radius is summed on the nodes (one per draw, redrawn ones included, since
a draw is judged by its own p there), and ("ends") the rows the matcher
reported as not bracketed, whose bracket ends it evaluates for the
message.  It counts by wrapping three kernels where isoperimetry binds
them, so the circle that length and area measure is not counted; the
package has no counting switch.  The trials are the perturb-grid
workload's: form bh, epsilon 0.05, four harmonics and 1024 nodes, by
default 200 per pair at seed 1 on the nine pairs of radii 0.2, 0.5, 0.8
and drifts 0, 0.3, 0.7.
"""
import argparse
import sys
from collections import Counter

from randers_disc import PerturbationSpec, QuadratureGrid, RandersConfig, isoperimetry, run_trials

FORM = "bh"
EPSILON = 0.05
NODES = QuadratureGrid().n
# (module, kernel, counts of one call); on the trial path every call takes
# rows of samples, so the rows are the length of the first argument
KERNELS = (
    (isoperimetry, "length_integrand",
     lambda r, *_: {"integrand": len(r), "full": len(r) * (r.shape[-1] == NODES), "nodes": r.size}),
    (isoperimetry, "_radius_rows", lambda a0, *_: {"drawn": len(a0)}),
    (isoperimetry, "_bracket_ends", lambda lo, *_: {"ends": len(lo)}),
)


def count_trial_work(install=setattr) -> Counter:
    """Wrap the kernels of KERNELS so that every call adds its counts to the returned counter.

    install(module, name, wrapper) puts each wrapper in place; pytest's
    monkeypatch.setattr undoes it after the test.  "full" counts rows on
    the NODES nodes of the default grid.
    """
    counts = Counter()

    def counting(func, count):
        def wrapped(*args, **kwargs):
            counts.update(count(*args))
            return func(*args, **kwargs)

        return wrapped

    for module, name, count in KERNELS:
        install(module, name, counting(getattr(module, name), count))
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
    keys = ("integrand", "full", "nodes", "drawn", "ends")
    total = Counter()
    for a in args.radii:
        for b in args.drifts:
            counts.clear()
            batch = run_trials(a, RandersConfig(b, FORM), spec, QuadratureGrid(NODES))
            per = "  ".join(f"{key}={counts[key] / len(batch):.3f}" for key in keys)
            total.update(counts)
            print(f"a={a:<4} b={b:<4} {per}  failed={len(batch.notes)}")
    trials = spec.count * len(args.radii) * len(args.drifts)
    per = "  ".join(f"{key}={total[key] / trials:.3f}" for key in keys)
    print(f"# all pairs, per trial: {per}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
