#!/usr/bin/env python3
"""Run extremality certificates over a (radius, drift, form) grid.

Prints one line per grid point with the headline numbers, then a footer
with the wall time, the mean milliseconds per certificate and the failure
count; exits nonzero if any certificate fails.
"""
import argparse
import sys
import time

from randers_disc import RandersConfig, VolumeForm, build_certificate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radii", type=float, nargs="+", default=[0.2, 0.5, 0.8])
    ap.add_argument("--drifts", type=float, nargs="+", default=[0.0, 0.3, 0.7])
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    failures = count = 0
    t0 = time.perf_counter()
    for a in args.radii:
        for b in args.drifts:
            for form in VolumeForm:
                cfg = RandersConfig(b, form)
                cert = build_certificate(a, cfg, probe_seed=args.seed)
                status = "pass" if cert.passed else "FAIL"
                # a scan that raised leaves no report, and the certificate fails
                min_d = "n/a" if cert.conjugate is None else f"{cert.conjugate.min_abs_D:.3e}"
                print(
                    f"a={a:<4} b={b:<4} form={form.value:<4} {status}  "
                    f"lam={cert.lam:+.6f}  el={cert.el_residual_max:.2e}  "
                    f"E_max={cert.weierstrass_max:+.3e}  J''_max={cert.second_variation_max:+.3e}  "
                    f"minD={min_d}"
                )
                failures += 0 if cert.passed else 1
                count += 1
    elapsed = time.perf_counter() - t0
    print(f"# {elapsed:.1f}s, {1e3 * elapsed / count:.2f} ms per certificate, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
