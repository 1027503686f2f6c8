#!/usr/bin/env python3
"""Certification sweep over all twelve descent curves.

Runs the 3-adic coset driver on every curve (Strassman on the rank-1
curves, Skolem on the rank-2 curve), then the full height/box
certification on each, and prints a one-line verdict per curve with the
number m of doublings after which its box ranges were decided ("undecided"
if they were taken at the upper endpoints after MAX_DOUBLINGS), the bound
C' with 2 hhat - h <= C', and its box classes.  The tier-1 acceptance
suite certifies E1, E8 and E10; this script covers all twelve with the
same per-curve coefficient ranges, in about 13 s (12.4-14.5 s in three
runs, Python 3.11) on one core of a 2-core VM.  Exits with status 1 if
any curve's certification FAILED.

Usage:  python3 scripts/certify_all_curves.py [curve_id ...]
"""

import sys
import time

from lucassq.curves import CURVES, CURVE_BY_ID
from lucassq.heights import certify_generators
from lucassq.padic import rank1_driver, rank2_driver


def run_one(curve):
    t0 = time.monotonic()
    driver = rank2_driver if curve.rank == 2 else rank1_driver
    result = driver(curve)
    t_driver = time.monotonic() - t0

    t0 = time.monotonic()
    try:
        cert = certify_generators(curve)
        verdict = cert.conclusion
        names = cert.survivor_names
        depth = (f"m {cert.doublings}"
                 f"{'' if cert.ranges_decided else ' (undecided)'}  "
                 f"C' {cert.bound_c_upper:.4f}")
    except ArithmeticError as exc:
        verdict, names, depth = f"FAILED ({exc})", [], ""
    t_cert = time.monotonic() - t0

    print(f"{curve.id:4s} rank {curve.rank}  "
          f"driver: {len(result.survivors):2d} survivors in {t_driver:6.1f}s  "
          f"heights: {verdict} in {t_cert:6.1f}s  {depth}  "
          f"box classes: {names}")
    return not verdict.startswith("FAILED")


def main(argv) -> int:
    ids = argv or [c.id for c in CURVES]
    ok = [run_one(CURVE_BY_ID[cid]) for cid in ids]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
