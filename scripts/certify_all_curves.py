#!/usr/bin/env python3
"""Certification sweep over all twelve descent curves.

Runs the 3-adic coset driver on every curve (Strassman on the rank-1
curves, Skolem on the rank-2 curve), then the full height/box
certification on each, and prints a one-line verdict per curve with the
number m of doublings after which its box ranges were decided ("undecided"
if they were taken at the upper endpoints after MAX_DOUBLINGS), the bound
C' with 2 hhat - h <= C', and its box classes.  The tier-1 acceptance
suite checks the survivors of E1, E8 and E10 against an exact oracle; this
script certifies all twelve with the same per-curve coefficient ranges and
compares each curve's box classes with BOX_CLASSES, since a sieve that
dropped a true point would still certify.  Each line gives the time of
the bound C (`height_diff_bound`, about 0.02 s) apart from the rest of the
certification.  The sweep takes about 5 s (4.8-6.0 s in seven runs, against
5.3-7.9 s for the root finding by mpmath's polyroots that the epsilons used
before) on one core of a shared 2-core VM with Python 3.11.  Exits with
status 1 if any curve's certification FAILED or its box classes differ from
the table.

Usage:  python3 scripts/certify_all_curves.py [curve_id ...]
"""

import sys
import time

from lucassq.curves import CURVES, CURVE_BY_ID
from lucassq.heights import certify_generators, height_diff_bound
from lucassq.padic import rank1_driver, rank2_driver

# the names of each curve's box survivors, as sets
BOX_CLASSES = {
    "E1": {"0G+T"},
    "E2": {"0G+T"},
    "E3": {"-1G+T", "0G+T"},
    "E4": {"-1G+T", "0G+T"},
    "E5": {"-1G", "0G+T"},
    "E6": {"-1G", "-1G+T", "0G+T"},
    "E7": {"-1G", "0G+T"},
    "E8": {"-2G+T", "-1G", "-1G+T", "0G+T"},
    "E9": {"-1G", "-1G+T", "0G+T"},
    "E10": {"0P1+0P2+T", "-1P1+0P2", "-1P1+0P2+T", "0P1+-1P2", "0P1+-1P2+T",
            "-1P1+-1P2", "-1P1+-1P2+T", "-1P1+-2P2", "-1P1+-2P2+T",
            "0P1+-2P2+T", "-2P1+-2P2+T"},
    "E11": {"-1G", "-1G+T", "0G+T"},
    "E12": {"-2G+T", "-1G", "-1G+T", "0G+T"},
}


def run_one(curve):
    t0 = time.monotonic()
    driver = rank2_driver if curve.rank == 2 else rank1_driver
    result = driver(curve)
    t_driver = time.monotonic() - t0

    t0 = time.monotonic()
    height_diff_bound(curve.id)            # cached for certify_generators
    t_bound = time.monotonic() - t0

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
          f"C in {t_bound:5.2f}s  "
          f"heights: {verdict} in {t_cert:6.1f}s  {depth}  "
          f"box classes: {names}")
    if set(names) != BOX_CLASSES[curve.id]:
        print(f"{curve.id}: box classes differ from "
              f"{sorted(BOX_CLASSES[curve.id])}")
        return False
    return not verdict.startswith("FAILED")


def main(argv) -> int:
    ids = argv or [c.id for c in CURVES]
    ok = [run_one(CURVE_BY_ID[cid]) for cid in ids]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
