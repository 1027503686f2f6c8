#!/usr/bin/env python3
"""Generator certification sweep over all twelve descent curves.

Runs the full height/box certification on each curve and prints a
one-line verdict per curve with the number m of doublings after which its
box ranges were decided ("undecided" if they were taken at the upper
endpoints after MAX_DOUBLINGS), the bound C' with 2 hhat - h <= C', and
its box classes.  The 3-adic drivers are not run here: `verify-theorem`
runs them, and its certificate is pinned by digest.  The tier-1 acceptance
suite checks the survivors of E1, E8 and E10 against an exact oracle; this
script certifies all twelve and compares each certificate with
CERTIFICATES: the doublings, whether the ranges were decided, the box
ranges of each cap and the survivor names in order.  A sieve that dropped
a true point would still certify, and a change to the box search could
reorder its survivors.  Each line gives the time of the bound C
(`height_diff_bound`, about 0.02 s) apart from the rest of the
certification, and a last line gives the total time and its split into C
and heights.  The sweep takes about 2 s wall at a 41 MiB peak (1.9-2.3 s
in three runs) on a shared 2-core VM with Python 3.11.  Exits with status
1 if any curve's certification FAILED or a pinned field differs from the
table, after printing the first such field.

Usage:  python3 scripts/certify_all_curves.py [curve_id ...]
"""

import sys
import time

from lucassq.curves import CURVES, CURVE_BY_ID
from lucassq.heights import certify_generators, height_diff_bound

# Each curve's certificate, pinned: the doublings m after which its box
# ranges were decided, whether they were, the ranges of each shape, and the
# names of the box survivors in the order of the box search; on E10 also
# the ranges and survivor names of the second cap.
K1_SHAPES = ("quartic", "quadratic", "linear", "quartic-halfint",
             "quadratic-halfint")
K2_SHAPES = ("quartic", "quadratic", "linear")
E10_NAMES = ["0P1+-2P2+T", "-2P1+-2P2+T", "0P1+-1P2+T", "-1P1+-1P2",
             "-1P1+-1P2+T", "0P1+-1P2", "-1P1+0P2+T", "-1P1+-2P2+T",
             "-1P1+-2P2", "-1P1+0P2", "0P1+0P2+T"]


def _pin(m, tags, ranges, names, ranges2=None, names2=None):
    """The pinned fields of a certificate whose ranges were decided."""
    cert = {"doublings": m, "ranges_decided": True,
            "shapes": list(zip(tags, ranges)), "survivor_names": names}
    if ranges2:
        cert.update(shapes2=list(zip(tags, ranges2)), survivors2_names=names2)
    return cert


CERTIFICATES = {
    "E1": _pin(3, K1_SHAPES,
               [[1, 10, 6, 11], [1, 3], [1], [1, 20, 12, 46], [1, 13]],
               ["0G+T"]),
    "E2": _pin(4, K1_SHAPES,
               [[1, 8, 4, 8], [1, 2], [1], [1, 17, 9, 33], [1, 11]],
               ["0G+T"]),
    "E3": _pin(5, K1_SHAPES,
               [[2, 23, 22, 63], [2, 7], [2], [2, 47, 44, 253], [2, 31]],
               ["-1G+T", "0G+T"]),
    "E4": _pin(5, K1_SHAPES,
               [[2, 23, 22, 63], [2, 7], [2], [2, 47, 44, 253], [2, 31]],
               ["-1G+T", "0G+T"]),
    "E5": _pin(2, K2_SHAPES, [[1, 10, 6, 11], [1, 3], [1]], ["-1G", "0G+T"]),
    "E6": _pin(4, K2_SHAPES, [[2, 19, 15, 40], [2, 6], [2]],
               ["-1G", "-1G+T", "0G+T"]),
    "E7": _pin(6, K2_SHAPES, [[2, 26, 26, 80], [2, 8], [2]], ["-1G", "0G+T"]),
    "E8": _pin(5, K2_SHAPES, [[3, 31, 33, 106], [3, 10], [3]],
               ["-2G+T", "-1G", "-1G+T", "0G+T"]),
    "E9": _pin(2, K2_SHAPES, [[1, 9, 5, 9], [1, 3], [1]],
               ["-1G+T", "-1G", "0G+T"]),
    "E10": _pin(5, K2_SHAPES, [[2, 14, 10, 22], [2, 4], [2]], E10_NAMES,
                ranges2=[[2, 18, 15, 38], [2, 6], [2]], names2=E10_NAMES),
    "E11": _pin(4, K2_SHAPES, [[3, 30, 31, 100], [3, 10], [3]],
                ["-1G+T", "-1G", "0G+T"]),
    "E12": _pin(4, K2_SHAPES, [[3, 35, 40, 139], [3, 11], [3]],
                ["-2G+T", "-1G", "-1G+T", "0G+T"]),
}
FIELDS = ("doublings", "ranges_decided", "shapes", "shapes2",
          "survivor_names", "survivors2_names")


def run_one(curve):
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
        got = {k: v for k, v in {**vars(cert), **cert.extra}.items()
               if k in FIELDS}
    except ArithmeticError as exc:
        verdict, names, depth, got = f"FAILED ({exc})", [], "", {}
    t_cert = time.monotonic() - t0

    print(f"{curve.id:4s} rank {curve.rank}  "
          f"C in {t_bound:5.2f}s  "
          f"heights: {verdict} in {t_cert:6.1f}s  {depth}  "
          f"box classes: {names}")
    times = (t_bound, t_cert)
    if verdict.startswith("FAILED"):
        return False, times
    want = CERTIFICATES[curve.id]
    for k in FIELDS:
        if got.get(k) != want.get(k):
            print(f"{curve.id}: {k} is {got.get(k)}, pinned {want.get(k)}")
            return False, times
    return True, times


def main(argv) -> int:
    ids = argv or [c.id for c in CURVES]
    ok, times = zip(*(run_one(CURVE_BY_ID[cid]) for cid in ids))
    bound, cert = map(sum, zip(*times))
    print(f"total {bound + cert:.1f}s over {len(ids)} curves: "
          f"C {bound:.2f}s, heights {cert:.1f}s")
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
