"""Command-line front end: the square search, the end-to-end theorem
pipeline, and small report commands over the catalog.

Exit codes: 0 success / complete certificate, 2 partial certificate,
3 invalid input.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .curves import (CURVE_BY_ID, CURVES, ab_to_pq, catalog,
                     condition_value, recover_ab)
from .elementary import u7_solutions
from .exact import is_perfect_square, perfect_square_root
from .jsonio import dump, encode_point, encode_rational
from .lucas import (LucasParams, classify_degenerate, is_degenerate, lucas_u,
                    square_terms)


# --- worker processes -------------------------------------------------------

FORK_TASKS = 1024   # 4-byte task numbers: 4 KiB, which a pipe holds unread


def cpu_count() -> int:
    """The CPUs this process may run on: the default number of workers."""
    return len(os.sched_getaffinity(0))


def fork_map(fn, items, workers: int) -> list:
    """[fn(x) for x in items], in input order, computed by this process and
    workers - 1 forked copies of it.

    The task numbers are written to one pipe before the first fork, and
    every worker takes them one at a time, so a slow item holds up only its
    own worker.  A task is one item, or a run of consecutive items when
    there are more than FORK_TASKS.  A worker stops at its first exception.
    Each child sends its (index, result, exception) triples back over its
    own pipe with pickle and ends with os._exit, so it never returns into
    the caller.  The first exception in input order is raised again with
    its own type.  A child that exits without sending its triples raises
    ChildProcessError: a dead worker never passes for a finished one.  With
    one worker or one item, nothing is forked, piped or pickled.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    import pickle
    import traceback

    tasks = min(len(items), FORK_TASKS)
    bounds = [len(items) * t // tasks for t in range(tasks + 1)]
    task_r, task_w = os.pipe()
    os.write(task_w, b"".join(t.to_bytes(4, "little") for t in range(tasks)))
    os.close(task_w)

    def work() -> list:
        out = []
        while task := os.read(task_r, 4):
            t = int.from_bytes(task, "little")
            for i in range(bounds[t], bounds[t + 1]):
                try:
                    out.append((i, fn(items[i]), None))
                except Exception as exc:
                    out.append((i, None, exc))
                    return out
        return out

    children, received, codes = [], [], []
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:                                  # a worker
                code = 1
                try:
                    os.close(r)
                    with open(w, "wb") as fh:
                        pickle.dump(work(), fh)
                    code = 0
                except BaseException:
                    traceback.print_exc()
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, open(r, "rb")))
        outcomes = work()
        received = [fh.read() for _, fh in children]
    finally:
        os.close(task_r)
        for pid, fh in children:
            fh.close()
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (pid, _), data, code in zip(children, received, codes):
        if code or not data:
            raise ChildProcessError(f"worker {pid} exited with status {code} "
                                    "without sending its results")
        outcomes += pickle.loads(data)
    outcomes.sort(key=lambda o: o[0])
    for _, _, exc in outcomes:
        if exc is not None:
            raise exc
    return [value for _, value, _ in outcomes]


# --- square search ----------------------------------------------------------

# (P, Q) pairs per sieve block, which sets the memory of a scan.  With one
# worker, the 200/200/50 census runs about a tenth faster at 20,000, but its
# peak RSS grows by 0.15 MiB (3.4 MiB at 100,000).  It runs about 3% slower
# at 5,000 and a fifth slower at 2,500, where the per-block numpy calls add up.
SEARCH_BLOCK_PAIRS = 10_000
SEARCH_EXAMPLES = 4           # smallest (p, q, r) reported per index


def _search_block(args) -> tuple:
    """For one block of P values: n -> (hit count, up to SEARCH_EXAMPLES
    smallest (p, q, r)), and the pairs whose U_8 is a square."""
    ps, q_max, n_max = args
    per_n: dict = {}
    for p, q, n, r in square_terms(ps, q_max, n_max):
        per_n.setdefault(n, []).append((p, q, r))
    return ({n: (len(v), v[:SEARCH_EXAMPLES]) for n, v in per_n.items()},
            [(p, q) for p, q, _ in per_n.get(8, [])])


def cmd_search(p_max: int, q_max: int, n_max: int, workers: int) -> dict:
    """Scan all coprime nondegenerate (P, Q) with 0 < |P| <= p_max,
    0 < |Q| <= q_max for square terms U_n, 2 <= n <= n_max.

    The box is cut into blocks of whole P values of about
    SEARCH_BLOCK_PAIRS pairs each, scanned by `square_terms` in `workers`
    processes (`fork_map`).  A block returns only counts, examples and
    n = 8 pairs, so the memory of a scan does not grow with the box.  The
    merge is order-independent, so the report does not depend on the
    worker count.
    """
    if min(p_max, q_max, n_max, workers) < 1:
        raise ValueError("all bounds must be >= 1")
    ps = [p for p in range(-p_max, p_max + 1) if p != 0]
    step = max(1, SEARCH_BLOCK_PAIRS // (2 * q_max))
    blocks = [(ps[i:i + step], q_max, n_max) for i in range(0, len(ps), step)]
    t0 = time.monotonic()
    results = fork_map(_search_block, blocks, workers)
    counts: dict = {}
    examples: dict = {}
    n8 = set()
    for per_n, pairs in results:
        for n, (count, ex) in per_n.items():
            counts[n] = counts.get(n, 0) + count
            examples[n] = sorted(examples.get(n, []) + ex)[:SEARCH_EXAMPLES]
        n8.update(pairs)
    return {
        "p_max": p_max, "q_max": q_max, "n_max": n_max,
        "indices": sorted(counts),
        "hits_per_n": {str(n): counts[n] for n in sorted(counts)},
        "n8_pairs": sorted(n8),
        "examples_per_n": {str(n): examples[n] for n in sorted(counts)},
        "elapsed_s": round(time.monotonic() - t0, 2),
    }


# --- theorem pipeline -------------------------------------------------------

def _driver_record(curve, result) -> dict:
    return {
        "curve": curve.id,
        "rank": curve.rank,
        "precision": result.precision,
        "m0": result.m0,
        "cosets": [vars(r) for r in result.reports],
        "survivors": [encode_point(pt) for pt in result.survivors],
    }


def _descent_record(curve, pt) -> dict:
    sol = recover_ab(curve, pt)
    rec = {"curve": curve.id, "point": encode_point(pt),
           "condition_value": None, "accepted": False}
    cond = condition_value(curve, pt)
    if cond is not None:
        rec["condition_value"] = encode_rational(cond)
    if sol is None:
        rec["reject_reason"] = "no rational descent data"
        return rec
    rec.update(equation=sol.equation, a=sol.a, b=sol.b,
               ratio=encode_rational(sol.ratio))
    if sol.params is None:
        rec["reject_reason"] = sol.reject_reason
    elif is_degenerate(sol.params):
        rec["pair"] = [sol.params.p, sol.params.q]
        rec["reject_reason"] = "degenerate sequence"
    else:
        rec["accepted"] = True
        rec["pair"] = [sol.params.p, sol.params.q]
        rec["u8"] = lucas_u(sol.params, 8)
    return rec


def cmd_verify_theorem(precision: int = 5, out: str = None) -> tuple:
    """Run every driver, push survivors through the descent maps, and emit
    the certificate.  Returns (certificate, exit_code); the certificate is
    the dict that `--out` writes, its keys in the order written.

    The curves are independent, so each one's driver and descent run as
    one job of `fork_map`, on as many workers as this process has CPUs;
    the certificate does not depend on that number.  Only a
    `PrecisionError` (a coset the truncation cannot decide) makes the
    certificate partial; any other exception is a fault and propagates.
    """
    from . import padic

    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")

    def run(curve) -> tuple:
        """(driver record, descent records, None), or (None, [], failing
        entry) for a coset the precision cannot decide."""
        driver = padic.rank2_driver if curve.rank == 2 else padic.rank1_driver
        try:
            result = driver(curve, k=precision)
        except padic.PrecisionError as exc:           # inconclusive coset
            return None, [], {"curve": curve.id, "error": str(exc)}
        return (_driver_record(curve, result),
                [_descent_record(curve, pt) for pt in result.survivors], None)

    jobs = fork_map(run, sorted(CURVES, key=lambda c: c.rank), cpu_count())
    drivers = [rec for rec, _, _ in jobs if rec is not None]
    descents = [rec for _, recs, _ in jobs for rec in recs]
    failing = [entry for _, _, entry in jobs if entry is not None]
    pairs = sorted({tuple(rec["pair"]) for rec in descents if rec["accepted"]})
    for p, q in pairs:
        if not is_perfect_square(lucas_u(LucasParams(p, q), 8)):
            raise ArithmeticError(f"final pair ({p}, {q}): U_8 is not a square")
    cert = {
        "tool": {"name": "lucassq", "version": __version__},
        "precision": {"padic_k": precision},
        "drivers": drivers,
        "descents": descents,
        "final_pairs": [[p, q] for p, q in pairs],
        "partial": bool(failing),
        "failing_cosets": failing,
        "search": {},            # unfilled; kept so the digests hold
    }
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            dump(cert, fh)
    return cert, (2 if failing else 0)


# --- reports ----------------------------------------------------------------

def _descent_witness(p: int, q: int) -> dict:
    """Invert the descent map in closed form: a = sqrt(P) with
    b^2 = a^4 - 2Q (eq1) or 2Q - a^4 (eq2), and a = sqrt(P/4) with
    b^2 = 8a^4 - Q (eq3) or Q - 8a^4 (eq4); the first (equation, a, b)
    that `ab_to_pq` maps back to (P, Q)."""
    eight_a4 = Fraction(p * p, 2)                   # 8a^4 when a^2 = P/4
    for eq, a2, b2 in (("eq1", p, p * p - 2 * q), ("eq2", p, 2 * q - p * p),
                       ("eq3", Fraction(p, 4), eight_a4 - q),
                       ("eq4", Fraction(p, 4), q - eight_a4)):
        a, b = perfect_square_root(a2), perfect_square_root(b2)
        if a and b:
            params, _ = ab_to_pq(eq, a, b)
            if params is not None and (params.p, params.q) == (p, q):
                return {"equation": eq, "a": a, "b": b}
    return {}


def cmd_classify(n: int, p: int, q: int) -> dict:
    if not 2 <= n <= 8:
        raise ValueError(f"n must be in 2..8, got {n}")
    params = LucasParams(p, q)
    u = lucas_u(params, n)
    rep = {
        "n": n, "P": p, "Q": q, "u_n": u,
        "degeneracy": classify_degenerate(params).name,
        "square": is_perfect_square(u),
        "root": perfect_square_root(u) if u >= 0 else None,
    }
    if n == 7 and rep["square"]:
        fam = u7_solutions(8)
        if (p, q) in fam:
            rep["family_witness"] = {"generator_multiple": fam.index((p, q)) + 1}
    if n == 8 and rep["square"]:
        rep["descent"] = _descent_witness(p, q)
    return rep


def cmd_heights(curve_id: str) -> dict:
    from .heights import epsilon_nonarchimedean, height_diff_bound
    if curve_id not in CURVE_BY_ID:
        raise ValueError(f"unknown curve {curve_id!r}")
    curve = CURVE_BY_ID[curve_id]
    c, eps = height_diff_bound(curve_id)
    epi = epsilon_nonarchimedean(curve)
    return {
        "curve": curve_id,
        "epsilon_real": [repr(float(eps[0])), repr(float(eps[1]))],
        "epsilon_complex": repr(float(eps[2])),
        "epsilon_finite": repr(float(epi)),
        "height_diff_bound": repr(float(c)),
    }


def cmd_catalog() -> list:
    return catalog()


# --- argument plumbing ------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lucassq",
        description="perfect squares in Lucas sequences U_n(P,Q), n <= 8")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("search", help="scan a (P,Q) box for square terms")
    s.add_argument("--p-max", type=int, default=200)
    s.add_argument("--q-max", type=int, default=200)
    s.add_argument("--n-max", type=int, default=50)
    s.add_argument("--workers", type=int, default=cpu_count(),
                   help="worker processes (default: the CPUs this process "
                        "may use)")

    v = sub.add_parser("verify-theorem",
                       help="run the full n = 8 certification pipeline")
    v.add_argument("--precision", type=int, default=5,
                   help="3-adic working precision k (modulus 3^k)")
    v.add_argument("--out", type=str, default=None,
                   help="write the JSON certificate here")

    c = sub.add_parser("classify", help="classify one pair at one index")
    c.add_argument("n", type=int)
    c.add_argument("P", type=int)
    c.add_argument("Q", type=int)

    h = sub.add_parser("heights", help="height-bound report for one curve")
    h.add_argument("curve", type=str)

    sub.add_parser("catalog", help="dump the descent-curve table")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code = 0
    try:
        if args.command == "search":
            obj = cmd_search(args.p_max, args.q_max, args.n_max, args.workers)
        elif args.command == "verify-theorem":
            obj, code = cmd_verify_theorem(args.precision, args.out)
            if args.out:
                pairs = [tuple(pair) for pair in obj["final_pairs"]]
                print(f"final_pairs {pairs} partial "
                      f"{str(obj['partial']).lower()} certificate {args.out}")
                return code
        elif args.command == "classify":
            obj = cmd_classify(args.n, args.P, args.Q)
        elif args.command == "heights":
            obj = cmd_heights(args.curve)
        else:
            obj = cmd_catalog()
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    dump(obj, sys.stdout)
    print()
    return code


if __name__ == "__main__":
    sys.exit(main())
