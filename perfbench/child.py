"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py --result R.json [--trace | --probe] setup
    python3 perfbench/child.py --result R.json [--trace | --probe] theorem --out CERT.json
    python3 perfbench/child.py --result R.json [--trace | --probe] census --box P Q N --report OUT.json [--workers W]
    python3 perfbench/child.py --result R.json [--trace | --probe] certify --curve E1 --out CERT.json

Set-up is the import of `lucassq.cli`, `lucassq.padic` and `lucassq.heights`
and the build of the curve catalog, as a user of the command line pays on
every invocation.  The result file records the `time.monotonic()` instants
at which set-up and the operation ended (the clock is system-wide, so the
parent measures set-up from the moment it started this process), the exit
code, the peak resident memory and, with --trace, the per-layer totals.
With --probe it also records the host probes (see HostSampler) and the time
they took out of the operation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _encode_certificate(cert) -> dict:
    """The parts of a generator certificate that the checks read."""
    def rat(c):
        return {"num": str(c.numerator), "den": str(c.denominator)}
    return {"curve": cert.curve_id, "conclusion": cert.conclusion,
            "bound_c": cert.bound_c,
            "shapes": [[tag, list(r)] for tag, r in cert.shapes],
            "shapes2": [[tag, list(r)] for tag, r in cert.extra.get("shapes2", [])],
            "survivors": [[rat(c) for c in x.coords] for x in cert.survivors],
            "survivor_names": cert.survivor_names}


PROBE_EVERY_S = 0.25    # host probes during an operation, one per interval
SETUP_HOST_PROBES = 5   # host probes after set-up in a set-up-only process


def probe_s() -> float:
    """Seconds taken by a fixed ~16 ms computation that shares no code with
    `lucassq` and does the two kinds of work the program does: 12 multiples
    of E9's generator by the benchmark's own group law over Fractions, and
    the benchmark's own Lucas-square recount of an 11/11/30 box."""
    import checks
    t0 = time.perf_counter()
    g, acc = checks.CURVES["E9"]["gens"][0], checks.INF
    for _ in range(12):
        acc = checks.add("E9", acc, g)
    checks.census(11, 11, 30)
    return time.perf_counter() - t0


class HostSampler:
    """Runs `probe_s` every PROBE_EVERY_S seconds of an operation, from a
    SIGALRM handler, so the probes see the host at the same moments and on
    the same CPU as the operation.  `spent` is the time taken by the
    handler, which the parent takes off the operation's time."""

    def __init__(self):
        self.probes, self.spent = [], 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.probes.append(probe_s())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.probes:               # an operation shorter than one interval
            self._tick(None, None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true",
                    help="time the host with probe_s during the operation")
    sub = ap.add_subparsers(dest="op", required=True)
    sub.add_parser("setup")
    th = sub.add_parser("theorem")
    th.add_argument("--out", required=True)
    ce = sub.add_parser("census")
    ce.add_argument("--box", type=int, nargs=3, required=True)
    ce.add_argument("--report", required=True)
    ce.add_argument("--workers", type=int)
    cf = sub.add_parser("certify")
    cf.add_argument("--curve", required=True)
    cf.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import lucassq.cli as cli
    import lucassq.heights as heights
    import lucassq.padic  # noqa: F401  (part of set-up)
    from lucassq.curves import CURVE_BY_ID, catalog
    catalog()
    t_setup = time.monotonic()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    sampler = None
    if args.probe:
        import checks  # noqa: F401  (so that no probe times this import)
        sampler = HostSampler()
        if args.op == "setup":
            sampler.probes = [probe_s() for _ in range(SETUP_HOST_PROBES)]
    sampling = (sampler if sampler is not None and args.op != "setup"
                else contextlib.nullcontext())
    rc, error = 0, None
    t_start = time.monotonic()
    try:
        with sampling:
            if args.op == "theorem":
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    rc = cli.main(["verify-theorem", "--out", args.out])
            elif args.op == "census":
                p, q, n = args.box
                argv_ = ["search", "--p-max", str(p), "--q-max", str(q), "--n-max", str(n)]
                if args.workers:
                    argv_ += ["--workers", str(args.workers)]
                with open(args.report, "w") as fh, contextlib.redirect_stdout(fh):
                    rc = cli.main(argv_)
            elif args.op == "certify":
                cert = heights.certify_generators(CURVE_BY_ID[args.curve])
    except Exception:                     # the operation failed; record why
        rc, error = 1, traceback.format_exc()
    t_done = time.monotonic()
    if args.op == "certify" and error is None:
        with open(args.out, "w") as fh:
            json.dump(_encode_certificate(cert), fh)

    out = {"t_setup": t_setup, "t_start": t_start, "t_done": t_done,
           "rc": rc, "error": error,
           "maxrss_kib": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)}
    if sampler is not None:
        out.update(probes=sampler.probes, probe_spent_s=sampler.spent)
    if tracer is not None:
        out["trace"] = tracer.report()
        tracer.write_spans(os.path.splitext(args.result)[0] + ".spans.jsonl")
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
