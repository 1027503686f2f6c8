"""The lucassq benchmark.

    python3 perfbench/run.py --workload {theorem,census,certify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
`src/`.  Every operation runs in a fresh interpreter (see child.py), because
`lucassq` keeps state across calls in one process (the `lru_cache` on
`height_diff_bound`, `_SCREEN_CACHE`, the global `mp.dps`), and a user of
the command line pays set-up on every invocation.

With --trace 0 the run repeats whole rounds of its workload until S
seconds have passed (at least one round), checks every output, and prints
the end-to-end metrics.  Their times are scaled to a host of fixed speed
by the host probes each interpreter runs (child.probe_s), since a shared
host's speed drifts by up to 1.7x within minutes.  With --trace 1 it runs
one untraced and one traced round and prints the per-layer metrics, with
the tracing overhead.  The last line of standard output is one JSON
object; a readable summary goes to standard error.  Outputs are kept under `.perfbench_out/` in the
checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402

CENSUS_BOX = (200, 200, 50)      # P, Q and n bounds of one census
# E1 is left out: its 32-47 s of huge-integer doublings would more than
# double the longest workload (see README.md).
CERTIFY_CURVE = "E10"
SETUP_PROBES = 5                 # set-up-only interpreters per run
PROBE_NOMINAL_S = 0.016          # child.probe_s on a host of fixed speed
CHILD_TIMEOUT_S = 80             # an operation over this is killed: failed


class Bench:
    def __init__(self, workload, out_dir, trace):
        self.workload = workload
        self.out = out_dir
        self.trace = trace
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.ops = []            # one dict per operation
        self.jobs = []           # one dict per interpreter started
        self._n = 0

    def _run(self, op_args, traced=False):
        """Run one child.py operation in a fresh interpreter and wait for it;
        one over the time limit is killed with its process group."""
        self._n += 1
        tag = f"{self._n:03d}-{op_args[0]}"
        res = self.out / f"{tag}.result.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--result", str(res)]
        if traced:
            cmd.append("--trace")
        elif not self.trace:
            cmd.append("--probe")
        cmd += [str(a).replace("{tag}", tag) for a in op_args]
        with open(self.out / f"{tag}.stderr", "w") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err,
                                    start_new_session=True)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)   # the census pool too
                proc.wait()
        job = {"tag": tag, "op": op_args[0], "args": op_args, "traced": traced}
        try:
            job.update(json.loads(res.read_text()))
        except (OSError, ValueError):
            job.update(rc=1, error=f"no result (exit {proc.returncode})")
        if "t_setup" in job:
            job["setup_s"] = job["t_setup"] - t_spawn
            job["work_s"] = job["t_done"] - job["t_start"]
            if job.get("probes"):
                # scaled to a host that runs the probe in PROBE_NOMINAL_S
                job["host_scale"] = PROBE_NOMINAL_S / statistics.fmean(job["probes"])
                job["setup_scaled_s"] = job["setup_s"] * job["host_scale"]
                job["work_scaled_s"] = ((job["work_s"] - job["probe_spent_s"])
                                        * job["host_scale"])
        self.jobs.append(job)
        if job["op"] != "setup":
            self.ops.append(job)
        return job

    def setup_probes(self):
        for _ in range(SETUP_PROBES):
            self._run(["setup"])

    def round(self, traced=False) -> dict:
        """One round of the workload, a single operation; returns its job."""
        if self.workload == "theorem":
            op = ["theorem", "--out", self.out / "{tag}.cert.json"]
        elif self.workload == "census":
            # One worker: the whole scan stays in the process that is traced
            # or probed, and a pool as wide as the host would time the
            # scheduler.  The counts do not depend on the worker count.
            op = ["census", "--box", *CENSUS_BOX, "--workers", 1,
                  "--report", self.out / "{tag}.census.json"]
        else:
            op = ["certify", "--curve", CERTIFY_CURVE,
                  "--out", self.out / "{tag}.cert.json"]
        return self._run(op, traced)

    # -- checks -------------------------------------------------------------

    def check(self):
        """(failed operations, problems found in the outputs of the others)."""
        failed, problems = 0, []
        recount = None
        for job in self.ops:
            out = self.out / f"{job['tag']}.cert.json"
            if job.get("rc") != 0 or job.get("error"):
                failed += 1
                continue
            if job["op"] == "theorem":
                cert = json.loads(out.read_text())
                # verify-theorem turns any exception into a partial certificate
                if cert.get("partial"):
                    failed += 1
                    continue
                job["cert"] = cert
                problems += checks.check_theorem(cert)
            elif job["op"] == "census":
                if recount is None:
                    recount = checks.census(*CENSUS_BOX)
                report = json.loads((self.out / f"{job['tag']}.census.json").read_text())
                problems += checks.check_census(report, recount)
            else:
                cert = json.loads(out.read_text())
                job["cert"] = cert
                problems += checks.check_certify(cert)
        return failed, problems


def certificate_counts(job, out_dir) -> dict:
    """Per-layer counts read from one operation's certificate."""
    out = {}

    def add(name, n):
        out[name] = out.get(name, 0) + n

    cert = job.get("cert")
    if cert is None:
        return out
    if job["op"] == "theorem":
        for d in cert["drivers"]:
            verdicts = [c["verdict"] for c in d["cosets"]]
            add("padic.cosets", len(verdicts))
            add("padic.cosets_excluded_mod3", verdicts.count("excluded mod 3"))
            add("padic.cosets_excluded_mod9", verdicts.count("excluded mod 9"))
            add("padic.cosets_strassman", verdicts.count("strassman"))
            add("padic.cosets_skolem", verdicts.count("skolem"))
            add("padic.precision_escalations",
                int(d["precision"] > cert["precision"]["padic_k"]))
            add("padic.survivors", len(d["survivors"]))
        add("jsonio.certificate_kib",
            (out_dir / f"{job['tag']}.cert.json").stat().st_size / 1024)
    elif job["op"] == "certify":
        for key in ("shapes", "shapes2"):
            for tag, ranges in cert[key]:
                add("heights.box_candidates", checks.box_size(tag, ranges))
    return out


def versions() -> dict:
    import mpmath
    import numpy
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("theorem", "census", "certify"))
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded only: every workload's inputs are fixed")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lucassq" / "cli.py").is_file():
        print(f"error: no lucassq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out" / (args.workload + ("-trace" if args.trace else ""))
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    bench = Bench(args.workload, out_dir, bool(args.trace))
    bench.setup_probes()
    if args.trace:
        untraced = bench.round()
        traced = bench.round(traced=True)
    else:
        t0 = time.monotonic()
        while not bench.ops or time.monotonic() - t0 < args.seconds:
            bench.round()
    failed, problems = bench.check()
    # an operation that died without a result has no time to report
    key = "work_s" if args.trace else "work_scaled_s"
    works = [j[key] for j in bench.ops if key in j]
    if not works:
        print("error: no operation reported a time", file=sys.stderr)
        return 1

    if args.trace:
        values = tracer.layer_metrics(traced.get("trace", tracer.EMPTY),
                                      certificate_counts(traced, out_dir))
        if "work_s" in traced and untraced.get("work_s"):
            overhead = traced["work_s"] - untraced["work_s"]
            values["trace.overhead_s"] = overhead
            values["trace.overhead_ratio"] = overhead / untraced["work_s"]
        units = {m["name"]: m["unit"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {k: {"value": v, "unit": units.get(k, "")} for k, v in values.items()}
    else:
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        setups = [j["setup_scaled_s"] for j in bench.jobs if "setup_scaled_s" in j]
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "work_s": {"value": statistics.median(works), "unit": "s"},
                   "peak_rss_mib": {"value": peak, "unit": "MiB"}}

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "versions": versions(),
               "interpreters": [{k: j.get(k) for k in (
                   "tag", "args", "traced", "rc", "error", "setup_s", "work_s",
                   "probes", "probe_spent_s", "host_scale", "setup_scaled_s",
                   "work_scaled_s", "maxrss_kib")} for j in bench.jobs],
               "problems": problems, "metrics": metrics}
    if not args.trace:
        summary["wall_work_s"] = statistics.median(j["work_s"] for j in bench.ops
                                                   if "work_s" in j)
        # the work figure under the name of the operation it times
        work = statistics.median(works)
        if args.workload == "census":
            summary["census_terms_per_s"] = checks.census_terms(*CENSUS_BOX) / work
        else:
            summary[f"{args.workload}_s"] = work
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1, default=str))
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"{args.workload}: {len(bench.ops)} operations, {failed} failed, "
          f"{len(problems)} check failures; {summary['versions']}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    for name in ("theorem_s", "certify_s", "census_terms_per_s", "wall_work_s"):
        if name in summary:
            print(f"  ({name}){'':{32 - len(name)}} {summary[name]:14.6g}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(bench.ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
