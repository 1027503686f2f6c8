"""The benchmark's output checks accept the program's outputs and reject
tampered ones.

    python3 perfbench/test_checks.py        (or: python3 -m pytest perfbench)

The outputs come from one real run of each operation (about a minute),
made once through child.py into .perfbench_out/test-checks/.
"""

from __future__ import annotations

import copy
import functools
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402

SMALL_BOX = (40, 40, 20)


@functools.lru_cache(maxsize=None)
def outputs() -> dict:
    out = ROOT / ".perfbench_out" / "test-checks"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = [sys.executable, str(HERE / "child.py")]
    runs = {
        "theorem": ["theorem", "--out", out / "theorem.json"],
        "census": ["census", "--box", *SMALL_BOX, "--report", out / "census.json",
                   "--workers", "1"],
        "certify": ["certify", "--curve", "E1", "--out", out / "certify.json"],
    }
    procs = [subprocess.Popen(child + ["--result", str(out / f"{name}.result.json")]
                              + [str(a) for a in args], cwd=ROOT, env=env)
             for name, args in runs.items()]
    for proc in procs:
        assert proc.wait(timeout=600) == 0
    return {name: json.loads((out / f"{name}.json").read_text()) for name in runs}


def _theorem():
    return copy.deepcopy(outputs()["theorem"])


def _shift(point):
    """The same point with its Y moved by 1, which takes it off the curve."""
    y0 = point["y"]["coords"][0]
    y0["num"] = str(int(y0["num"]) + int(y0["den"]))


def test_untampered_outputs_pass():
    assert checks.check_theorem(_theorem()) == []
    assert checks.check_census(outputs()["census"], checks.census(*SMALL_BOX)) == []
    assert checks.check_certify(outputs()["certify"]) == []


def test_theorem_rejects_dropped_pair():
    cert = _theorem()
    cert["final_pairs"].pop()
    assert checks.check_theorem(cert)


def test_theorem_rejects_added_pair():
    cert = _theorem()
    cert["final_pairs"].append([5, 3])
    assert checks.check_theorem(cert)


def test_theorem_rejects_driver_survivor_off_curve():
    cert = _theorem()
    driver = next(d for d in cert["drivers"] if d["survivors"])
    _shift(driver["survivors"][0])
    assert any("off the curve" in p for p in checks.check_theorem(cert))


def test_theorem_rejects_descent_point_off_curve():
    cert = _theorem()
    _shift(cert["descents"][0]["point"])
    assert any("off the curve" in p for p in checks.check_theorem(cert))


def test_theorem_rejects_missing_driver():
    cert = _theorem()
    cert["drivers"].pop()
    assert checks.check_theorem(cert)


def test_census_rejects_count_off_by_one():
    recount = checks.census(*SMALL_BOX)
    for delta in (1, -1):
        report = copy.deepcopy(outputs()["census"])
        report["hits_per_n"]["2"] += delta
        assert checks.check_census(report, recount)
    report = copy.deepcopy(outputs()["census"])
    report["n8_pairs"] = report["n8_pairs"][:1]
    assert checks.check_census(report, recount)


def test_certify_rejects_survivors_without_torsion():
    cert = copy.deepcopy(outputs()["certify"])
    zero = {"num": "0", "den": "1"}
    cert["survivors"] = [x for x in cert["survivors"] if x != [zero] * 4]
    assert any("oracle" in p for p in checks.check_certify(cert))


def test_certify_rejects_wrong_bound():
    cert = copy.deepcopy(outputs()["certify"])
    cert["bound_c"] *= 1 + 1e-6
    assert checks.check_certify(cert)


def test_independent_arithmetic():
    """The generators lie on their curves, and the Lucas closed forms agree
    with the recurrence."""
    for cid, curve in checks.CURVES.items():
        assert all(checks.on_curve(cid, g) for g in curve["gens"]), cid
    assert checks.u8(1, -4) == 441 and checks.u8(4, -17) == 384400
    x = checks.CURVES["E1"]["gens"][0][0]
    assert checks.minimal_polynomial("K1", x) == [Fraction(49, 4), -34, 13, -4, 1]
    one = checks._elem(1)
    for fid in ("K1", "K2"):
        y = checks._elem(3, -1, Fraction(2, 7), 5)
        assert checks.fmul(fid, y, checks.finv(fid, y)) == one


def test_per_layer_names_match_benchmark_json():
    listed = {m["name"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    report = {"stats": {}, "counts": {}, "installed": _all_labels()}
    derived = set(tracer.layer_metrics(report, {}))
    assert derived | {"trace.overhead_s", "trace.overhead_ratio"} == listed


def _all_labels():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys; sys.path.insert(0, %r)\n"
            "import lucassq.cli, lucassq.padic, lucassq.heights, json, tracer\n"
            "t = tracer.Tracer(); t.install(); print(json.dumps(t.installed))")
    res = subprocess.run([sys.executable, "-c", code % str(HERE)], env=env,
                         capture_output=True, text=True, check=True)
    return set(json.loads(res.stdout))


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failures else 0)
