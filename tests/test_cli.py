"""CLI plumbing: argument handling, report shapes, and determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from lucassq import cli, lucas, padic
from lucassq.cli import (build_parser, cmd_catalog, cmd_classify,
                         cmd_heights, cmd_search, cmd_verify_theorem, main)
from lucassq.curves import CURVE_BY_ID
from lucassq.lucas import (LucasParams, is_degenerate, square_mask_tables,
                           square_terms)


def test_classify_reports():
    rep = cmd_classify(7, 5, 21)
    assert rep["square"] and rep["root"] == 83
    assert rep["family_witness"]["generator_multiple"] == 4
    rep = cmd_classify(8, 1, -4)
    assert rep["square"] and rep["root"] == 21
    assert rep["descent"] == {"equation": "eq1", "a": 1, "b": 3}
    rep = cmd_classify(8, 4, -17)
    assert rep["descent"] == {"equation": "eq3", "a": 1, "b": 5}


def test_classify_rejects_bad_n():
    with pytest.raises(ValueError):
        cmd_classify(9, 1, 1)
    assert main(["classify", "9", "1", "1"]) == 3


def test_classify_zero_p_is_degenerate():
    rep = cmd_classify(8, 0, 1)
    assert rep["u_n"] == 0 and rep["degeneracy"] == "ZERO_P"


def test_classify_nonsquare():
    rep = cmd_classify(8, 3, 5)
    assert not rep["square"] and "descent" not in rep


def test_search_tiny_box_deterministic():
    one = cmd_search(4, 4, 15, workers=1)
    two = cmd_search(4, 4, 15, workers=2)
    for key in ("indices", "hits_per_n", "n8_pairs"):
        assert one[key] == two[key]
    assert set(one["indices"]) <= set(range(2, 9)) | {12}


def test_search_finds_first_theorem_pair():
    rep = cmd_search(4, 4, 8, workers=1)
    assert rep["n8_pairs"] == [(1, -4)]


def _scalar_census(p_max, q_max, n_max) -> list:
    """Every (p, q, n, r) of the box with U_n = r^2, sorted: the plain
    recurrence and one isqrt per term over every coprime nondegenerate pair."""
    hits = []
    for p in range(-p_max, p_max + 1):
        for q in range(-q_max, q_max + 1):
            if (p == 0 or q == 0 or math.gcd(p, q) != 1
                    or is_degenerate(LucasParams(p, q))):
                continue
            a, b = 0, 1                           # U_0, U_1
            for n in range(2, n_max + 1):
                a, b = b, p * b - q * a           # b = U_n
                if b >= 0 and math.isqrt(b) ** 2 == b:
                    hits.append((p, q, n, math.isqrt(b)))
    return hits


def _report_fields(hits) -> dict:
    """The fields of a `search` report that follow from the sorted hits."""
    per_n = {}
    for p, q, n, r in hits:
        per_n.setdefault(n, []).append((p, q, r))
    return {"indices": sorted(per_n),
            "hits_per_n": {str(n): len(v) for n, v in sorted(per_n.items())},
            "n8_pairs": sorted({(p, q) for p, q, _ in per_n.get(8, [])}),
            "examples_per_n": {str(n): v[:4] for n, v in sorted(per_n.items())}}


@settings(max_examples=40, deadline=None)
@given(p_max=st.integers(2, 15), q_max=st.integers(1, 15),
       n_max=st.integers(1, 140), block=st.integers(1, 200))
@example(p_max=2, q_max=1, n_max=60, block=1)
@example(p_max=3, q_max=4, n_max=64, block=1)
@example(p_max=3, q_max=4, n_max=65, block=1)
@example(p_max=3, q_max=4, n_max=66, block=1)
@example(p_max=3, q_max=4, n_max=129, block=1)
def test_search_matches_scalar_scan(p_max, q_max, n_max, block):
    """The sieve census equals the scalar scan on boxes that hold the
    degenerate pairs (+-1, 1) and (+-2, 1) and the boundary Q = 1, cut
    into blocks of every size from one P value to the whole box, with index
    windows on both sides of the 64-index word boundaries of the sieve's
    mask tables."""
    hits = _scalar_census(p_max, q_max, n_max)
    ps = [p for p in range(-p_max, p_max + 1) if p]
    assert square_terms(ps, q_max, n_max) == hits
    with mock.patch.object(cli, "SEARCH_BLOCK_PAIRS", block):
        rep = cmd_search(p_max, q_max, n_max, workers=1)
    for key, value in _report_fields(hits).items():
        assert rep[key] == value


@pytest.mark.parametrize("factors",
                         [(), (64,), (47,), lucas.SIEVE_FACTORS, (181,)])
@pytest.mark.parametrize("box", [(3, 4, 66), (2, 3, 130)])
def test_sieve_only_filters(factors, box):
    """The census equals the scalar scan with no sieve factor (every index
    live), with one factor (181 exceeds every |P| and |Q| of the boxes),
    and with all of them, on boxes whose indices run past the 64- and
    128-index word boundaries of the mask tables: the sieve drops only
    terms that are not squares."""
    p_max, q_max, n_max = box
    ps = [p for p in range(-p_max, p_max + 1) if p]
    with mock.patch.object(lucas, "SIEVE_FACTORS", factors):
        assert square_terms(ps, q_max, n_max) == _scalar_census(*box)


def test_search_workers():
    """One worker, and two or three forked workers that build their own
    two-word mask tables, give the scalar scan's report on a box cut into
    six blocks."""
    want = _report_fields(_scalar_census(6, 5, 70))
    for workers in (1, 2, 3):
        square_mask_tables.cache_clear()
        with mock.patch.object(cli, "SEARCH_BLOCK_PAIRS", 20):
            rep = cmd_search(6, 5, 70, workers=workers)
        for key, value in want.items():
            assert rep[key] == value


def test_fork_map_keeps_input_order():
    """Results come back in input order for any worker count, also when
    the items outnumber the tasks and a task is a run of items."""
    items = list(range(40))
    want = [x * x for x in items]
    for workers in (1, 2, 3):
        assert cli.fork_map(lambda x: x * x, items, workers) == want
    with mock.patch.object(cli, "FORK_TASKS", 3):
        assert cli.fork_map(lambda x: x * x, items, 3) == want
    assert cli.fork_map(lambda x: x * x, [], 3) == []


def _in_child(parent: int, marker, child_job):
    """A job that runs child_job in a forked worker; in the calling
    process it waits until a worker has created the marker file, so that
    a worker is sure to take an item."""
    def job(x):
        if os.getpid() != parent:
            marker.touch()
            return child_job(x)
        for _ in range(2000):
            if marker.exists():
                break
            time.sleep(0.005)
    return job


def test_fork_map_worker_death_raises(tmp_path):
    """A worker that dies inside a job raises in the caller; its items
    never pass for finished ones."""
    job = _in_child(os.getpid(), tmp_path / "taken", lambda x: os._exit(1))
    with pytest.raises(ChildProcessError):
        cli.fork_map(job, [0, 1], 2)


def test_fork_map_reraises_with_own_type(tmp_path):
    """An exception in a forked job comes back with its own type, and the
    first one in input order wins, as in the plain loop."""
    def child_job(x):
        raise KeyError(x)
    job = _in_child(os.getpid(), tmp_path / "taken", child_job)
    with pytest.raises(KeyError):
        cli.fork_map(job, [0, 1], 2)

    def failing(x):
        if x == 1:
            raise TypeError("first")
        if x == 4:
            raise ValueError("later")
        return x
    for workers in (1, 2, 3):
        with pytest.raises(TypeError):
            cli.fork_map(failing, range(6), workers)


def test_search_rejects_bad_bounds():
    with pytest.raises(ValueError):
        cmd_search(0, 5, 5, 1)


def test_heights_report_is_json():
    rep = cmd_heights("E1")
    json.dumps(rep)                # serializable
    assert float(rep["height_diff_bound"]) > 0
    assert main(["heights", "no_such_curve"]) == 3


# `lucassq heights Ei` at commit 7741cb3, as (epsilon_real at both real
# places, epsilon_complex, epsilon_finite, height_diff_bound).  Every box cap
# rests on these, so a refactor of the epsilon code leaves them alone.
HEIGHTS_REPORTS = {
    "E1": ("1.2470320338650864", "125.17810579814162", "1.4714753076345144",
           "1.0", "0.4852529117468227"),
    "E2": ("125.4819244695071", "1.1315677973508782", "1.4714753076345144",
           "1.0", "0.47735806989783053"),
    "E3": ("2.7564811396914317", "726.5157072525757", "8.131077260403098",
           "1.0", "0.982800154866327"),
    "E4": ("726.5157072525757", "2.7564811396914317", "8.131077260403098",
           "1.0", "0.982800154866327"),
    "E5": ("1.191239844329668", "1.1052130923823256", "1.791338940834688",
           "5.656854249492381", "0.5532969474026876"),
    "E6": ("3.1592677961360227", "3.1592677961360227", "4.698845073487851",
           "5.656854249492381", "0.882826494540116"),
    "E7": ("2.5018702539866036", "227.82407750842935", "1.9179791504074102",
           "5.656854249492381", "1.0705633634218488"),
    "E8": ("1.915771844834038", "1322.826482755138", "1.5002519559974885",
           "5.656854249492381", "1.153959714852489"),
    "E9": ("2.3070677137823226", "1.0816621954798262", "1.1377933310550161",
           "5.656854249492381", "0.5309384613653398"),
    "E10": ("4.3270695308271145", "4.3270695308271145", "1.389552611108013",
            "5.656854249492381", "0.7321957150159999"),
    "E11": ("10.638958021415828", "227.64911204172532", "1.1323045653098316",
            "5.656854249492381", "1.1032868210560047"),
    "E12": ("6.847348220144003", "1323.3640591081082", "1.1856364111834012",
            "5.656854249492381", "1.220913082178307"),
}


@pytest.mark.parametrize("cid", HEIGHTS_REPORTS)
def test_heights_report_values(cid, capsys):
    assert main(["heights", cid]) == 0
    real1, real2, cplx, fin, bound = HEIGHTS_REPORTS[cid]
    assert json.loads(capsys.readouterr().out) == {
        "curve": cid, "epsilon_real": [real1, real2],
        "epsilon_complex": cplx, "epsilon_finite": fin,
        "height_diff_bound": bound}


def test_catalog_shape():
    cat = cmd_catalog()
    ids = {c["id"] for c in cat}
    assert {"E1", "E10", "E12"} <= ids
    json.dumps(cat)


# sha256 of `lucassq catalog` stdout, as printed at commit e57597d, while
# each catalog entry still stored its rank beside its generators.
CATALOG_SHA256 = (
    "98723ec8b462b81d724fa3317a02687e71cebda350f5a2666814449ae8d76d8b")


def test_catalog_digest(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == CATALOG_SHA256


def test_parser_defaults():
    args = build_parser().parse_args(["search"])
    assert args.p_max == 200 and args.q_max == 200 and args.n_max == 50
    args = build_parser().parse_args(["verify-theorem"])
    assert args.precision == 5 and args.out is None
    for argv in (["verify-theorem", "--float-digits", "9"],
                 ["heights", "E1", "--tol", "1e-3"],
                 ["heights", "E1", "--float-digits", "9"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


def test_driver_record_keeps_roots_and_components(rank1_results,
                                                   rank2_result):
    """Each coset entry of the certificate carries the coset's Skolem root
    or the theta component of its Strassman bound, so both steps can be
    redone from the JSON alone."""
    rec = json.loads(json.dumps(
        cli._driver_record(CURVE_BY_ID["E10"], rank2_result)))
    skolem = {(c["coset"], c["eps"]): c["roots"] for c in rec["cosets"]
              if c["verdict"] == "skolem"}
    assert skolem == {(0, 0): [[0, 0]], (2, 0): [[0, 0]], (10, 0): [[2, -1]]}
    result = rank1_results["E1"]
    rec = json.loads(json.dumps(cli._driver_record(CURVE_BY_ID["E1"], result)))
    strassman = [(c["component"], c["bound"], c["roots"])
                 for c in rec["cosets"] if c["verdict"] == "strassman"]
    assert strassman and all(comp is not None for comp, _, _ in strassman)
    assert strassman == [(r.component, r.bound, list(r.roots))
                         for r in result.reports if r.verdict == "strassman"]


def _driver_raising(exc):
    def run(curve, k=5):
        raise exc
    return run


def test_verify_theorem_precision_error_is_partial(monkeypatch):
    monkeypatch.setattr(padic, "rank1_driver",
                        _driver_raising(padic.PrecisionError("too coarse")))
    monkeypatch.setattr(padic, "rank2_driver",
                        _driver_raising(padic.PrecisionError("too coarse")))
    cert, code = cmd_verify_theorem()
    assert code == 2 and cert["partial"] and cert["final_pairs"] == []
    assert [f["curve"] for f in cert["failing_cosets"]][:2] == ["E1", "E2"]
    assert len(cert["failing_cosets"]) == 12


def test_verify_theorem_rejects_precision_below_one(capsys):
    """k < 1 is invalid input (exit 3); k = 1 is valid but too coarse to
    decide every coset, so it gives a partial certificate (exit 2)."""
    for k in (0, -2):
        with pytest.raises(ValueError):
            cmd_verify_theorem(k)
        assert main(["verify-theorem", "--precision", str(k)]) == 3
    assert main(["verify-theorem", "--precision", "1"]) == 2
    assert json.loads(capsys.readouterr().out)["partial"] is True


def test_verify_theorem_fault_propagates(monkeypatch):
    monkeypatch.setattr(padic, "rank1_driver",
                        _driver_raising(TypeError("a bug, not a coset")))
    with pytest.raises(TypeError):
        cmd_verify_theorem()


def test_verify_theorem_out_prints_summary(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(padic, "rank1_driver",
                        _driver_raising(padic.PrecisionError("too coarse")))
    monkeypatch.setattr(padic, "rank2_driver",
                        _driver_raising(padic.PrecisionError("too coarse")))
    out = tmp_path / "cert.json"
    assert main(["verify-theorem", "--out", str(out)]) == 2
    printed = capsys.readouterr().out
    assert printed == f"final_pairs [] partial true certificate {out}\n"
    assert json.loads(out.read_text())["partial"] is True
    assert main(["verify-theorem"]) == 2
    assert json.loads(capsys.readouterr().out)["partial"] is True


# sha256 of the `verify-theorem --out` certificate at the default precision,
# as written at commit 6efe016.  The file is deterministic, so a refactor
# that leaves the proof alone leaves this digest alone.
CERTIFICATE_SHA256 = (
    "dbb9e6aa15b04c45565f8acb172dfb482cb9caf8cd42cf5f4593596768f6d27e")


def test_verify_theorem_certificate_digest(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["verify-theorem", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith(
        "final_pairs [(1, -4), (4, -17)] partial false")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CERTIFICATE_SHA256


def test_verify_theorem_stdout_is_the_certificate(tmp_path, capsys):
    """Without --out, stdout is the bytes that --out writes, and a newline."""
    out = tmp_path / "cert.json"
    assert main(["verify-theorem", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify-theorem"]) == 0
    assert capsys.readouterr().out == out.read_text() + "\n"


# sha256 of the certificates at --precision 1 and 2 (partial) and 3, as
# written at commit dd03355.  At these precisions the drivers escalate from
# k to k + 2 after a coset the truncation cannot decide.
LOW_PRECISION_SHA256 = {
    1: "a5134cd55aca354e1265ed19493bb7163f62ec682967f66a07a9bc1eed105d64",
    2: "08d85e43758ea001fd01ca2fa16d254f2724bdfdc06d9de7d667aae60eaa01b7",
    3: "93b9ebd99066540e5d418871a020159deae0d5e726478f29408d2237c34cb660",
}


@pytest.mark.parametrize("k", sorted(LOW_PRECISION_SHA256))
def test_verify_theorem_low_precision_digests(k, tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(["verify-theorem", "--precision", str(k), "--out", str(out)])
    assert code == (2 if k < 3 else 0)
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        LOW_PRECISION_SHA256[k])


# sha256 of the complete certificates at --precision 4, 6 and 7, as written
# at commit ab79d08, before the drivers walked the multiples of G mod
# 3^(k+4): the walk must leave the proof alone at every precision.
HIGHER_PRECISION_SHA256 = {
    4: "e7e0ff6f14458db58477a4c2b7437440f3ef6fdbef7e4cf43fb9fe285cf8f5b7",
    6: "72df893b80b0048cf49a3993788eec6eeb0ccefe234244a2c03098aa8edec543",
    7: "470f40cc84ca9292eb3f390acca6fd700f1c5b986cfc2390cb70bd12418f8b00",
}


@pytest.mark.parametrize("k", sorted(HIGHER_PRECISION_SHA256))
def test_verify_theorem_higher_precision_digests(k, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["verify-theorem", "--precision", str(k),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        HIGHER_PRECISION_SHA256[k])


def test_cli_import_leaves_mpmath_out():
    """`lucassq verify-theorem` and `search` do not pay for mpmath: only
    `fields.FieldDescriptor.roots` and `heights` use it, and the command
    line imports neither at start-up."""
    code = "import sys, lucassq.cli; print('mpmath' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("k", [5, 1, 7])
def test_verify_theorem_certificate_on_any_cpu_count(k, tmp_path, monkeypatch,
                                                     capsys):
    """With 1, 2 or 3 CPUs, so with the drivers in one process or spread
    over forked workers, the certificate is byte for byte the same, the
    partial one at k = 1 included, with its exit code and failing order."""
    code = 2 if k == 1 else 0
    digest = {5: CERTIFICATE_SHA256, **LOW_PRECISION_SHA256,
              **HIGHER_PRECISION_SHA256}[k]
    failing = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, n=cpus: set(range(n)))
        out = tmp_path / f"cert{cpus}.json"
        assert main(["verify-theorem", "--precision", str(k),
                     "--out", str(out)]) == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        failing.append([f["curve"] for f in
                        json.loads(out.read_text())["failing_cosets"]])
    capsys.readouterr()
    assert failing[0] == failing[1] == failing[2]
    assert bool(failing[0]) == (code == 2)
