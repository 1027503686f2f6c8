"""Acceptance gate: the twelve end-to-end criteria.

Each criterion is one or more test functions.  Where exact recomputation
differs from a published claim, the test asserts the exact result and each
point of difference, and its docstring states the facts behind them.
"""

import hashlib
import itertools
import json
import math
import random
import time
import zlib
from fractions import Fraction

import pytest

from lucassq.curves import (CURVES, CURVE_BY_ID, INFINITY, CurvePoint,
                            add_points, condition_value, on_curve,
                            recover_ab, scalar_mul)
from lucassq.exact import is_perfect_square, poly_diff
from lucassq.fields import EPS1, EPS2, ETA1, ETA2, K2, ONE_PLUS_THETA, PI
from lucassq.heights import (_charpoly_fractions, candidate_shapes,
                             naive_height)
from lucassq.lucas import LucasParams, lucas_u


def rel_err(got, want):
    return abs(float(got) - want) / abs(want)


# --- 1. exact theorem values --------------------------------------------------

def test_criterion_1_theorem_values():
    assert lucas_u(LucasParams(1, -4), 8) == 441 == 21 ** 2
    assert lucas_u(LucasParams(4, -17), 8) == 384400 == 620 ** 2


# --- 2. search reproduction ---------------------------------------------------

# sha256 of the 200/200/50 report without elapsed_s, as
# json.dumps(report, sort_keys=True); CI checks the command's output too.
CENSUS_DIGEST = "daf2571d95b22efcb1a6c93b99ae412d830d8276343cd3a392451091c742c62b"


def test_criterion_2_search_box():
    """The 200/200/50 census: its indices, counts and U_8 pairs, and the
    whole report (examples included) through its pinned digest."""
    from lucassq.cli import cmd_search, cpu_count
    t0 = time.monotonic()
    rep = cmd_search(200, 200, 50, workers=cpu_count())
    assert time.monotonic() - t0 < 300
    assert set(rep["indices"]) == {2, 3, 4, 5, 6, 7, 8, 12}
    assert rep["n8_pairs"] == [(1, -4), (4, -17)]
    assert rep["hits_per_n"] == {"2": 3533, "3": 800, "4": 90, "5": 28,
                                 "6": 8, "7": 8, "8": 2, "12": 1}
    del rep["elapsed_s"]
    report = json.dumps(rep, sort_keys=True).encode()
    assert hashlib.sha256(report).hexdigest() == CENSUS_DIGEST


# --- 3. the n = 7 family ------------------------------------------------------

def test_criterion_3_u7_family():
    from lucassq.elementary import u7_solutions
    want = [(1, 1), (1, 5), (2, -1), (5, 21), (1, -104), (21, 545),
            (52, 415)]
    assert u7_solutions(8) == want


# --- 4. field identities --------------------------------------------------------

def test_criterion_4_factorizations_of_two():
    assert ETA1 ** (-4) * ETA2 ** 2 * ONE_PLUS_THETA ** 4 == 2
    assert EPS2 ** (-2) * PI ** 4 == 2


# --- 5. curve catalog -----------------------------------------------------------

def test_criterion_5_generators_and_descent_pairs():
    for c in CURVES:
        for g in c.gens:
            assert on_curve(c, g), c.id
    expected = {"E1": (1, 1, 3), "E2": (1, 1, 1), "E3": (1, 1, 1),
                "E4": (1, 1, 1), "E5": (2, 1, 5), "E7": (2, 1, 2),
                "E8": (2, 1, 0)}
    for cid, (mult, a, b) in expected.items():
        curve = CURVE_BY_ID[cid]
        sol = recover_ab(curve, scalar_mul(curve, mult, curve.gens[0]))
        assert sol is not None and (sol.a, abs(sol.b)) == (a, b), cid


# --- 6. 3-adic golden values ----------------------------------------------------

def test_criterion_6_padic_golden(e10_kernel):
    from lucassq.padic import poly_components_mod, reduce_element
    kern = e10_kernel                    # derived by the rank-2 driver
    # the kernel basis Q1 = P1 + 8 P2, Q2 = 24 P2
    assert (kern.N, kern.b) == (24, [8])
    assert reduce_element(kern.z1, 5).coords == (33, 240, 33, 93)
    assert reduce_element(kern.z2, 5).coords == (213, 234, 105, 144)
    assert reduce_element(kern.L1, 5).coords == (3 * 32, 3 * 35, 3 * 50, 3 * 61)
    assert reduce_element(kern.L2, 5).coords == (3 * 47, 9 * 8, 3 * 38, 9 * 7)
    comp0 = poly_components_mod(kern.zpoly, 5)[0]
    assert comp0.coefficient((1, 2)) == 216
    assert comp0.coefficient((1, 0)) == 96
    assert comp0.coefficient((0, 1)) == 141


# --- 7. series golden values ------------------------------------------------------

def test_criterion_7_series_golden(e10_kernel):
    from lucassq.exact import Poly
    from lucassq.padic import (beta_x_series, inverse_beta_x_series,
                               padic_exp, padic_log, reduce_element)
    E10, pack = CURVE_BY_ID["E10"], e10_kernel.pack

    def el(c1, c3):
        return K2.element(0, c1, 0, c3)

    X0, Y0 = Poly.variable(0, 2), Poly.variable(1, 2)
    s = beta_x_series(E10, X0, Y0, order=4, pack=pack)
    assert s[0] == Poly(2, {(1, 0): el(6, 1), (0, 0): el(-4, -1)})
    assert s[1] == Poly(2, {(0, 1): el(12, 2)})
    assert s[2] == Poly(2, {(2, 0): el(18, 3), (1, 0): el(-16, -4),
                            (0, 0): el(4, 0)})
    assert s[3] == Poly(2, {(1, 1): el(24, 4), (0, 1): el(-16, -4)})
    assert s[4] == Poly(2, {(3, 0): el(24, 4), (2, 0): el(-48, -12),
                            (1, 0): el(32, 4), (0, 2): el(6, 1),
                            (0, 0): el(-4, -2)})

    inv = inverse_beta_x_series(E10, order=6, pack=pack)
    assert inv[2].coords == (0, Fraction(1, 8), 0, Fraction(1, 16))
    assert inv[4].coords == (0, Fraction(-1, 8), 0, 0)

    assert pack.log[3].coords == (Fraction(-1, 3), 0, Fraction(-1, 6), 0)
    assert pack.exp[3].coords == (Fraction(1, 3), 0, Fraction(1, 6), 0)

    # exp o log = id through t^6 (i.e. exactly mod 3^5 on a kernel point)
    z = e10_kernel.z1
    back = padic_exp(pack, padic_log(pack, z, 8), 8)
    assert reduce_element(back - z, 5).coords == (0, 0, 0, 0)


# --- 8. Skolem cases ---------------------------------------------------------------

def _skolem_system(comp_a, comp_b, shift, k=5):
    from lucassq.padic import (build_skolem_system, divide_out_3, poly_mod,
                               poly_shift, skolem_check)
    m = 3 ** k
    f1 = poly_mod(poly_shift(comp_a, shift), m)
    f2 = poly_mod(poly_shift(comp_b, shift), m)
    (f1, f2), _ = divide_out_3([f1, f2], k)
    system = build_skolem_system(f1, f2)
    return system, skolem_check(system)


def _brute_force_origin_only(system):
    for n1 in range(27):
        for n2 in range(27):
            if (system.f1.evaluate([n1, n2]) % 27 == 0
                    and system.f2.evaluate([n1, n2]) % 27 == 0):
                assert n1 % 3 == 0 and n2 % 3 == 0


def test_criterion_8_skolem_cases(e10_kernel):
    from lucassq.padic import (beta_x_series, inverse_beta_x_series,
                               reduce_element, theta_components)
    E10, pack, zpoly = CURVE_BY_ID["E10"], e10_kernel.pack, e10_kernel.zpoly
    P2 = E10.gens[1]

    def coset_comps(c):
        base = scalar_mul(E10, c, P2)
        ser = beta_x_series(E10, reduce_element(base.x, 9),
                            reduce_element(base.y, 9), order=4, pack=pack)
        return theta_components(ser, zpoly, 5)[1:]

    # Case 1.1: coset of 2 P2, linear parts (2 n1, n1 + n2), det 2 mod 3
    comps = coset_comps(2)
    system, res = _skolem_system(comps[2], comps[1], (0, 0))
    assert res["unique"] and res["kind"] == "linear"
    assert res["resultant"] % 3 == 2
    assert system.lowest1.terms == {(1, 0): 2}
    assert system.lowest2.terms == {(1, 0): 1, (0, 1): 1}
    _brute_force_origin_only(system)

    # Case 1.2: coset of 10 P2, same linear parts after the shift (2, -1)
    comps = coset_comps(10)
    system, res = _skolem_system(comps[2], comps[1], (2, -1))
    assert res["unique"] and res["kind"] == "linear"
    assert res["resultant"] % 3 == 2
    assert system.lowest1.terms == {(1, 0): 2}
    assert system.lowest2.terms == {(1, 0): 1, (0, 1): 1}
    _brute_force_origin_only(system)

    # Case 2: the identity coset, H1 = 2 n1^2 is the first lowest part and
    # H2 = 16 n2^4 is the resultant 16 of the two
    inv = inverse_beta_x_series(E10, order=6, pack=pack)
    comps = theta_components(inv, zpoly, 5)[1:]
    system, res = _skolem_system(comps[2], comps[0], (0, 0))
    assert res["unique"] and res["kind"] == "resultant"
    assert system.lowest1.terms == {(2, 0): 2}
    assert system.lowest2.terms == {(2, 0): 1, (1, 1): 1, (0, 2): 2}
    assert res["resultant"] == 16
    _brute_force_origin_only(system)


# --- 9. driver conclusions -----------------------------------------------------------

RANK1_EXPECTED = {
    "E1": (1,), "E2": (1,), "E3": (1,), "E4": (1,), "E5": (2,),
    "E6": (), "E7": (2,), "E8": (2,), "E9": (), "E11": (),
}


def _survivor_multiples(curve, result):
    out = []
    for pt in result.survivors:
        m = next((m for m in (-2, -1, 1, 2)
                  if pt == scalar_mul(curve, m, curve.gens[0])), None)
        assert m is not None, (curve.id, pt.x.coords)
        out.append(m)
    return sorted(out)


def test_criterion_9_rank1_survivors(rank1_results):
    for cid, mults in RANK1_EXPECTED.items():
        curve = CURVE_BY_ID[cid]
        got = _survivor_multiples(curve, rank1_results[cid])
        want = sorted(m * s for m in mults for s in (-1, 1))
        assert got == want, cid


def test_criterion_9_e12_no_points(rank1_results):
    """E12 contributes no admissible point, and so no pair, to the theorem.

    The published table lists no points at all.  The driver finds +-2 G12,
    and exactly: X(+-2 G12) = delta/phi = 3/2 + 3/2 phi + 1/4 phi^2 +
    1/4 phi^3 with delta = eps1 eps2, so the condition value
    beta X + gamma = 4X/delta - 4/phi is 0.  That is (a, b) = (1, 0), which
    the descent rejects as 'b = 0 impossible' -- the same shape as the
    +-2 G8 survivors on E8 (criterion 5 and RANK1_EXPECTED)."""
    E12 = CURVE_BY_ID["E12"]
    result = rank1_results["E12"]
    assert _survivor_multiples(E12, result) == [-2, 2]
    phi = K2.element(0, 1)
    delta = EPS1 * EPS2
    assert E12.delta == delta
    for pt in result.survivors:
        assert pt.x == delta / phi
        assert pt.x.coords == (Fraction(3, 2), Fraction(3, 2),
                               Fraction(1, 4), Fraction(1, 4))
        assert condition_value(E12, pt) == 0
        sol = recover_ab(E12, pt)
        assert (sol.a, sol.b) == (1, 0)
        assert sol.params is None
        assert sol.reject_reason == "b = 0 impossible"


def test_criterion_9_rank2_survivors(rank2_result):
    E10 = CURVE_BY_ID["E10"]
    P1, P2 = E10.gens
    want = []
    for s in (1, -1):
        want.append(scalar_mul(E10, 2 * s, P2))
        want.append(add_points(E10, scalar_mul(E10, 2 * s, P1),
                               scalar_mul(E10, 2 * s, P2)))
    got = {(pt.x.coords, pt.y.coords) for pt in rank2_result.survivors}
    assert got == {(pt.x.coords, pt.y.coords) for pt in want}


def test_criterion_9_pipeline_conclusion():
    from lucassq.cli import cmd_verify_theorem
    t0 = time.monotonic()
    cert, code = cmd_verify_theorem()
    assert time.monotonic() - t0 < 120
    assert code == 0 and not cert["partial"]
    assert cert["final_pairs"] == [[1, -4], [4, -17]]


# --- 10. heights -------------------------------------------------------------------

def test_criterion_10_epsilons_and_bounds():
    from lucassq.heights import height_diff_bound
    c1, eps1 = height_diff_bound("E1")
    assert rel_err(eps1[0], 1.2470320339) < 1e-9
    assert rel_err(eps1[1], 125.1781057981) < 1e-9
    c10, eps10 = height_diff_bound("E10")
    assert rel_err(eps10[2], 1.3895526111080129) < 1e-9
    c8, _ = height_diff_bound("E8")
    assert rel_err(c1, 0.485252911746822) < 1e-9
    assert rel_err(c10, 0.732195715015999) < 1e-9
    assert rel_err(c8, 1.153959714852488) < 1e-9


def test_criterion_10_canonical_height_g9():
    from lucassq.heights import canonical_height
    E9 = CURVE_BY_ID["E9"]
    h = canonical_height(E9, E9.gens[0], tol=2.5e-6)
    assert abs(float(h) - 0.125726743336419) < 1e-6


# --- 11. generator certification ------------------------------------------------------

def _poly_divmod(f, g):
    """Quotient and remainder of Fraction polynomials (low-to-high)."""
    f = list(f)
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 1)
    while len(f) >= len(g) and any(f):
        c = f[-1] / g[-1]
        shift = len(f) - len(g)
        q[shift] = c
        for i, gi in enumerate(g):
            f[shift + i] -= c * gi
        f.pop()
    while f and f[-1] == 0:
        f.pop()
    return q, f


def _minimal_polynomial(x):
    """Monic minimal polynomial of x (low-to-high): the squarefree part of
    its characteristic polynomial, which is a power of the minimal one."""
    f = _charpoly_fractions(x)
    g, h = f, poly_diff(f)
    while h:
        g, h = h, _poly_divmod(g, h)[1]
    q, _ = _poly_divmod(f, g)
    return [c / q[-1] for c in q]


def _box_vector(shape, poly):
    """The integer box coordinates of a monic polynomial (low-to-high) in a
    candidate shape, inverting `heights._row_poly`; None if
    the degree differs or a coordinate is not an integer."""
    if len(poly) != len(shape.multipliers) + 1:
        return None
    high = list(reversed(poly[:-1]))
    high[-1] *= shape.denominator
    vec = [a / m for a, m in zip(high, shape.multipliers)]
    if any(v.denominator != 1 for v in vec):
        return None
    return tuple(int(v) for v in vec)


def _in_box(shape, ranges, vec):
    return (vec is not None
            and all(abs(v) <= r for v, r in zip(vec, ranges))
            and all(vec[i] % modulus == residue
                    for i, modulus, residue in shape.parities))


def _combination(curve, ms, torsion):
    """sum m_i gens_i, plus the 2-torsion point T = (0, 0) if asked."""
    p = INFINITY
    for m, g in zip(ms, curve.gens):
        p = add_points(curve, p, scalar_mul(curve, m, g))
    if torsion:
        p = add_points(curve, p, CurvePoint(curve.field.zero(),
                                            curve.field.zero()))
    return p


def _box_oracle(curve, shapes, span=3):
    """X-coordinates of the points sum m_i gens_i (+T), |m_i| <= span, whose
    minimal polynomial lies in a coefficient box of `shapes` (tag, ranges),
    as recorded in a certificate.  Exact arithmetic only: the box sieve is
    never consulted, so agreement also shows it dropped no such point."""
    ranges = dict(shapes)
    found = set()
    for ms in itertools.product(range(-span, span + 1), repeat=curve.rank):
        for torsion in (False, True):
            p = _combination(curve, ms, torsion)
            if p.at_infinity:
                continue
            mpoly = _minimal_polynomial(p.x)
            if any(_in_box(s, ranges[s.tag], _box_vector(s, mpoly))
                   for s in candidate_shapes(curve)):
                found.add(p.x.coords)
    return found


def test_criterion_11_e1_runtime_and_conclusion(e1_certificate):
    cert, elapsed = e1_certificate
    assert elapsed < 60
    assert cert.conclusion == "generator"
    assert cert.bound_c == pytest.approx(0.485252911746822, rel=1e-6)
    # the wall-clock gate's deterministic counterpart
    assert cert.ranges_decided and cert.doublings <= 6


def test_criterion_11_e1_exact_survivor_set(e1_certificate):
    """The box enumeration on E1 surfaces exactly the points whose minimal
    polynomial lies in the boxes, and that is only the 2-torsion X = 0.

    The published claim is +-G1.  But x(G1) has minimal polynomial
    X^4 - 4X^3 + 13X^2 - 34X + 49/4, with quartic-halfint vector
    (-1, 13, -17, 49) outside the stated box (1, 20, 12, 46) in two slots;
    consistently h(x(G1)) ~ 1.190 exceeds log B ~ 0.614.  The index
    argument only needs the points of small height, so the conclusion
    'generator' stands.  (Survivors are X-coordinates, one per +- pair,
    so the labels could never hold both '1G' and '-1G'.)"""
    E1 = CURVE_BY_ID["E1"]
    cert, _ = e1_certificate
    assert ("quartic-halfint", [1, 20, 12, 46]) in cert.shapes
    oracle = _box_oracle(E1, cert.shapes)
    assert {x.coords for x in cert.survivors} == oracle
    assert oracle == {(0, 0, 0, 0)}
    assert cert.survivor_names == ["0G+T"]

    x_g = E1.gens[0].x
    halfint = next(s for s in candidate_shapes(E1)
                   if s.tag == "quartic-halfint")
    mpoly = _minimal_polynomial(x_g)
    assert mpoly == [Fraction(49, 4), -34, 13, -4, 1]
    vec = _box_vector(halfint, mpoly)
    assert vec == (-1, 13, -17, 49)
    assert not _in_box(halfint, [1, 20, 12, 46], vec)
    assert naive_height(x_g) > math.log(cert.cap_b)


def test_criterion_11_e10_runtime_and_conclusion(e10_certificate):
    cert, elapsed = e10_certificate
    assert elapsed < 600
    assert cert.conclusion == "generators"
    assert cert.ranges_decided and cert.doublings <= 6


def test_criterion_11_e10_exact_survivor_set(e10_certificate):
    """The box enumeration on E10 surfaces exactly the points whose minimal
    polynomial lies in the boxes: eleven X-coordinates, one per +- class.

    The published list has eight +- classes (sixteen signed points).  Exact
    arithmetic differs from it in both directions:
    - +-(P1 - P2) has X = 6/49 - 29/98 phi + 5/98 phi^2 + 33/196 phi^3,
      whose minimal polynomial is not integral, so it lies in no box;
    - inside the boxes (2, 14, 10, 22) / (2, 4) / (2) but not published:
      +-(P1 + 2P2) with X = phi^2/2 and minimal polynomial X^2 + 2X - 1,
      +-(P1 + 2P2 + T) with X^2 - 2, +-(2P1 + 2P2 + T), the sigma-conjugate
      (phi -> -phi) of 2P2 + T, with X^4 - 8X^3 - 8X^2 - 32X + 16, and T
      itself with X = 0.
    So 8 - 1 + 3 + 1 = 11.  The conclusion 'generators' is unaffected."""
    E10 = CURVE_BY_ID["E10"]
    cert, _ = e10_certificate
    assert ("quartic", [2, 14, 10, 22]) in cert.shapes
    assert ("quadratic", [2, 4]) in cert.shapes
    assert ("linear", [2]) in cert.shapes
    got = {x.coords for x in cert.survivors}
    assert got == _box_oracle(E10, cert.shapes)

    def x_of(m1, m2, torsion=False):
        return _combination(E10, (m1, m2), torsion).x

    x_diff = x_of(1, -1)
    assert x_diff == K2.element(Fraction(6, 49), Fraction(-29, 98),
                                Fraction(5, 98), Fraction(33, 196))
    assert all(_box_vector(s, _minimal_polynomial(x_diff)) is None
               for s in candidate_shapes(E10))

    unpublished = {(1, 2, False): [-1, 2, 1], (1, 2, True): [-2, 0, 1],
                   (2, 2, True): [16, -32, -8, -8, 1], (0, 0, True): [0, 1]}
    for combo, mpoly in unpublished.items():
        assert _minimal_polynomial(x_of(*combo)) == mpoly, combo
    assert x_of(1, 2) == K2.element(0, 0, Fraction(1, 2))
    a, b, c, d = x_of(0, 2, True).coords
    assert x_of(2, 2, True).coords == (a, -b, c, -d)

    # the published classes other than P1 - P2
    published = [(1, 0, False), (0, 1, False), (1, 1, False), (1, 0, True),
                 (0, 1, True), (1, 1, True), (0, 2, True)]
    want = {x_of(*combo).coords for combo in published + list(unpublished)}
    assert len(want) == 11
    assert got == want


def test_criterion_11_e8_large_box_certification(monkeypatch):
    """E8 certifies within 60 s, with a box search that keeps its traced
    allocations under 64 MiB while streaming a box of over 5M rows.  Of the
    five curves whose boxes hold 5-21M rows (E3, E4, E8, E11, E12), E8 is
    the cheapest to certify by measurement.  Its survivors are exactly the
    oracle's."""
    import tracemalloc
    from lucassq import heights
    E8 = CURVE_BY_ID["E8"]
    search, peaks = heights._search_box, []

    def traced(curve, cap):
        tracemalloc.start()
        try:
            return search(curve, cap)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(heights, "_search_box", traced)
    t0 = time.monotonic()
    cert = heights.certify_generators(E8)
    assert time.monotonic() - t0 < 60
    assert cert.conclusion == "generator"
    assert ("quartic", [3, 31, 33, 106]) in cert.shapes
    assert ("quadratic", [3, 10]) in cert.shapes
    assert ("linear", [3]) in cert.shapes
    assert math.prod(2 * r + 1 for r in dict(cert.shapes)["quartic"]) > 5_000_000
    assert peaks and max(peaks) < 64 * 2 ** 20
    assert {x.coords for x in cert.survivors} == _box_oracle(E8, cert.shapes)


# --- 12. property suites ---------------------------------------------------------------

def _random_combination(curve, rng):
    ms = [rng.randint(-4, 4) for _ in curve.gens]
    return _combination(curve, ms, rng.random() < 0.5)


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.id)
def test_criterion_12_group_law_associativity(curve):
    rng = random.Random(0xC0FFEE ^ zlib.crc32(curve.id.encode()))
    for _ in range(200):
        p, q, r = (_random_combination(curve, rng) for _ in range(3))
        assert (add_points(curve, add_points(curve, p, q), r)
                == add_points(curve, p, add_points(curve, q, r)))


def test_criterion_12_exp_log_round_trip():
    from lucassq.padic import (derive_formal_series, kernel_basis, padic_exp,
                               padic_log, reduce_element)
    for cid in ("E1", "E5", "E10"):
        curve = CURVE_BY_ID[cid]
        z = kernel_basis(curve, 8)[2][0]      # z(Q_1) mod 3^8
        pack = derive_formal_series(curve, 10)
        back = padic_exp(pack, padic_log(pack, z, 8), 8)
        assert reduce_element(back - z, 5).coords == (0, 0, 0, 0), cid


def test_criterion_12_z_combo_matches_group_law(e10_kernel):
    from lucassq.padic import poly_components_mod, reduce_element
    E10 = CURVE_BY_ID["E10"]
    comps = poly_components_mod(e10_kernel.zpoly, 5)
    for n1 in range(-2, 3):
        for n2 in range(-2, 3):
            pt = add_points(E10, scalar_mul(E10, n1, e10_kernel.Q1),
                            scalar_mul(E10, n2, e10_kernel.Q2))
            want = ((0, 0, 0, 0) if pt.at_infinity
                    else reduce_element(-pt.x / pt.y, 5).coords)
            got = tuple(c.evaluate([n1, n2]) % 3 ** 5 for c in comps)
            assert got == want, (n1, n2)


def test_criterion_12_fact2_floors(e10_kernel):
    from lucassq.padic import (fact2_floor, inverse_beta_x_series,
                               theta_components)
    E10, pack, zpoly = CURVE_BY_ID["E10"], e10_kernel.pack, e10_kernel.zpoly
    inv = inverse_beta_x_series(E10, order=6, pack=pack)
    thetas = theta_components(inv, zpoly, 5)
    assert any(not t.is_zero() for t in thetas)
    for theta in thetas:
        for e, c in theta.terms.items():
            d, v, cc = sum(e), 0, abs(c)
            while cc and cc % 3 == 0:
                cc //= 3
                v += 1
            assert v >= min(fact2_floor(d), 5), (e, c)


def test_criterion_12_oracle_equivalence_box_60():
    """U_n is a square exactly when its polynomial in (P, Q) is, for
    2 <= n <= 7 and every coprime pair with |P|, |Q| <= 60."""
    from test_elementary import U_N_POLYNOMIALS
    for p in range(-60, 61):
        for q in range(-60, 61):
            if p == 0 or q == 0 or math.gcd(p, q) != 1:
                continue
            params = LucasParams(p, q)
            for n, poly in U_N_POLYNOMIALS.items():
                assert (is_perfect_square(poly(p, q))
                        == is_perfect_square(lucas_u(params, n))), (p, q, n)
