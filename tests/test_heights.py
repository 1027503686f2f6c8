"""Archimedean epsilon data, canonical heights, and the X-coordinate
enumeration/lifting toolkit."""

import dataclasses
import itertools
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

import lucassq.heights as heights
from lucassq import curves
from lucassq.curves import (CURVE_BY_ID, CURVES, CurvePoint, add_points,
                            add_torsion, scalar_mul)
from lucassq.exact import (poly_add, poly_diff, poly_mul,
                           poly_scale, resultant)
from lucassq.fields import (K1, K2, PI, residue, split_prime,
                            two_adic_valuation)
from lucassq.heights import (DENOMINATOR, EULER_PRIMES, MAX_DOUBLINGS,
                             SIEVE_PRIMES, _charpoly_fractions,
                             _fibre_counts, _monic_mod, candidate_shapes,
                             canonical_height, certify_generators,
                             epsilon_nonarchimedean,
                             field_sqrt, halving_candidates, height_diff_bound,
                             height_intervals, height_upper_bound,
                             lift_x_to_point, naive_height, roots_in_field,
                             shape_ranges)
from test_acceptance import _minimal_polynomial

E1 = CURVE_BY_ID["E1"]
E9 = CURVE_BY_ID["E9"]
E10 = CURVE_BY_ID["E10"]

sixteenths = st.tuples(*(st.integers(-160, 160).map(lambda n: Fraction(n, 16))
                         for _ in range(4)))
# coordinates with denominators outside (1/16)Z too
rationals = st.tuples(*(st.builds(Fraction, st.integers(-160, 160),
                                  st.sampled_from([1, 3, 7, 9, 16, 48]))
                        for _ in range(4)))
fields = st.sampled_from([K1, K2])


def test_epsilon_nonarchimedean():
    # K1 curves contribute nothing at the finite place
    assert epsilon_nonarchimedean(E1) == 1
    # on E10 the scan's largest valuation is v = 10: 2^(10/4) = 4 sqrt(2)
    with mp.workdps(heights.DIGITS + 15):
        assert mp.almosteq(epsilon_nonarchimedean(E10), 4 * mp.sqrt(2),
                           rel_eps=mp.mpf(10) ** -(heights.DIGITS + 10))


def _order_k2(cs):
    """The element of O_K2 with coordinates cs over `order_basis`."""
    return sum(c * K2.element(*row) for c, row in zip(cs, K2.order_basis))


@pytest.mark.parametrize("curve", [c for c in CURVES if c.field is K2],
                         ids=lambda c: c.id)
def test_epsilon_nonarchimedean_matches_mod_8_scan(curve):
    """The O_K2 mod 2 scan gives the epsilon of a scan of O_K2 mod 8 =
    pi^12, the largest 2 v_pi(x^2 - B) over its 4,096 elements."""
    vs = [2 * two_adic_valuation(_order_k2(cs) ** 2 - curve.b)
          for cs in itertools.product(range(8), repeat=4)]
    assert max(vs) < 12
    with mp.workdps(heights.DIGITS + 15):
        assert epsilon_nonarchimedean(curve) == mp.mpf(2) ** Fraction(max(vs), 4)


@given(st.sampled_from([c.b for c in CURVES if c.field is K2]),
       *(st.tuples(*(st.integers(-40, 40) for _ in range(4)))
         for _ in range(2)))
@settings(max_examples=200, deadline=None)
def test_pi_adic_valuation_of_x2_minus_b_is_fixed_mod_2(b, xs, ds):
    """v_pi(x^2 - B) and v_pi((x + 2d)^2 - B) agree when either is below 6,
    for x and d in O_K2: (x + 2d)^2 - x^2 = 4d(x + d) has valuation >= 8,
    so the O_K2 mod 2 scan of `epsilon_nonarchimedean` sees every
    valuation below 6 and every class that reaches 6."""
    def v(w):
        return two_adic_valuation(w) if w else 99

    x = _order_k2(xs)
    v1, v2 = v(x * x - b), v((x + 2 * _order_k2(ds)) ** 2 - b)
    assert v1 == v2 or min(v1, v2) >= 6


def test_two_adic_valuation_matches_division_by_pi():
    """On the 4,096 elements w = x^2 - B of E10, x in O_K2 mod 8, v_2(N(w))
    is the number of exact divisions by pi that stay in the maximal
    order."""
    basis = [K2.element(*row) for row in K2.order_basis]
    pi_inv = PI.inv()
    for cs in itertools.product(range(8), repeat=4):
        w = sum(c * e for c, e in zip(cs, basis)) ** 2 - E10.b
        assert w and w.in_maximal_order()
        v, q = 0, w * pi_inv
        while q.in_maximal_order():
            v, q = v + 1, q * pi_inv
        assert two_adic_valuation(w) == v, cs


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.id)
def test_real_infimum_dense_scan(curve):
    """At both real places, no x of a 20,000-point scan of
    [0, 4 max(10, largest candidate)] with f(x) >= 0 has an objective more
    than 1e-12 (relative) below `_real_infimum`."""
    for place in (0, 1):
        with mp.workdps(heights.DIGITS + 15):
            f, g = heights._real_fg(curve, place)
            inf = heights._real_infimum(curve, place)
            top = 4 * max(10, *heights._real_candidates(f, g))
        x = np.linspace(0, float(top), 20000)
        fx = np.polyval([float(c) for c in f[::-1]], x)
        gx = np.polyval([float(c) for c in g[::-1]], x)
        obj = np.maximum(abs(fx), abs(gx)) / np.maximum(1, x) ** 4
        assert obj[fx >= 0].min() >= float(inf) * (1 - 1e-12), place


def test_roots_raise_without_convergence(monkeypatch):
    """A root that Newton's method cannot polish, or a root found twice,
    raises NoConvergence, which stops the epsilon computation rather than
    losing candidates."""
    NoConvergence = mpmath.libmp.NoConvergence
    with mp.workdps(heights.DIGITS + 15):
        two = [mp.mpf(-2), mp.mpf(0), mp.mpf(1)]
        _same_roots(heights._roots(two), [-mp.sqrt(2), mp.sqrt(2)])
        double = poly_mul(two, two)                     # (X^2 - 2)^2
        with pytest.raises(NoConvergence, match="polish"):
            heights._roots(double)
        # Newton's method converges only linearly to a double root; given
        # the steps, it stops on both of its seeds, which then coincide
        monkeypatch.setattr(heights, "NEWTON_STEPS", 200)
        with pytest.raises(NoConvergence, match="coincide"):
            heights._roots(double)
        monkeypatch.setattr(heights, "NEWTON_STEPS", 0)
        with pytest.raises(NoConvergence, match="polish"):
            heights._roots(two)
    with pytest.raises(NoConvergence):
        heights.epsilon_archimedean(E1, 0)


def _trim(p):
    while p and not p[-1]:
        p = p[:-1]
    return p


@given(st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9)),
       st.builds(Fraction, st.integers(-50, 50).filter(bool),
                 st.integers(1, 9)))
@settings(max_examples=50, deadline=None)
def test_real_candidate_factorizations(a, b):
    """The identities behind `_real_candidates`, over exact a and b != 0:
    with f = 4X(X^2 + aX + b) and g = (X^2 - b)^2, the polynomials
    x g' - 4g, g', x f' - 4f and f' factor into X and the quadratics whose
    roots `_quadratic_roots` finds."""
    f, g = [0, 4 * b, 4 * a, 4], [b * b, 0, -2 * b, 0, 1]
    assert g == poly_mul([-b, 0, 1], [-b, 0, 1])
    assert _trim(poly_add([0] + poly_diff(g), poly_scale(g, -4))) == \
        poly_scale([-b, 0, 1], 4 * b)
    assert poly_diff(g) == poly_mul([0, 4], [-b, 0, 1])
    assert f == poly_mul([0, 4], [b, a, 1])
    assert _trim(poly_add([0] + poly_diff(f), poly_scale(f, -4))) == \
        poly_mul([0, -4], [3 * b, 2 * a, 1])
    assert poly_diff(f) == poly_scale([b, 2 * a, 3], 4)


def _same_roots(got, want):
    """got and want are the same multiset of complex numbers, to 10^-40
    relative."""
    want = list(want)
    assert len(got) == len(want)
    for r in got:
        s = min(want, key=lambda s: abs(r - s))
        assert abs(r - s) <= mp.mpf(10) ** -40 * abs(s), (r, s)
        want.remove(s)


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.id)
def test_roots_match_polyroots(curve):
    """`_roots` of f -+ g at both real places and of both octics at the
    complex pair agree with mpmath's polyroots (maxsteps 200 and extraprec
    80 on the quartics, 500 and 200 on the octics), and `_quadratic_roots`
    of each quadratic factor with the real roots polyroots finds for it."""
    def polyroots(p, maxsteps, extraprec):
        return mp.polyroots(p[::-1], maxsteps=maxsteps, extraprec=extraprec)

    with mp.workdps(heights.DIGITS + 15):
        for place in (0, 1):
            f, g = heights._real_fg(curve, place)
            for p in (poly_add(f, poly_scale(g, -1)), poly_add(f, g)):
                _same_roots(heights._roots(p), polyroots(p, 200, 80))
            a, b = f[2] / 4, f[1] / 4
            for q in ([-b, 0, 1], [b, a, 1], [3 * b, 2 * a, 1],
                      [b, 2 * a, 3]):
                _same_roots(heights._quadratic_roots(*q),
                            [r for r in polyroots(q, 200, 80)
                             if mp.im(r) == 0])
        f2, g = heights._complex_fg(curve)
        g2 = poly_mul(g, g)
        for octic in (poly_add(f2, poly_scale(g2, -1)), poly_add(f2, g2)):
            _same_roots(heights._roots(octic), polyroots(octic, 500, 200))


def test_src_names_no_polyroots():
    """No module of the package calls mpmath's general root finder."""
    for path in Path(heights.__file__).parent.glob("*.py"):
        assert "polyroots" not in path.read_text(), path.name


def test_real_infimum_needs_f_negative_left_of_zero():
    """With sigma(B) < 0, X^2 + AX + B has a root x < 0, so f >= 0 somewhere
    on x < 0, where the candidates do not look: that raises."""
    bad = dataclasses.replace(E1, id="E1/-B", b=-E1.b)
    with pytest.raises(ArithmeticError, match="x < 0"):
        heights.epsilon_archimedean(bad, 0)


def test_height_diff_bound_positive_and_cached():
    c1, eps1 = height_diff_bound("E1")
    c2, _ = height_diff_bound("E1")
    assert c1 == c2                      # lru cache: literally the same
    assert float(c1) > 0
    assert all(float(e) > 1 for e in eps1)


def test_naive_height_rational_x():
    # x in Q: h = (1/4) log max(|num|, den)^4 = log max(|num|, den)
    x = K1.element(Fraction(7, 2))
    got = naive_height(x)
    assert abs(float(got) - float(mp.log(7))) < 1e-12
    assert abs(float(naive_height(K1.element(2)))
               - float(mp.log(2))) < 1e-12


def test_canonical_height_torsion_is_zero():
    T = CurvePoint(E1.field.zero(), E1.field.zero())
    assert float(canonical_height(E1, T, tol=1e-3)) == 0.0


def test_canonical_height_quadratic():
    """hhat(2G) = 4 hhat(G), the defining property."""
    G = E1.gens[0]
    h1 = canonical_height(E1, G, tol=1e-4)
    h2 = canonical_height(E1, scalar_mul(E1, 2, G), tol=1e-4)
    assert abs(float(h2) - 4 * float(h1)) < 1e-3


def test_height_difference_one_sided():
    """h(P) - 2 hhat(P) <= C for several points, within tolerance."""
    C, _ = height_diff_bound("E1")
    for m in (1, 2):
        P = scalar_mul(E1, m, E1.gens[0])
        h = naive_height(P.x)
        hh = canonical_height(E1, P, tol=1e-4)
        assert float(h) - 2 * float(hh) <= float(C) + 1e-3, m


# --- certified height intervals -----------------------------------------------


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.id)
def test_duplication_bound(curve):
    """h(x(2Q)) - 4 h(x(Q)) <= D = 3 C', the one-step bound behind C', in
    exact heights at Q = G, 2G, 3G (rank 2: P1, P2, P1 + P2)."""
    D = 3 * height_upper_bound(curve.id)
    if curve.rank == 1:
        G = curve.gens[0]
        points = [scalar_mul(curve, m, G) for m in (1, 2, 3)]
    else:
        P1, P2 = curve.gens
        points = [P1, P2, add_points(curve, P1, P2)]
    for Q in points:
        Q2 = add_points(curve, Q, Q)
        assert naive_height(Q2.x) - 4 * naive_height(Q.x) <= D


def test_height_upper_bound_cached_and_checked(monkeypatch):
    """C' is cached per curve, lies in (0.9, 1.2) on every curve, and
    needs A and B in the maximal order."""
    assert height_upper_bound("E10") is height_upper_bound("E10")
    assert all(0.9 < height_upper_bound(c.id) < 1.2 for c in CURVES)
    bad = dataclasses.replace(E1, id="E1/2", a=E1.a / 2)
    monkeypatch.setitem(curves.CURVE_BY_ID, bad.id, bad)
    with pytest.raises(ArithmeticError, match="not integral"):
        height_upper_bound(bad.id)


def test_e9_golden_height_in_every_interval():
    """E9's golden hhat(G) lies in the certified interval at every m up to
    MAX_DOUBLINGS, and the interval is C / (2*4^m) below and C' / (2*4^m)
    above the m-th doubling value."""
    golden = mp.mpf("0.125726743336419")
    C, _ = height_diff_bound("E9")
    width = C + height_upper_bound("E9")
    for m, [(lo, hi)] in height_intervals(E9, [E9.gens[0]]):
        assert lo <= golden <= hi, m
        assert mp.almosteq(hi - lo, width / (2 * 4 ** m)), m
        if m == MAX_DOUBLINGS:
            break
    # canonical_height's tol rule stops at the same m, on the same value
    tail = C / (2 * 4 ** MAX_DOUBLINGS)
    assert mp.almosteq(lo + tail, canonical_height(E9, E9.gens[0], 2 * tail))


def test_cap_bounds_pairing_ends():
    """The interval of G alone gives the one bound hhat(G) / 9.  Those of
    P1, P2 and P1 + P2 add a second bound, which takes |<P1, P2>| at its
    largest over the pairing interval at the upper end and at its least at
    the lower end, which is 0 when the interval holds 0."""
    assert heights._cap_bounds([(0.9, 1.8)], 0) == [0.9 / 9]
    assert heights._cap_bounds([(0.9, 1.8)], 1) == [1.8 / 9]
    for iv, least, most in (([(1, 2), (1, 2), (2, 5)], 0, 3),
                            ([(1, 1.5), (1, 1.5), (4, 5)], 1, 3),
                            ([(1, 1.5), (1, 1.5), (-2, -1)], 3, 5)):
        lo1, lo2 = iv[0][0], iv[1][0]
        hi1, hi2 = iv[0][1], iv[1][1]
        assert heights._cap_bounds(iv, 0) == [
            lo1 / 9, lo1 / 4 + least / 6 + lo2 / 9]
        assert heights._cap_bounds(iv, 1) == [
            hi1 / 9, hi1 / 4 + most / 6 + hi2 / 9]


def test_odd_classes_in_binary_order():
    """The nonzero classes of <gens, T> mod 2: G, T and G + T at rank 1,
    and the seven sums of P1, P2 and T at rank 2, T last."""
    G = E9.gens[0]
    assert heights._odd_classes(E9) == [
        ("G", G), ("T", E9.torsion), ("G+T", add_torsion(E9, G))]
    P1, P2 = E10.gens
    P12 = add_points(E10, P1, P2)
    assert heights._odd_classes(E10) == [
        ("P1", P1), ("P2", P2), ("P1+P2", P12), ("T", E10.torsion),
        ("P1+T", add_torsion(E10, P1)), ("P2+T", add_torsion(E10, P2)),
        ("P1+P2+T", add_torsion(E10, P12))]


def test_certification_halves_g_plus_t(monkeypatch):
    """A rank-1 certificate halves G + T too, not only G: with a halving
    routine that reports only G + T of E9 as halvable, it fails and names
    the class."""
    GT = add_torsion(E9, E9.gens[0])
    monkeypatch.setattr(heights, "halving_candidates",
                        lambda curve, pt: [pt] if pt == GT else [])
    with pytest.raises(ArithmeticError, match=r"class G\+T is halvable"):
        certify_generators(E9)


@pytest.mark.parametrize("cid", ["E9", "E10"])
def test_ranges_at_stopping_m_match_full_depth(cid, e10_certificate):
    """The ranges certified at the stopping m equal the ranges built from
    the upper endpoints after MAX_DOUBLINGS doublings, for both of E10's
    caps too; the certificate records the upper endpoints it used."""
    curve = CURVE_BY_ID[cid]
    cert = e10_certificate[0] if cid == "E10" else certify_generators(curve)
    assert cert.ranges_decided and cert.doublings == {"E9": 2, "E10": 5}[cid]
    intervals = list(cert.height_intervals.values())
    assert cert.gen_heights == [hi for _, hi in intervals[:curve.rank]]
    classes = dict(heights._odd_classes(curve))
    points = [classes[name] for name in cert.height_intervals]
    lo, hi = cert.extra.get("pairing_interval", (0, 0))
    assert lo <= hi
    C, _ = height_diff_bound(cid)
    with mp.workdps(heights.DIGITS + 15):
        for m, iv in height_intervals(curve, points):
            if m == MAX_DOUBLINGS:
                break
        caps = [mp.e ** (C + 2 * b) for b in heights._cap_bounds(iv, 1)]
    assert len(caps) == curve.rank
    assert [cert.shapes, cert.extra.get("shapes2")][:len(caps)] == [
        heights._ranges(curve, cap) for cap in caps]


def test_roots_in_field_recovers_minimal_polynomial_roots():
    """Feed the exact minimal polynomial of a known field element back in."""
    x = E9.gens[0].x                      # (1, 1/2, 0, 1/4) in K2
    cp = _charpoly_fractions(x)
    roots = roots_in_field(K2, cp)
    assert any(r == x for r in roots)


def test_roots_in_field_reducible_polys():
    # X^4 - 8 X^2 = X^2 (X^2 - 8) has the root 2 + phi^2 = 2*sqrt(2) in K2
    poly = [Fraction(0), Fraction(0), Fraction(-8), Fraction(0), Fraction(1)]
    roots = roots_in_field(K2, poly)
    assert K2.element(2, 0, 1, 0) in roots
    assert K2.zero() in roots


def test_field_sqrt():
    x = K2.element(2, 0, 1, 0)            # 2 + phi^2
    s = field_sqrt(K2, x * x)
    assert s is not None and s * s == x * x
    assert field_sqrt(K2, K2.element(3)) is None


def test_lift_x_to_point():
    G = E1.gens[0]
    pt = lift_x_to_point(E1, G.x)
    assert pt is not None and pt.x == G.x
    assert pt == G or pt == -G
    assert lift_x_to_point(E1, K1.element(Fraction(1, 7))) is None


def test_halving_candidates():
    """2G9 halves back to G9 (mod 2-torsion), while G9 itself does not
    halve: the generator is not 2-divisible."""
    G = E9.gens[0]
    halves = halving_candidates(E9, scalar_mul(E9, 2, G))
    assert halves, "2G must be halvable"
    assert any(h.x == G.x or add_points(E9, h, G).x is not None
               for h in halves)
    assert halving_candidates(E9, G) == []


def test_candidate_shapes_and_ranges():
    shapes = candidate_shapes(E1)
    assert any(s.denominator == 4 for s in shapes)       # K1 half-integral
    shapes9 = candidate_shapes(E9)
    assert all(s.denominator == 1 for s in shapes9)      # K2: integral only
    for s in shapes:
        rng = shape_ranges(s, 10.0)
        assert len(rng) == len(s.multipliers)
        assert all(r >= 0 for r in rng)


def _block_rows(head, tail):
    """The rows of a prefix block: each row of head followed by each entry
    of tail."""
    return np.hstack([np.repeat(head, len(tail), axis=0),
                      np.tile(tail, len(head))[:, None]])


def _box(shape, B):
    """The box rows within shape_ranges that meet the shape's parities, in
    lexicographic order, by brute force: every integer tuple in the ranges,
    then the parity filter."""
    ranges = shape_ranges(shape, B)
    box = np.indices([2 * r + 1 for r in ranges]).reshape(len(ranges), -1).T
    box -= ranges
    ok = np.ones(len(box), dtype=bool)
    for i, modulus, residue in shape.parities:
        ok &= box[:, i] % modulus == residue
    return box[ok]


def test_enumerate_candidates_small_box(monkeypatch):
    """The prefix blocks of each shape together hold exactly the integer
    tuples within shape_ranges that satisfy the shape's parities, each
    once and in lexicographic order, in blocks of whole prefixes of at most
    BOX_BLOCK_ROWS rows (or one prefix)."""
    monkeypatch.setattr(heights, "BOX_BLOCK_ROWS", 20)
    for curve in (E1, E9):
        for shape in candidate_shapes(curve):
            blocks = list(heights._prefix_blocks(shape, 2.0))
            tails = {tuple(tail) for _, tail in blocks}
            assert len(tails) == 1, shape.tag
            assert all(0 < len(head) * len(tail) <= max(20, len(tail))
                       for head, tail in blocks), shape.tag
            assert len(blocks) > 1 or shape.tag == "linear", shape.tag
            rows = np.concatenate([_block_rows(*b) for b in blocks])
            assert np.array_equal(rows, _box(shape, 2.0)), shape.tag


# --- the exact box sieve -------------------------------------------------------


def _as_num_den(poly):
    """Numerators (1-row int64 array) and denominators of the coefficients
    below the leading 1, high to low."""
    tail = poly[-2::-1]
    return (np.array([[c.numerator for c in tail]], dtype=np.int64),
            tuple(c.denominator for c in tail))


def test_split_primes():
    for fld in (K1, K2):
        primes = [split_prime(fld, i) for i in range(EULER_PRIMES)]
        assert [p for p, _ in primes] == [41, 113, 137, 257, 313, 337, 353, 409]
        for p, roots in primes:
            assert len(set(roots)) == 4
            assert all(sum(int(c) * a ** k for k, c in
                           enumerate(fld.defining_poly)) % p == 0 for a in roots)
        # the order lies in (1/4)Z[alpha], which DENOMINATOR relies on
        assert all((4 * c).denominator == 1 for row in fld.order_basis for c in row)


def _linear_products(p: int, d: int) -> set:
    """The monic products of d linear factors mod p, as coefficient tuples
    below the leading 1, high to low."""
    roots = np.array(list(itertools.combinations_with_replacement(range(p), d)),
                     dtype=np.int64)
    poly = np.ones((len(roots), 1), dtype=np.int64)
    zero = np.zeros((len(roots), 1), dtype=np.int64)
    for k in range(d):                     # times X - root k
        poly = (np.hstack([poly, zero]) - roots[:, k:k + 1]
                * np.hstack([zero, poly])) % p
    return set(map(tuple, poly[:, 1:].tolist()))


def _fibre_counts_at(polys, p):
    """`_fibre_counts` read at each monic polynomial (coefficient rows below
    the leading 1, high to low, in [0, p)): its roots counted with
    multiplicity."""
    total = _fibre_counts(polys[:, :-1], p)
    return total[np.arange(len(polys)), -polys[:, -1] % p]


def test_fibre_counts_match_evaluation():
    """On every monic polynomial of degree 1, 2 and 4 mod 7 and mod 13, and
    on 20,000 random quartics mod 41: the roots counted with multiplicity
    number d exactly on the products of d linear factors, and the distinct
    roots that `_zeros_mod_p` finds, which decide splitting at the
    reconstruction prime, are those found by evaluation at every residue."""
    rng = np.random.default_rng(0)
    cases = [(p, d, np.array(list(itertools.product(range(p), repeat=d)),
                             dtype=np.int64))
             for p in (7, 13) for d in (1, 2, 4)]
    cases.append((41, 4, rng.integers(0, 41, (20000, 4))))
    for p, d, polys in cases:
        total = _fibre_counts_at(polys, p)
        distinct = heights._zeros_mod_p(polys, p).sum(axis=1)
        r = np.arange(p)
        values = r ** d + sum(polys[:, k:k + 1] * r ** (d - 1 - k)
                              for k in range(d))
        assert np.array_equal(distinct, (values % p == 0).sum(axis=1)), (p, d)
        products = _linear_products(p, d)
        linear = np.array([tuple(c) in products for c in polys.tolist()])
        assert np.array_equal(total == d, linear), (p, d)
        assert (total <= d).all() and (distinct <= total).all(), (p, d)
        if len(polys) == p ** d:           # every polynomial: count them
            assert (total == d).sum() == math.comb(p + d - 1, d), (p, d)
            assert (distinct == d).sum() == math.comb(p, d), (p, d)
    # mod 7: (X - 1)^2 (X^2 + 1), (X^2 + 2)^2 and X^4 - 1 are no products of
    # linear factors; (X - 1)^3 (X - 2) and (X - 3)^4 need the second and
    # third derivatives
    c = np.array([[5, 2, 5, 1], [0, 4, 0, 4], [0, 0, 0, 6],
                  [2, 2, 0, 2], [2, 5, 4, 4]])
    assert list(heights._zeros_mod_p(c, 7).sum(axis=1)) == [1, 0, 2, 2, 1]
    assert list(_fibre_counts_at(c, 7)) == [2, 0, 2, 4, 4]


def _root_multiplicities(c, p):
    """(rows, p): the multiplicity of each r in F_p as a root of the monic
    polynomials with coefficient rows c below the leading 1, by repeated
    synthetic division by X - r."""
    n, d = c.shape
    r = np.arange(p)
    quotient = [np.ones((n, p), dtype=np.int64)] + [
        np.repeat(c[:, k:k + 1] % p, p, axis=1) for k in range(d)]
    mult = np.zeros((n, p), dtype=np.int64)
    divides = np.ones((n, p), dtype=bool)
    for _ in range(d):
        for k in range(1, len(quotient)):
            quotient[k] = (quotient[k] + quotient[k - 1] * r) % p
        divides &= quotient.pop() == 0          # the remainder
        mult += divides
    return mult


def test_sieve_matches_per_row_oracle():
    """On every shape of E1 and E9 at B = 2, the sieve keeps exactly the
    box rows that are products of linear factors at every sieve prime (the
    multiplicities by synthetic division), in order.  Of those, the rows
    with discriminant 0 are exactly the ones with d distinct roots at no
    sieve prime, and every other row is rebuilt at the first sieve prime
    where it has d distinct roots."""
    for curve in (E1, E9):
        for shape in candidate_shapes(curve):
            rows = heights._kept_rows(curve.field, shape, 2.0)
            mult, den = heights._shape_fractions(shape)
            box = _box(shape, 2.0)
            keep = np.ones(len(box), dtype=bool)
            want = np.full(len(box), -1)
            for i in range(SIEVE_PRIMES):
                p, _ = split_prime(curve.field, i)
                live = np.flatnonzero(keep)
                for chunk in np.array_split(live, len(live) // 2048 + 1):
                    m = _root_multiplicities(
                        _monic_mod(box[chunk] * mult, den, p), p)
                    keep[chunk] = m.sum(axis=1) == box.shape[1]
                    split = (m > 0).sum(axis=1) == box.shape[1]
                    want[chunk[split & (want[chunk] < 0)]] = i
            assert np.array_equal(rows, box[keep]), (curve.id, shape.tag)
            disc = heights._discriminant(rows * mult, den)
            first = want[keep]
            assert np.array_equal(disc == 0, first < 0), (curve.id, shape.tag)
            assert np.array_equal(
                heights._reconstruction_index(curve.field, disc[disc != 0]),
                first[first >= 0]), (curve.id, shape.tag)


def test_discriminant_formula():
    """The integer discriminant formula vanishes exactly where the
    resultant of g and g' does, on rows of every shape."""
    for curve in (E1, E9):
        for shape in candidate_shapes(curve):
            mult, den = heights._shape_fractions(shape)
            rows = _block_rows(*next(heights._prefix_blocks(shape, 2.0)))[::37]
            discs = heights._discriminant(rows * mult, den)
            for row, disc in zip(rows, discs):
                g = heights._row_poly(shape, row)
                res = resultant(g, poly_diff(g))
                assert (res == 0) == (disc == 0), (shape.tag, row)


@given(fields, sixteenths)
@settings(max_examples=60, deadline=None)
@example(K1, (0, 41, 0, 0))                     # X^4 at 41: a fourfold root
@example(K2, (Fraction(1, 16), 113, 0, 0))      # a repeated root at 113
@example(K1, (3, 0, 41, 0))                     # degree 2
@example(K2, (Fraction(-7, 16), 0, 0, 0))       # degree 1
@example(K1, (Fraction(1, 16), Fraction(-1, 16), Fraction(5, 16), Fraction(3, 16)))
@example(K2, (0, Fraction(-17, 16), Fraction(97, 16), Fraction(159, 16)))  # late
def test_sieve_keeps_and_reconstructs_minimal_polynomials(fld, cs):
    """For x with coordinates in (1/16)Z, the minimal polynomial of x is
    a product of linear factors at every sieve prime and at later split
    primes, so the sieve keeps it, and the reconstruction from its roots
    mod p returns x exactly.  It is rebuilt after the sieve primes exactly
    when all of them divide its discriminant, as 41, 113 and 137 do for
    the K2 example marked late."""
    _check_keep_and_reconstruct(fld.element(*cs))


def test_sieve_late_split_path(monkeypatch):
    """A minimal polynomial whose discriminant every sieve prime divides
    is rebuilt at the first later split prime that does not divide it."""
    monkeypatch.setattr(heights, "SIEVE_PRIMES", 2)
    c = 41 * 113
    for x in (K1.element(0, c), K2.element(0, 0, c), K2.element(1, c, 0, c)):
        _check_keep_and_reconstruct(x, late=True)


def _check_keep_and_reconstruct(x, late=None):
    """`late`: whether x must be rebuilt after the sieve primes; None reads
    it from the discriminant."""
    fld = x.field
    num, den = _as_num_den(_minimal_polynomial(x))
    pre, col = heights._sieve(fld, num[:, :-1], num[:, -1], den)
    assert list(pre) == [0] and list(col) == [0]
    disc = heights._discriminant(num, den)
    assert disc[0] != 0
    if late is None:
        late = all(int(disc[0]) % split_prime(fld, j)[0] == 0
                   for j in range(heights.SIEVE_PRIMES))
    for i in range(heights.SIEVE_PRIMES + 4):                   # later primes too
        p, _ = split_prime(fld, i)
        c = _monic_mod(num, den, p)
        count = heights._zeros_mod_p(c, p).sum()
        assert count == num.shape[1] or disc[0] % p == 0, p
        assert _fibre_counts_at(c, p)[0] == num.shape[1], p
    i = heights._reconstruction_index(fld, disc)[0]
    assert (i >= heights.SIEVE_PRIMES) == late
    prime = split_prime(fld, i)
    bound = DENOMINATOR * max(abs(c) for c in x.coords)
    q = heights._hensel_modulus(prime[0], bound)
    split, nums = heights._reconstruct(fld, prime, q, _monic_mod(num, den, q))
    assert list(split) == [True]
    got = {fld.element(*(Fraction(int(n), DENOMINATOR) for n in v))
           for v in nums[0] if (np.abs(v) <= bound).all()}
    assert x in got


def _box_at(monkeypatch, curve, cap, sieve_primes):
    """`_search_box(curve, cap)` with the given number of sieve primes, rows
    as tuples."""
    monkeypatch.setattr(heights, "SIEVE_PRIMES", sieve_primes)
    return [(tag, tuple(row), x) for tag, row, x in heights._search_box(curve, cap)]


def test_sieve_is_only_a_filter(monkeypatch):
    """The box search on E1 and E9 at B = 2 gives the same output, order
    included, with 0, 1, 2, 3 or 8 sieve primes: rows that reach their
    reconstruction prime unsieved are dropped there by the split check."""
    assert SIEVE_PRIMES == 3
    for curve, size in ((E1, 1), (E9, 3)):
        want = _box_at(monkeypatch, curve, 2.0, SIEVE_PRIMES)
        assert len(want) == size
        for sieve_primes in (0, 1, 2, 8):
            assert _box_at(monkeypatch, curve, 2.0, sieve_primes) == want, sieve_primes


def test_e10_box_same_at_three_and_eight_sieve_primes(monkeypatch):
    """E10's box at B = 2.5, with 1,333 rows kept at three sieve primes and
    1,245 at eight, gives the same output, order included."""
    want = _box_at(monkeypatch, E10, 2.5, SIEVE_PRIMES)
    assert len(want) == 11
    assert _box_at(monkeypatch, E10, 2.5, 8) == want


def _crt_nums(x, primes):
    """Integers n with n = DENOMINATOR * coordinates of x mod each prime,
    which `_may_lift` reads only mod those primes, or None when one of
    them divides the denominator of x."""
    m = math.prod(primes)
    if math.gcd(x._d, m) != 1:
        return None
    return [DENOMINATOR * c * pow(x._d, -1, m) % m for c in x._n]


@given(st.sampled_from(["E1", "E5", "E9", "E10"]), st.integers(-4, 4),
       st.integers(-4, 4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_lift_precheck_keeps_points(cid, m1, m2, torsion):
    """The Euler pre-check of the box never rejects the x of a point
    m1 G (+T), or m1 P1 + m2 P2 (+T) on E10."""
    curve = CURVE_BY_ID[cid]
    pt = scalar_mul(curve, m1, curve.gens[0])
    if curve.rank == 2:
        pt = add_points(curve, pt, scalar_mul(curve, m2, curve.gens[1]))
    if torsion:
        pt = add_torsion(curve, pt)
    if pt.at_infinity:
        return
    nums = _crt_nums(pt.x, [split_prime(curve.field, i)[0]
                            for i in range(EULER_PRIMES)])
    if nums is not None:
        assert list(heights._may_lift(curve, np.array([nums]))) == [True]


def test_lift_precheck_on_e10_box(monkeypatch):
    """On E10's box at B = 2.5, built without the pre-check (315 elements),
    the pre-check keeps exactly the x that `lift_x_to_point` lifts (11)."""
    monkeypatch.setattr(heights, "_may_lift",
                        lambda curve, nums: np.ones(len(nums), dtype=bool))
    xs = [x for shape in candidate_shapes(E10)
          for _, x in heights._box_elements(E10, shape, 2.5)]
    monkeypatch.undo()
    assert len(xs) == 315
    nums = np.array([[int(c * DENOMINATOR) for c in x.coords] for x in xs])
    kept = heights._may_lift(E10, nums)
    assert list(kept) == [lift_x_to_point(E10, x) is not None for x in xs]
    assert kept.sum() == 11


@given(st.sampled_from(CURVES), sixteenths)
@settings(max_examples=60, deadline=None)
@example(E1, (0, 0, 0, 0))                      # x(T): w = 0
@example(E10, (0, 0, 0, 0))
def test_may_lift_matches_residues(curve, cs):
    """`_may_lift` rejects x exactly when w = x(x^2 + Ax + B) has, at some
    map of the first EULER_PRIMES split primes, a residue (by `residue`)
    that Euler's criterion calls a nonzero non-square."""
    x = curve.field.element(*cs)
    w = x * (x * x + curve.a * x + curve.b)
    want = not any(
        r is not None and pow(r, (p - 1) // 2, p) == p - 1
        for p, maps in (split_prime(curve.field, i) for i in range(EULER_PRIMES))
        for r in (residue(w, p, a) for a in maps))
    nums = np.array([[int(c * DENOMINATOR) for c in x.coords]], dtype=np.int64)
    assert list(heights._may_lift(curve, nums)) == [want]


@given(fields, rationals)
@settings(max_examples=60, deadline=None)
@example(K2, (1, Fraction(1, 7), 0, 0))
@example(K1, (Fraction(1, 3), 1, 0, Fraction(1, 32)))
def test_field_sqrt_recovers_squares(fld, cs):
    x = fld.element(*cs)
    assert field_sqrt(fld, x * x) in (x, -x)


@given(fields, rationals, st.sampled_from(["square", "any", "split"]),
       st.integers(0, EULER_PRIMES + 1))
@settings(max_examples=120, deadline=None)
@example(K2, (1, 0, 1, 0), "any", 0)            # 1 + phi^2, no square
@example(K1, (3, 0, 0, 0), "split", 0)
def test_field_sqrt_euler_check_agrees_with_roots(fld, cs, kind, i):
    """Euler's criterion in field_sqrt rejects only non-squares: it returns
    None exactly when roots_in_field finds no root of X^2 - w, for squares,
    for any w, and for w whose denominator a split prime divides."""
    x = fld.element(*cs)
    p = split_prime(fld, i)[0]
    w = {"square": x * x, "any": x, "split": x * x / p + x}[kind]
    assert (field_sqrt(fld, w) is None) == (
        roots_in_field(fld, [-w, 0, 1]) == [])


def test_certify_e10_calls_roots_in_field_rarely(monkeypatch):
    """Euler's criterion and one enumeration of the box, at the larger of
    the two caps, leave under twenty root searches in E10's certification
    (515 without them)."""
    roots, caps = [], []
    search, box = heights.roots_in_field, heights._search_box
    monkeypatch.setattr(heights, "roots_in_field",
                        lambda *args: roots.append(args) or search(*args))
    monkeypatch.setattr(heights, "_search_box",
                        lambda curve, cap: caps.append(cap) or box(curve, cap))
    cert = certify_generators(E10)
    assert cert.conclusion == "generators"
    assert 0 < len(roots) <= 20
    assert [float(cap) for cap in caps] == [max(cert.cap_b, cert.extra["cap2"])]


def test_smaller_cap_survivors_filtered_from_larger_box():
    """The survivors of a smaller cap, kept from the box of a larger one by
    their rows, are those of its own enumeration, in the same order."""
    box = heights._search_box(E10, 2.5)
    assert len(box) == 11
    sizes = []
    for cap in (1.2, 1.5, 1.8):
        kept, _ = heights._named_survivors(E10, box, cap, "test")
        assert kept == [x for *_, x in heights._search_box(E10, cap)]
        sizes.append(len(kept))
    assert sizes == [5, 6, 8]


@pytest.mark.parametrize("cid", ["E9", "E5"])
def test_certification_rejects_three_times_the_generator(cid):
    """With 3G in place of the generator no class halves, so only the box
    can catch the odd index: it holds G and G + T, which are no small
    combinations of 3G and T."""
    curve = CURVE_BY_ID[cid]
    G = curve.gens[0]
    bad = dataclasses.replace(curve, gens=(scalar_mul(curve, 3, G),))
    with pytest.raises(ArithmeticError, match="unexplained point") as err:
        certify_generators(bad)
    assert any(str(p.x.coords) in str(err.value)
               for p in (G, add_torsion(curve, G)))


@given(st.sampled_from(["E1", "E5", "E9", "E10"]), st.integers(-2, 2),
       st.integers(-2, 2), st.booleans())
@settings(max_examples=40, deadline=None)
def test_halving_recovers_halves(cid, m1, m2, torsion):
    """Q is among the halves of 2Q."""
    curve = CURVE_BY_ID[cid]
    q = scalar_mul(curve, m1, curve.gens[0])
    if curve.rank == 2:
        q = add_points(curve, q, scalar_mul(curve, m2, curve.gens[1]))
    if torsion:
        q = add_points(curve, q, CurvePoint(curve.field.zero(),
                                            curve.field.zero()))
    p = add_points(curve, q, q)
    if p.at_infinity:
        return
    assert q in halving_candidates(curve, p)


# --- exact roots in the field --------------------------------------------------


@given(fields, rationals)
@settings(max_examples=40, deadline=None)
def test_roots_in_field_reconstructs_from_embeddings(fld, cs):
    """x is a root of its characteristic polynomial, whose roots mod a split
    prime are the images of x; reconstructing from them returns x, once."""
    x = fld.element(*cs)
    if x.is_rational():
        x = x + fld.element(0, 1)
    roots = roots_in_field(fld, _charpoly_fractions(x))
    assert x in roots
    assert len(set(roots)) == len(roots)


@given(fields, rationals, rationals)
@settings(max_examples=25, deadline=None)
def test_roots_in_field_element_coefficients(fld, a, b):
    """(X - x)(X - y) and (X - x)^2 (X - y) with coefficients in the field
    have the roots x, y."""
    x, y = fld.element(*a), fld.element(*b)
    roots = roots_in_field(fld, [x * y, -(x + y), 1])
    assert set(roots) == {x, y}
    cubic = [-(x * x * y), x * x + 2 * x * y, -(2 * x + y), 1]
    roots = roots_in_field(fld, cubic)
    assert set(roots) == {x, y} and len(roots) == len({x, y})


def test_roots_in_field_irrational_pair():
    x = K2.element(1, Fraction(1, 2), 0, Fraction(1, 4))
    y = K2.element(Fraction(-3, 16), 0, 2, -1)
    roots = roots_in_field(K2, [x * y, -(x + y), K2.one()])
    assert len(roots) == 2 and set(roots) == {x, y}
    # degree 1 is solved exactly
    assert roots_in_field(K2, [-x * y, y]) == [x]


def test_field_sqrt_nonsquare_positive_at_real_places(monkeypatch):
    """1 + phi^2 = 2 sqrt(2) - 1 is positive at both real places of K2 but
    not a square in K2: field_sqrt returns None without any numeric root
    search."""
    w = K2.element(1, 0, 1, 0)
    for root in K2.roots():
        assert mp.re(heights._embed(w, root)) > 0 or mp.im(root) != 0
    seen = []
    monkeypatch.setattr(heights.mp, "polyroots",
                        lambda *args, **kw: seen.append(args))
    assert field_sqrt(K2, w) is None
    assert field_sqrt(K2, w * w * 4) in (2 * w, -2 * w)
    assert seen == []


def test_lifting_and_halving_use_no_floats(monkeypatch):
    """Square roots, point lifting, halving and the whole certification,
    the epsilons included, never call mpmath's root finder."""
    def boom(*args, **kw):
        raise AssertionError("polyroots called")

    monkeypatch.setattr(heights.mp, "polyroots", boom)
    height_diff_bound.cache_clear()
    assert certify_generators(E10).survivor_names
    x = 1 + K2.element(0, Fraction(1, 7))
    assert field_sqrt(K2, x * x) in (x, -x)
    G = E9.gens[0]
    assert lift_x_to_point(E9, G.x) in (G, -G)
    assert G in halving_candidates(E9, scalar_mul(E9, 2, G))


def test_no_global_precision_change():
    G = E1.gens[0]
    with mp.workdps(20):
        height_diff_bound("E1")
        assert mp.dps == 20
        naive_height(G.x)
        assert mp.dps == 20
        canonical_height(E1, G, tol=1e-3)
        assert mp.dps == 20
        height_upper_bound.cache_clear()
        height_upper_bound("E1")
        assert mp.dps == 20
        certify_generators(E9)
        assert mp.dps == 20
        roots_in_field(K2, [-2, 0, 1])
        assert mp.dps == 20


def test_height_diff_bound_independent_of_call_order():
    """The same C after cache_clear(), whether or not canonical_height (at
    another working precision) ran first."""
    before = height_diff_bound("E1")
    height_diff_bound.cache_clear()
    with mp.workdps(20):
        canonical_height(E1, E1.gens[0], tol=1e-3)
    after = height_diff_bound("E1")
    assert after == before
    height_diff_bound.cache_clear()
    assert height_diff_bound("E1") == before
