"""The descent-curve catalog: stored data integrity, group law, and the
maps back to Lucas parameter pairs."""

import random
from fractions import Fraction

import pytest

from lucassq.curves import (CURVES, CURVE_BY_ID, INFINITY, CurvePoint,
                            RANK0_STUBS, ab_to_pq, add_points, add_torsion,
                            catalog, condition_value, on_curve, recover_ab,
                            scalar_mul, x_condition_value)
from lucassq.fields import residue, split_prime
from lucassq.jsonio import decode_point, encode_point

PROP1_AB = {"E1": (1, 3), "E2": (1, 1), "E3": (1, 1), "E4": (1, 1),
            "E5": (1, 5), "E7": (1, 2), "E8": (1, 0)}


def _random_points(curve, rng, count):
    """Random small combinations of the stored generators and 2-torsion."""
    pts = []
    T = CurvePoint(curve.field.zero(), curve.field.zero())
    for _ in range(count):
        p = INFINITY
        for g in curve.gens:
            p = add_points(curve, p, scalar_mul(curve, rng.randint(-3, 3), g))
        if rng.random() < 0.5:
            p = add_points(curve, p, T)
        pts.append(p)
    return pts


def test_generators_on_curve():
    for c in CURVES + RANK0_STUBS:
        for g in c.gens:
            assert on_curve(c, g), c.id
        assert on_curve(c, CurvePoint(c.field.zero(), c.field.zero()))


def test_two_torsion():
    for c in CURVES:
        T = CurvePoint(c.field.zero(), c.field.zero())
        assert add_points(c, T, T) is INFINITY or add_points(c, T, T) == INFINITY


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.id)
def test_group_law_associativity(curve):
    rng = random.Random(hash(curve.id) & 0xFFFF)
    pts = _random_points(curve, rng, 12)
    for i in range(0, 12, 3):
        p, q, r = pts[i], pts[i + 1], pts[i + 2]
        lhs = add_points(curve, add_points(curve, p, q), r)
        rhs = add_points(curve, p, add_points(curve, q, r))
        assert lhs == rhs


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.id)
def test_add_torsion_matches_group_law(curve):
    """The closed-form translate (x, y) + T = (B/x, -B y/x^2) equals the
    chord law at O, T, +-kG and +-kG + T for |k| <= 7 and each generator,
    and at the kernel-of-reduction basis (N G on rank 1), built here from
    the N and b_i of the walk mod 3."""
    from lucassq.padic import kernel_basis
    T = curve.torsion
    assert add_torsion(curve, INFINITY) == T
    assert add_torsion(curve, T) == INFINITY
    *others, G = curve.gens
    walk, b, _ = kernel_basis(curve, 1)
    pts = [add_points(curve, P, scalar_mul(curve, n, G))
           for P, n in zip(others, b)] + [scalar_mul(curve, len(walk), G)]
    for g in curve.gens:
        for k in range(1, 8):
            kg = scalar_mul(curve, k, g)
            pts += [kg, -kg, add_points(curve, kg, T),
                    add_points(curve, -kg, T)]
    for p in pts:
        q = add_torsion(curve, p)
        assert q == add_points(curve, p, T)
        assert on_curve(curve, q)


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.id)
def test_scalar_mul_matches_repeated_addition(curve):
    for g in curve.gens:
        acc = INFINITY
        for k in range(5):
            assert scalar_mul(curve, k, g) == acc
            acc = add_points(curve, acc, g)
        assert scalar_mul(curve, -3, g) == -scalar_mul(curve, 3, g)


def _add_mod(ab, p, P, Q):
    """P + Q on Y^2 = X(X^2 + A X + B) over F_p, (A, B) = ab, for points
    (x, y) of residues mod p, and None for O: the law of `add_points`."""
    if P is None or Q is None:
        return P or Q
    (x1, y1), (x2, y2), (A, B) = P, Q, ab
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + 2 * A * x1 + B) * pow(2 * y1, -1, p)
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p)
    x3 = (lam * lam - A - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.id)
def test_reduction_mod_p_is_a_homomorphism(curve):
    """At the four maps of each of the first two split primes the curve has
    good reduction, and `residue` commutes with the group law: walking G~
    in F_p (and adding (0, 0)) gives the residues of kG and kG + T, k <= 8,
    for each generator G, wherever those coordinates reduce."""
    compared = 0
    for p, maps in (split_prime(curve.field, i) for i in range(2)):
        for a in maps:
            A, B = ab = (residue(curve.a, p, a), residue(curve.b, p, a))
            assert B * B * (A * A - 4 * B) % p
            for g in curve.gens:
                g_mod = (residue(g.x, p, a), residue(g.y, p, a))
                q, kg = None, INFINITY
                for _ in range(8):
                    q = _add_mod(ab, p, q, g_mod)
                    kg = add_points(curve, kg, g)
                    for mod, exact in ((q, kg), (_add_mod(ab, p, q, (0, 0)),
                                                 add_torsion(curve, kg))):
                        xy = (residue(exact.x, p, a), residue(exact.y, p, a))
                        if None not in xy:
                            assert mod == xy
                            compared += 1
    assert compared >= 100 * len(curve.gens)


def test_residue_decides_integrality_per_map():
    """41^2 exactly divides the denominator of X(6G) on E1, yet X(6G) is
    integral at three of the four maps of 41.  There `residue` gives the
    coordinates of 6 G~ walked in F_41, and None at the fourth, where
    6 G~ = O."""
    E1 = CURVE_BY_ID["E1"]
    p, maps = split_prime(E1.field, 0)
    G, P = E1.gens[0], scalar_mul(E1, 6, E1.gens[0])
    assert p == 41 and max(c.denominator for c in P.x.coords) % p ** 2 == 0
    walked = []
    for a in maps:
        ab, q = (residue(E1.a, p, a), residue(E1.b, p, a)), None
        for _ in range(6):
            q = _add_mod(ab, p, q, (residue(G.x, p, a), residue(G.y, p, a)))
        walked.append(q)
    assert walked[3] is None and None not in walked[:3]
    assert [(residue(P.x, p, a), residue(P.y, p, a)) for a in maps] == [
        q or (None, None) for q in walked]


def test_recover_ab_proposition_values():
    """The stored generators (scaled to the right multiple) reproduce the
    known descent pairs (a, b)."""
    multiples = {"E1": 1, "E2": 1, "E3": 1, "E4": 1, "E5": 2, "E7": 2,
                 "E8": 2}
    for cid, (a, b) in PROP1_AB.items():
        curve = CURVE_BY_ID[cid]
        pt = scalar_mul(curve, multiples[cid], curve.gens[0])
        sol = recover_ab(curve, pt)
        assert sol is not None, cid
        assert (sol.a, abs(sol.b)) == (a, b), (cid, sol.a, sol.b)


def test_ab_to_pq_acceptances():
    params, reason = ab_to_pq("eq1", 1, 3)
    assert reason is None and (params.p, params.q) == (1, -4)
    params, reason = ab_to_pq("eq3", 1, 5)
    assert reason is None and (params.p, params.q) == (4, -17)


def test_ab_to_pq_rejections():
    assert ab_to_pq("eq1", 1, 2)[0] is None        # parity
    assert ab_to_pq("eq3", 1, 0)[0] is None        # b = 0
    assert ab_to_pq("eq3", 1, 2)[0] is None        # gcd(4, 4)
    with pytest.raises(ValueError):
        ab_to_pq("eq1", 0, 1)
    with pytest.raises(ValueError):
        ab_to_pq("eq9", 1, 1)


def test_condition_value_rationality():
    """condition_value is a rational exactly when the descent condition
    holds; it holds at the stored E1 generator."""
    E1 = CURVE_BY_ID["E1"]
    v = condition_value(E1, E1.gens[0])
    assert v is not None and isinstance(v, Fraction)
    assert x_condition_value(E1, E1.gens[0].x) == v
    assert x_condition_value(E1, E1.gens[0].x + 1) is None


def test_catalog_and_point_round_trip():
    cat = catalog()
    assert len(cat) == len(CURVES) + len(RANK0_STUBS)
    assert {c["rank"] for c in cat} == {0, 1, 2}
    E10 = CURVE_BY_ID["E10"]
    for pt in E10.gens:
        again = decode_point(encode_point(pt))
        assert again == pt
