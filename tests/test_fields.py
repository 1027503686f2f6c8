"""Quartic field arithmetic, distinguished units, and valuations."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from lucassq.fields import (EPS1, EPS2, ETA1, ETA2, K1, K2, ONE_PLUS_THETA,
                            PI, FieldDescriptor, _Residue, _residues,
                            adjugate, charpoly, three_adic_valuation,
                            two_adic_valuation, two_factorization_holds)

coords = st.tuples(*(st.fractions(min_value=-20, max_value=20,
                                  max_denominator=8) for _ in range(4)))
# wide coordinates, so that products and inverses carry large integers
wide = st.tuples(*(st.fractions(min_value=-10 ** 12, max_value=10 ** 12,
                                max_denominator=10 ** 6) for _ in range(4)))
fields = st.sampled_from([K1, K2])


def _elt(fld, cs):
    return fld.element(*cs)


# --- an independent reference over Fractions ------------------------------

def _ref_mul(fld, a, b):
    """Schoolbook product of coordinate tuples, reduced by the defining
    polynomial from the top degree down."""
    prod = [Fraction(0)] * 7
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    f = [Fraction(c) for c in fld.defining_poly]
    for k in range(6, 3, -1):
        top, prod[k] = prod[k], Fraction(0)
        for i in range(4):
            prod[k - 4 + i] -= top * f[i]
    return tuple(prod[:4])


def _ref_matrix(fld, a):
    """The multiplication-by-a matrix on the power basis."""
    basis = [tuple(Fraction(int(i == j)) for i in range(4)) for j in range(4)]
    cols = [_ref_mul(fld, a, e) for e in basis]
    return [[cols[j][i] for j in range(4)] for i in range(4)]


def _ref_charpoly(fld, a):
    """Faddeev-LeVerrier on the multiplication matrix (low to high)."""
    m = _ref_matrix(fld, a)
    coeffs, mk = [Fraction(1)], [row[:] for row in m]
    for k in range(1, 5):
        ck = -sum(mk[i][i] for i in range(4)) / k
        coeffs.append(ck)
        for i in range(4):
            mk[i][i] += ck
        mk = [[sum(m[i][t] * mk[t][j] for t in range(4)) for j in range(4)]
              for i in range(4)]
    return coeffs[::-1]


def _ref_inv(fld, a):
    """Solve (multiplication by a) z = 1 by Gaussian elimination."""
    m = [row + [Fraction(int(i == 0))]
         for i, row in enumerate(_ref_matrix(fld, a))]
    for col in range(4):
        piv = next(r for r in range(col, 4) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(4):
            if r != col and m[r][col]:
                m[r] = [x - m[r][col] * y for x, y in zip(m[r], m[col])]
    return tuple(row[4] for row in m)


def _canonical(x):
    n, d = x._n, x._d
    return (d > 0 and all(isinstance(c, int) for c in n + (d,))
            and gcd(d, *n) == 1
            and x.coords == tuple(Fraction(c, d) for c in n))


@given(fields, wide, wide)
@settings(max_examples=150)
def test_ring_operations_match_reference(fld, a, b):
    x, y = fld.element(*a), fld.element(*b)
    assert x.coords == a and y.coords == b
    for got, want in ((x + y, tuple(p + q for p, q in zip(a, b))),
                      (x - y, tuple(p - q for p, q in zip(a, b))),
                      (x * y, _ref_mul(fld, a, b)),
                      (-x, tuple(-p for p in a)),
                      (x * 3, tuple(3 * p for p in a)),
                      (x + Fraction(2, 3), (a[0] + Fraction(2, 3),) + a[1:])):
        assert got.coords == want
        assert _canonical(got)


@given(fields, coords, coords, st.integers(1, 9))
@settings(max_examples=100)
def test_residue_ring_matches_exact_arithmetic(fld, a, b, j):
    """In Z[alpha]/3^j, each `_Residue` operation on the residues of two
    3-integral elements gives the residue of the exact result, and the
    inverse of a 3-unit is the residue of the exact inverse."""
    m = 3 ** j
    x, y = fld.element(*a), fld.element(*b)
    assume(x._d % 3 and y._d % 3)
    rx, ry = _Residue.of(x, m), _Residue.of(y, m)
    for got, want in ((rx + ry, x + y), (rx - ry, x - y), (rx * ry, x * y),
                      (-rx, -x), (2 * rx, 2 * x)):
        assert got.n == _residues(want, m)
    assert rx.element() == fld.integral(_residues(x, m))
    assert rx.unit_mod(3) == (three_adic_valuation(x) == 0)
    if rx.unit_mod(3):
        assert rx.inv().n == _residues(x.inv(), m)


@given(fields, wide, st.integers(1, 3))
@settings(max_examples=100)
def test_inverse_and_negative_powers_match_reference(fld, a, k):
    assume(any(a))
    x = fld.element(*a)
    inv = x.inv()
    assert inv.coords == _ref_inv(fld, a)
    assert _canonical(inv)
    want = fld.one().coords
    for _ in range(k):
        want = _ref_mul(fld, want, _ref_inv(fld, a))
    assert (x ** (-k)).coords == want
    assert _canonical(x ** (-k))
    assert (fld.one() / x) == inv and (x / x) == 1


@given(fields, wide)
def test_adjugate_times_element_is_its_norm(fld, a):
    x = fld.element(*a)
    assume(x)
    r, norm = adjugate(fld, x._n)
    assert all(isinstance(c, int) for c in r) and norm != 0
    assert x * fld.element(*r) == Fraction(norm, x._d)
    assert x.norm() == Fraction(norm, x._d ** 4)


@given(fields, wide)
@settings(max_examples=50)
def test_charpoly_matches_reference(fld, a):
    x = fld.element(*a)
    cp = charpoly(fld, x._n)            # of the numerators; x = n / d
    assert [Fraction(c, x._d ** (4 - k)) for k, c in enumerate(cp)] \
        == _ref_charpoly(fld, a)


@given(fields, st.fractions(min_value=-50, max_value=50, max_denominator=9),
       wide)
def test_equality_and_hash_with_rationals(fld, q, a):
    x = fld.element(q)
    assert x == q and q == x and hash(x) == hash(q)
    if q.denominator == 1:
        assert x == int(q) and hash(x) == hash(int(q))
    assert x != q + 1
    y = fld.element(*a)
    z = fld.element(*a)
    assert y == z and hash(y) == hash(z)
    if any(a[1:]):
        assert y != a[0]


@given(fields, wide)
def test_three_adic_valuation_per_coordinate(fld, a):
    def ord3(n):
        n, v = abs(n), 0
        while n % 3 == 0:
            n, v = n // 3, v + 1
        return v
    x = fld.element(*a)
    want = min((ord3(c.numerator) - ord3(c.denominator) for c in a if c),
               default=None)
    assert three_adic_valuation(x) == want


def test_descriptor_requires_monic_even_integral_poly():
    basis = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    for poly in ((-1, 1, 2, 0, 1), (-1, 0, 2, 0, 2), (Fraction(1, 2), 0, 2, 0, 1)):
        with pytest.raises(ValueError):
            FieldDescriptor("bad", poly, basis)


@given(coords, coords, coords)
@settings(max_examples=200)
def test_ring_axioms_k1(a, b, c):
    x, y, z = (_elt(K1, t) for t in (a, b, c))
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x


@given(coords, coords)
def test_field_inverse_k2(a, b):
    x = _elt(K2, a)
    if not x:
        return
    assert x * x.inv() == K2.one()
    y = _elt(K2, b)
    assert (x * y) * x.inv() == y


@given(coords)
def test_norm_multiplicative(a):
    x = _elt(K1, a)
    y = K1.element(1, 1)
    assert (x * y).norm() == x.norm() * y.norm()


def test_defining_relations():
    th = ETA1                                # theta generates K1
    assert th ** 4 + 2 * th ** 2 == K1.one()
    ph = K2.element(0, 1)
    assert ph ** 4 + 4 * ph ** 2 == K2.element(4)


def test_units_are_units():
    for u in (ETA1, ETA2, EPS1, EPS2):
        assert abs(u.norm()) == 1


def test_two_factorizations():
    """2 = eta1^-4 eta2^2 (1+theta)^4 in K1 and 2 = eps2^-2 pi^4 in K2,
    with exact equality."""
    assert ETA1 ** (-4) * ETA2 ** 2 * ONE_PLUS_THETA ** 4 == 2
    assert EPS2 ** (-2) * PI ** 4 == 2
    assert two_factorization_holds(K1)
    assert two_factorization_holds(K2)


def test_two_adic_valuation():
    """v_2 of the norm is the valuation at pi in K2 and at 1 + theta in
    K1, where 2 is totally ramified too."""
    assert two_adic_valuation(PI) == 1
    assert two_adic_valuation(K2.element(2)) == 4
    assert two_adic_valuation(K2.element(8)) == 12
    assert two_adic_valuation(EPS2) == 0
    assert two_adic_valuation(ONE_PLUS_THETA) == 1
    assert two_adic_valuation(K1.element(2)) == 4
    assert two_adic_valuation(K1.element(Fraction(3, 4))) == -8
    with pytest.raises(ValueError):
        two_adic_valuation(K1.zero())


def test_three_adic_valuation():
    assert three_adic_valuation(K2.element(9)) == 2
    assert three_adic_valuation(K2.element(Fraction(1, 3))) == -1
    assert three_adic_valuation(K2.zero()) is None
    x = K2.element(3, Fraction(1, 3), 0, 9)
    assert three_adic_valuation(x) == -1


def test_embeddings_satisfy_defining_poly():
    for fld in (K1, K2):
        c = fld.defining_poly
        for r in fld.roots(30):
            v = sum(complex(c[i]) * complex(r) ** i for i in range(5))
            assert abs(v) < 1e-20 or abs(v) < 1e-12 * max(1, abs(r)) ** 4
