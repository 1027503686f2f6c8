"""Exact integer square roots, the dense one-variable helpers and the
sparse Poly layer."""

from fractions import Fraction

from hypothesis import given, strategies as st

from lucassq.exact import (Poly, is_perfect_square, perfect_square_root,
                           poly_add, poly_diff, poly_eval, poly_mul,
                           poly_scale, resultant)


def test_perfect_square_root_small():
    assert perfect_square_root(0) == 0
    assert perfect_square_root(1) == 1
    assert perfect_square_root(441) == 21
    assert perfect_square_root(384400) == 620
    assert perfect_square_root(2) is None
    assert perfect_square_root(-4) is None


@given(st.integers(min_value=0, max_value=10 ** 30))
def test_perfect_square_root_of_square(n):
    assert perfect_square_root(n * n) == n


@given(st.integers(min_value=2, max_value=10 ** 15))
def test_near_squares_are_not_squares(n):
    assert not is_perfect_square(n * n - 1)
    assert not is_perfect_square(n * n + 1)


# --- Poly -------------------------------------------------------------------

def _poly_from_coeffs(cs):
    """Univariate helper, low-to-high."""
    return Poly(1, {(i,): c for i, c in enumerate(cs)})


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=5),
       st.lists(st.integers(-50, 50), min_size=1, max_size=5),
       st.integers(-10, 10))
def test_poly_mul_matches_evaluation(a, b, x):
    pa, pb = _poly_from_coeffs(a), _poly_from_coeffs(b)
    assert (pa * pb).evaluate([x]) == pa.evaluate([x]) * pb.evaluate([x])


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=4),
       st.lists(st.integers(-50, 50), min_size=1, max_size=4))
def test_poly_add_commutes(a, b):
    pa, pb = _poly_from_coeffs(a), _poly_from_coeffs(b)
    assert pa + pb == pb + pa
    assert pa - pa == Poly(1)


# --- dense helpers against Poly ----------------------------------------------

coeff_lists = st.lists(st.fractions(min_value=-20, max_value=20,
                                    max_denominator=12), max_size=6)


def _dense(p):
    """The univariate Poly as a dense list, trailing zeros dropped."""
    top = max((e[0] for e in p.terms), default=-1)
    return [p.coefficient((i,)) for i in range(top + 1)]


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


@given(coeff_lists, coeff_lists, st.fractions(min_value=-5, max_value=5,
                                              max_denominator=7))
def test_dense_helpers_match_poly(a, b, c):
    """poly_add, poly_scale and poly_mul agree with Poly arithmetic on
    lists of unequal lengths, zero coefficients included."""
    pa, pb = _poly_from_coeffs(a), _poly_from_coeffs(b)
    assert _trim(poly_add(a, b)) == _dense(pa + pb)
    assert len(poly_add(a, b)) == max(len(a), len(b))
    assert _trim(poly_scale(a, c)) == _dense(pa * c)
    assert _trim(poly_mul(a, b)) == _dense(pa * pb)
    if a and b:
        assert len(poly_mul(a, b)) == len(a) + len(b) - 1


@given(coeff_lists, coeff_lists, st.integers(0, 12))
def test_poly_mul_truncation(a, b, order):
    """poly_mul(a, b, order) is the full product with every term of degree
    > order dropped, as Poly.mul_truncated drops them."""
    pa, pb = _poly_from_coeffs(a), _poly_from_coeffs(b)
    got = poly_mul(a, b, order)
    assert len(got) <= order + 1
    assert _trim(got) == _dense(pa.mul_truncated(pb, order))
    assert got == poly_mul(a, b)[:order + 1]


@given(coeff_lists, st.fractions(min_value=-5, max_value=5,
                                 max_denominator=7))
def test_poly_eval_and_diff_match_evaluation(a, x):
    """Horner evaluation agrees with Poly.evaluate, and poly_diff with the
    power rule."""
    assert poly_eval(a, x) == _poly_from_coeffs(a).evaluate([x])
    want = sum((k * c * x ** (k - 1) for k, c in enumerate(a) if k),
               Fraction(0))
    assert poly_eval(poly_diff(a), x) == want
    assert len(poly_diff(a)) == max(len(a) - 1, 0)


def test_dense_helpers_over_poly_coefficients():
    """Coefficients may themselves be Polys, as in the symbolic chord
    expansion: (1 + X t)(1 - X t) = 1 - X^2 t^2."""
    X = Poly.variable(0, 1)
    got = poly_mul([1, X], [1, -X])
    assert got[0] == 1 and not got[1] and got[2] == -(X * X)
    assert poly_eval(poly_add([X], [0, 1]), X) == X + X


def test_sylvester_resultant_common_root():
    # (x-2)(x-3) and (x-2)(x+1) share the root 2
    f = [Fraction(6), Fraction(-5), Fraction(1)]
    g = [Fraction(-2), Fraction(-1), Fraction(1)]
    assert resultant(f, g) == 0


def test_sylvester_resultant_coprime():
    f = [Fraction(1), Fraction(0), Fraction(1)]     # x^2 + 1
    g = [Fraction(-1), Fraction(1)]                  # x - 1
    assert resultant(g, f) == 2


def test_bivariate_resultant_eliminates():
    """Eliminating x from 2 x^2 and x^2 + x y + 2 y^2 leaves 16 y^4, the
    paper's H2 = 16 n2^4 of the identity coset of E10: the resultant of
    the two forms is 16."""
    assert resultant([0, 0, 2], [2, 1, 1]) == 16
    assert resultant([2, 1, 1], [0, 0, 2]) == 16


def test_sylvester_resultant_keeps_zero_leading_coefficients():
    """y^2 and x y share the zero (1 : 0), so their resultant is 0; with
    the leading zeros trimmed, 1 and x would give 1.  For linear forms
    a11 x + a12 y, a21 x + a22 y it is the determinant a11 a22 - a12 a21:
    2 for (2 x, x + y), the paper's linear Skolem cases, and -1 for
    (y, x + y)."""
    assert resultant([1, 0, 0], [0, 1, 0]) == 0
    assert resultant([0, 2], [1, 1]) == 2
    assert resultant([1, 0], [1, 1]) == -1
