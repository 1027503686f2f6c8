"""U_n for n = 2..7 against its polynomials in (P, Q), the parameter
families, and the rational curve behind the n = 7 classification."""

import math

from hypothesis import given, settings, strategies as st

from lucassq.elementary import (U7_GENERATOR, U7_INFINITY, family_generate,
                                u7_add, u7_point_to_pq, u7_solutions)
from lucassq.exact import is_perfect_square
from lucassq.lucas import LucasParams, lucas_u

coprime_pairs = st.tuples(
    st.integers(-60, 60).filter(bool),
    st.integers(-60, 60).filter(bool),
).filter(lambda t: math.gcd(*t) == 1)


# U_n as a polynomial in (P, Q) for 2 <= n <= 7, an oracle independent of
# the recurrence in `lucas_u`
U_N_POLYNOMIALS = {
    2: lambda p, q: p,
    3: lambda p, q: p * p - q,
    4: lambda p, q: p * (p * p - 2 * q),
    5: lambda p, q: p ** 4 - 3 * p * p * q + q * q,
    6: lambda p, q: p * (p * p - q) * (p * p - 3 * q),
    7: lambda p, q: p ** 6 - 5 * p ** 4 * q + 6 * p * p * q * q - q ** 3,
}


@given(coprime_pairs, st.integers(2, 7))
@settings(max_examples=300)
def test_criterion_equals_u_n(pq, n):
    """For 2 <= n <= 7, U_n equals its polynomial in (P, Q)."""
    assert U_N_POLYNOMIALS[n](*pq) == lucas_u(LucasParams(*pq), n)


def test_criterion_oracle_equivalence_box():
    """Exhaustive oracle sweep: U_n equals its polynomial in (P, Q) for
    2 <= n <= 7 on every coprime pair of the |P|, |Q| <= 60 box (the gating
    property-suite bound), P = 0 and Q = 0 included."""
    for p in range(-60, 61):
        for q in range(-60, 61):
            if math.gcd(p, q) != 1:
                continue
            params = LucasParams(p, q)
            for n, poly in U_N_POLYNOMIALS.items():
                assert poly(p, q) == lucas_u(params, n), (p, q, n)


_FAMILIES = (
    (4, "odd", lambda a, b: (1, a, b)),
    (4, "even", lambda a, b: (-1, a, b)),
    (5, "opp_plus", lambda a, b: (a, b)),
    (5, "odd_plus", lambda a, b: (a, b)),
    (6, "a2_b2", lambda a, b: (a, b)),
    (6, "3a2_mb2", lambda a, b: (a, b)),
)


@given(st.integers(-9, 9).filter(bool), st.integers(-9, 9).filter(bool))
@settings(max_examples=150)
def test_family_members_are_square(a, b):
    """Every family member (when the side conditions admit it) really does
    make its U_n a perfect square."""
    from lucassq.elementary import FamilyConditionError
    produced = 0
    for n, tag, pack in _FAMILIES:
        try:
            params = family_generate(n, tag, pack(a, b))
        except (FamilyConditionError, ValueError, ZeroDivisionError):
            continue
        produced += 1
        assert is_perfect_square(lucas_u(params, n)), (n, tag, a, b)
    if abs(a) == 1 and abs(b) == 1:
        assert produced          # the unit corner must hit some family


def test_u7_generator_multiples():
    """First multiples of the generator of the rank-1 rational curve give
    the known (P, Q) list, in order."""
    want = [(1, 1), (1, 5), (2, -1), (5, 21), (1, -104), (21, 545), (52, 415)]
    assert u7_solutions(8) == want


def test_u7_solutions_really_solve():
    for p, q in u7_solutions(8):
        assert is_perfect_square(lucas_u(LucasParams(p, q), 7))


def test_u7_group_law_consistency():
    """iG + jG = (i + j)G on the first multiples of the generator, through
    the chord (i != j), tangent (i = j) and identity (i or j = 0) cases."""
    mults = [U7_INFINITY]
    for _ in range(6):
        mults.append(u7_add(mults[-1], U7_GENERATOR))
    for i in range(7):
        for j in range(7 - i):
            assert u7_add(mults[i], mults[j]) == mults[i + j], (i, j)


def test_u7_point_to_pq_generator():
    assert u7_point_to_pq(U7_GENERATOR) == (1, 1)
