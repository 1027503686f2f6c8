"""Lucas sequences, degeneracy classes, and square-term scans."""

import math

import pytest
from hypothesis import given, strategies as st

from lucassq import lucas
from lucassq.lucas import (SIEVE_FACTORS, Degeneracy, LucasParams,
                           classify_degenerate, coprime_table, is_degenerate,
                           lucas_u, lucas_u_iter, lucas_v, square_mask_tables,
                           square_residue_table, square_term_indices,
                           square_terms)

FIB = LucasParams(1, -1)


coprime_pairs = st.tuples(
    st.integers(-80, 80).filter(bool),
    st.integers(-80, 80).filter(bool),
).filter(lambda t: math.gcd(*t) == 1)


def test_fibonacci_values():
    # U(1,-1) is the Fibonacci sequence
    want = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    assert [lucas_u(FIB, n) for n in range(13)] == want


def test_theorem_pair_values():
    assert lucas_u(LucasParams(1, -4), 8) == 441
    assert lucas_u(LucasParams(4, -17), 8) == 384400


@given(coprime_pairs, st.integers(2, 30))
def test_recurrence(pq, n):
    p, q = pq
    params = LucasParams(p, q)
    assert lucas_u(params, n) == p * lucas_u(params, n - 1) - q * lucas_u(params, n - 2)
    assert lucas_v(params, n) == p * lucas_v(params, n - 1) - q * lucas_v(params, n - 2)


@given(coprime_pairs, st.integers(1, 20))
def test_double_index_identity(pq, n):
    p, q = pq
    # U_{2n} = U_n V_n
    params = LucasParams(p, q)
    assert lucas_u(params, 2 * n) == lucas_u(params, n) * lucas_v(params, n)


@given(coprime_pairs)
def test_iter_agrees_with_direct(pq):
    p, q = pq
    params = LucasParams(p, q)
    for n, u in lucas_u_iter(params, 12):
        assert u == lucas_u(params, n)


def test_degeneracy_classes():
    assert classify_degenerate(LucasParams(1, 1)) is Degeneracy.PERIOD_THREE
    assert classify_degenerate(LucasParams(-1, 1)) is Degeneracy.PERIOD_THREE
    assert classify_degenerate(LucasParams(2, 1)) is Degeneracy.SQUARE_INDEX
    assert classify_degenerate(LucasParams(-2, 1)) is Degeneracy.ODD_SQUARE_INDEX
    assert classify_degenerate(LucasParams(1, -1)) is Degeneracy.NONE
    assert not is_degenerate(LucasParams(3, 2))


def test_zero_p_is_degenerate():
    """(0, ±1) has alpha/beta = -1: every even-index term vanishes."""
    for q in (1, -1):
        params = LucasParams(0, q)
        assert classify_degenerate(params) is Degeneracy.ZERO_P
        assert all(u == 0 for n, u in lucas_u_iter(params, 20) if n % 2 == 0)


def test_square_term_indices_fibonacci():
    # F_2 = 1 and F_12 = 144; (1, 1) is degenerate, so P = 1, |Q| <= 1 is
    # the Fibonacci sequence alone
    assert square_term_indices(FIB, 50) == [(2, 1), (12, 12)]
    assert square_term_indices(FIB, 50, [3, 12, 49, 51]) == [(12, 12)]
    assert square_terms([1], 1, 50) == [(1, -1, 2, 1), (1, -1, 12, 12)]


def test_square_term_indices_theorem_pairs():
    assert (8, 21) in square_term_indices(LucasParams(1, -4), 8)
    assert (8, 620) in square_term_indices(LucasParams(4, -17), 8)
    assert (1, -4, 8, 21) in square_terms([1], 4, 8)
    assert (4, -17, 8, 620) in square_terms([4], 17, 8)


def test_square_residue_tables():
    """Each sieve table holds 1 at x^2 mod m for every x, and 0 elsewhere."""
    for m in SIEVE_FACTORS:
        table = square_residue_table(m)
        squares = {x * x % m for x in range(m)}
        assert table.tolist() == [int(r in squares) for r in range(m)]


def test_square_mask_tables():
    """Bit n - 2 of row P*m + Q of each factor's mask table says whether
    U_n(P, Q) mod m, by the scalar recurrence, is a square mod m, for every
    residue pair and every n <= 130: three words, two word boundaries.  The
    factors are the sieve's, the odd primes 3, 61 and 181, whose tables are
    read off the rows (0, Q) and (1, Q), and the composites 15, 63 and 65,
    whose tables run every row, all built in one call."""
    n_max = 130
    factors = SIEVE_FACTORS + (3, 61, 181, 15, 63, 65)
    tables = square_mask_tables(factors, n_max)
    assert len(tables) == len(factors)
    for m, table in zip(factors, tables):
        assert table.shape == (m * m, 3) and not table.flags.writeable
        squares = {x * x % m for x in range(m)}
        for p in range(m):
            for q in range(m):
                want, a, b = 0, 0, 1                  # U_0, U_1 mod m
                for n in range(2, n_max + 1):
                    a, b = b, (p * b - q * a) % m     # b = U_n mod m
                    want |= (b in squares) << (n - 2)
                got = sum(int(w) << 64 * j
                          for j, w in enumerate(table[p * m + q]))
                assert got == want, (m, p, q)


def test_square_mask_tables_split_by_crt():
    """A residue is a square mod 63 (65) iff it is one mod 7 and 9 (5 and
    13), so on every residue pair the mask of 63 is the AND of the masks of
    7 and 9, and that of 65 the AND of those of 5 and 13: the factors that
    replaced 63 and 65 keep the same indices."""
    import numpy as np
    for whole, parts in ((63, (7, 9)), (65, (5, 13))):
        tables = square_mask_tables((whole,) + parts, 130)
        p, q = np.divmod(np.arange(whole * whole), whole)
        want = tables[0]
        got = np.bitwise_and(*(t[p % m * m + q % m]
                               for m, t in zip(parts, tables[1:])))
        assert want.shape == got.shape == (whole * whole, 3)
        assert np.array_equal(want, got), whole



def test_coprime_table():
    """Entry (a, b) of the coprimality table is gcd(a, b) = 1, row and
    column 0 included, for tables wider than tall, taller than wide, and
    with no prime up to the smaller bound."""
    for p_max, q_max in ((9, 4), (4, 9), (1, 6), (0, 3), (30, 30)):
        c = coprime_table(p_max, q_max)
        assert c.shape == (p_max + 1, q_max + 1) and not c.flags.writeable
        assert c.tolist() == [[math.gcd(a, b) == 1 for b in range(q_max + 1)]
                              for a in range(p_max + 1)]


@pytest.mark.parametrize("ps, p_max, q_max", [
    (range(-7, 8), 7, 5),                   # negative P, P = 0, |P| > q_max
    (range(-3, 4), 3, 12),                  # q_max > |P|
    ([-12, -11, -10, 2, 9], 12, 12),        # a block inside a larger box
    ([-1, 1, 2], 20, 1),                    # every Q = 1 pair degenerate
])
def test_coprime_nondegenerate_pairs(ps, p_max, q_max):
    """The census pairs of a block are those that `math.gcd` and
    `classify_degenerate` keep, in (P, Q) order."""
    P, Q = lucas._coprime_nondegenerate_pairs(ps, p_max, q_max)
    assert P.dtype == Q.dtype == "int64"
    want = [(p, q) for p in ps for q in range(-q_max, q_max + 1)
            if q and math.gcd(p, q) == 1
            and classify_degenerate(LucasParams(p, q)) is Degeneracy.NONE]
    assert list(zip(P.tolist(), Q.tolist())) == want
