"""Lucas sequence core: terms, degeneracy classification, and the
residue-sieve scan for square terms."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from .exact import perfect_square_root


@dataclass(frozen=True)
class LucasParams:
    """A coprime Lucas parameter pair (P, Q) defining U_0=0, U_1=1,
    U_n = P*U_{n-1} - Q*U_{n-2}."""

    p: int
    q: int

    def __post_init__(self):
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"parameters not coprime: ({self.p}, {self.q})")


class Degeneracy(Enum):
    """Degenerate parameter pairs, where P^2/Q is 0, 1, 2, 3 or 4 and the
    sequence is periodic or polynomially sparse in a trivializing way."""

    NONE = "none"
    ZERO_P = "zero_p"                    # (P, Q) = (0, ±1): alpha/beta = -1, U_2n = 0
    PERIOD_THREE = "period_three"        # (P, Q) = (±1, 1): U vanishes at 3|n
    ODD_SQUARE_INDEX = "odd_square_index"  # (P, Q) = (-2, 1): U_n = ±n, n odd squares
    SQUARE_INDEX = "square_index"        # (P, Q) = (2, 1): U_n = n


def classify_degenerate(params: LucasParams) -> Degeneracy:
    p, q = params.p, params.q
    if p == 0:                           # coprimality forces Q = ±1
        return Degeneracy.ZERO_P
    if q == 1:
        if p in (1, -1):
            return Degeneracy.PERIOD_THREE
        if p == -2:
            return Degeneracy.ODD_SQUARE_INDEX
        if p == 2:
            return Degeneracy.SQUARE_INDEX
    return Degeneracy.NONE


def is_degenerate(params: LucasParams) -> bool:
    return classify_degenerate(params) is not Degeneracy.NONE


def lucas_u(params: LucasParams, n: int) -> int:
    """U_n(P, Q), exact."""
    if n < 0:
        raise ValueError("negative index")
    a, b = 0, 1  # U_0, U_1
    for _ in range(n):
        a, b = b, params.p * b - params.q * a
    return a


def lucas_u_iter(params: LucasParams, n_max: int) -> Iterator[tuple[int, int]]:
    """Yield (n, U_n) for n = 0..n_max."""
    a, b = 0, 1
    for n in range(n_max + 1):
        yield n, a
        a, b = b, params.p * b - params.q * a


def lucas_v(params: LucasParams, n: int) -> int:
    """Companion sequence V_n: V_0=2, V_1=P, same recurrence."""
    if n < 0:
        raise ValueError("negative index")
    a, b = 2, params.p
    for _ in range(n):
        a, b = b, params.p * b - params.q * a
    return a


def square_term_indices(params: LucasParams, n_max: int,
                        indices: Optional[list[int]] = None) -> list[tuple[int, int]]:
    """All (n, r) with 2 <= n <= n_max and U_n = r^2 a perfect square
    (r >= 0), by the recurrence and one exact square root per term.
    Indices 0 and 1 are omitted: U_0 = 0 and U_1 = 1 are squares for every
    pair.  With `indices`, only those n are checked.  This is the unsieved
    scan of one pair; `square_terms` scans a box with a residue sieve."""
    if indices is None:
        indices = range(2, n_max + 1)
    wanted = {n for n in indices if 2 <= n <= n_max}
    hits = []
    for n, u in lucas_u_iter(params, max(wanted, default=1)):
        if n in wanted:
            r = perfect_square_root(u)
            if r is not None:
                hits.append((n, r))
    return hits


# --- residue-sieve scan for square terms -------------------------------------

# A term that is not a square modulo some factor is not a square.  A residue
# is a square mod 63 (mod 65) exactly when it is one mod 7 and mod 9 (mod 5
# and mod 13), so these four sieve as 63 and 65 would, on fewer table rows.
# Larger factors come first: on 200/200/50 they drop pairs sooner, so fewer
# rows are gathered for the rest.  The order does not change what is kept.
SIEVE_FACTORS = (64, 59, 53, 47, 43, 41, 37, 31, 29, 23, 19, 17, 13, 11, 9, 7,
                 5)


def square_residue_table(m: int):
    """numpy uint64 array t of length m with t[r] = 1 if r = x^2 mod m for
    some x, else 0."""
    import numpy as np
    x = np.arange(m, dtype=np.int64)
    table = np.zeros(m, dtype=np.uint64)
    table[x * x % m] = 1
    return table


def _is_odd_prime(m: int) -> bool:
    return m > 2 and all(m % d for d in range(2, math.isqrt(m) + 1))


@functools.lru_cache(maxsize=1)
def square_mask_tables(factors: tuple, n_max: int) -> tuple:
    """One read-only numpy uint64 array per factor m: row (P mod m)*m +
    (Q mod m) has bit (n - 2) % 64 of word (n - 2) // 64 set iff U_n(P, Q)
    is a square mod m, for 2 <= n <= n_max.  U_n mod m depends on P and Q
    mod m alone.

    An odd prime's table is read off 2m recurrence rows, not m^2.  Since
    U_n(lP, l^2 Q) = l^(n-1) U_n(P, Q), the row of (p, q) with p != 0 mod m
    is that of (1, q/p^2), except that for a non-residue p the bits of even
    n, where l^(n-1) is a non-residue, say "U_n(1, q/p^2) is 0 or a
    non-residue"; the rows (0, q) are run as they are.  Any other factor
    (64, 9, or a composite that a caller passes) runs all its m^2 rows.

    One recurrence runs the rows of every factor at once and keeps, per
    row, a square mask and a zero mask: each step ORs into them the
    residue tables of the rows' factors, shifted to bit n - 2.  The
    arithmetic stays in the int64 and uint64 loops that the sieve runs
    anyway (hence the uint64 `square_residue_table`): an int16 build of the
    same tables pages in 128-256 KiB more of numpy's code, which the
    census's peak RSS shows."""
    import numpy as np
    if not factors:
        return ()
    words = max(0, (n_max + 62) // 64)
    orbit = [_is_odd_prime(m) for m in factors]
    counts = [(2 if o else m) * m for m, o in zip(factors, orbit)]
    pq = [np.divmod(np.arange(c, dtype=np.int64), m)
          for m, c in zip(factors, counts)]
    p = np.concatenate([x for x, _ in pq])
    q = np.concatenate([y for _, y in pq])
    mod = np.repeat(np.array(factors, dtype=np.int64), counts)
    start = np.cumsum((0,) + factors[:-1])              # of m's residues
    base = np.repeat(start, counts)
    square = np.concatenate([square_residue_table(m) for m in factors])
    zero = np.zeros_like(square)
    zero[start] = 1
    sq = np.zeros((words, p.size), dtype=np.uint64)
    zr = np.zeros_like(sq)
    a, b = np.zeros_like(p), np.ones_like(p)            # U_0, U_1
    for n in range(2, n_max + 1):
        a, b = b, (p * b - q * a) % mod                 # b = U_n mod m
        w, k = divmod(n - 2, 64)
        at, k = base + b, np.uint64(k)
        sq[w] |= square[at] << k
        zr[w] |= zero[at] << k
    sq, zr = sq.T, zr.T
    # The bits of even n <= n_max.  There a non-residue p turns a square
    # bit of (1, q/p^2) off and a non-residue bit on; a zero stays a zero.
    even = np.array([0x5555555555555555 & ((1 << min(64, n_max - 1 - 64 * w)) - 1)
                     for w in range(words)], dtype=np.uint64)
    tables, row = [], 0
    for m, o, c in zip(factors, orbit, counts):
        own = sq[row:row + c]
        if o:       # own is the rows (0, q), then (1, q)
            flipped = own[m:] ^ (even & ~zr[row + m:row + c])
            r = np.arange(m, dtype=np.int64)
            inv2 = np.array([pow(x, -2, m) for x in range(1, m)], dtype=np.int64)
            # (1, q/p^2) is row m + q/p^2 of [own, flipped] for a residue
            # p, and row 2m + q/p^2 for a non-residue.
            lift = np.where(square_residue_table(m)[1:] == 1, m, 2 * m)
            index = np.concatenate([r, (inv2[:, None] * r % m
                                        + lift[:, None]).ravel()])
            table = np.concatenate([own, flipped])[index]
        else:
            table = own.copy()
        table.flags.writeable = False
        tables.append(table)
        row += c
    return tuple(tables)


@functools.lru_cache(maxsize=1)
def coprime_table(p_max: int, q_max: int):
    """Read-only numpy bool array c of shape (p_max + 1, q_max + 1) with
    c[a, b] true iff gcd(a, b) = 1.

    Every entry starts true, and c[::r, ::r] is cleared for each prime
    r <= min(p_max, q_max), the primes that can divide both of a >= 1 and
    b >= 1.  The table is its own prime sieve: when r comes up, c[r, r] is
    still true exactly when no smaller prime divides r.  Row and column 0
    are then set from gcd(0, b) = b."""
    import numpy as np
    c = np.ones((p_max + 1, q_max + 1), dtype=bool)
    for r in range(2, min(p_max, q_max) + 1):
        if c[r, r]:
            c[::r, ::r] = False
    c[0] = c[:, 0] = False
    c[0, 1:2] = c[1:2, 0] = True
    c.flags.writeable = False
    return c


def _coprime_nondegenerate_pairs(ps, p_max: int, q_max: int):
    """int64 arrays (P, Q) of the coprime nondegenerate pairs with P in ps
    (|P| <= p_max) and 0 < |Q| <= q_max, in (P, Q) order: the nonzero
    entries, row by row, of the 2-D mask that reads
    `coprime_table(p_max, q_max)` at (|P|, |Q|) for Q = -q_max..-1,
    1..q_max.  The degeneracy test is `classify_degenerate`'s: P = 0, or
    Q = 1 with |P| <= 2."""
    import numpy as np
    p = np.asarray(ps, dtype=np.int64)
    q = np.arange(-q_max, q_max + 1, dtype=np.int64)
    q = q[q != 0]
    a = np.abs(p)
    keep = coprime_table(p_max, q_max)[a[:, None], np.abs(q)]
    keep[a == 0] = False
    keep[a <= 2, q_max] = False                     # column q_max is Q = 1
    i, j = np.nonzero(keep)
    return p[i], q[j]


def square_terms(ps, q_max: int, n_max: int,
                 p_max: Optional[int] = None) -> list[tuple[int, int, int, int]]:
    """All (p, q, n, r), sorted, with p in ps, 0 < |q| <= q_max, (p, q)
    coprime and nondegenerate, 2 <= n <= n_max and U_n(p, q) = r^2 (r >= 0).
    Indices 0 and 1 are omitted: U_0 = 0 and U_1 = 1 are squares for every
    pair.  p_max bounds |p| and keys the coprimality table, so that the
    blocks of one census share it; by default it is the largest |p| in ps.

    Each pair starts with every index live and keeps those that every
    SIEVE_FACTORS mask table keeps.  After each factor the pairs with no
    live index left are dropped, so the later tables are read for fewer
    pairs.  Then one recurrence per surviving pair is advanced to each of
    its live indices in turn, and `isqrt` rechecks that term exactly.
    `_coprime_nondegenerate_pairs` has already made every pair coprime."""
    import numpy as np
    if n_max < 2:
        return []
    tables = square_mask_tables(SIEVE_FACTORS, n_max)
    if p_max is None:
        p_max = max(map(abs, ps), default=0)
    P, Q = _coprime_nondegenerate_pairs(ps, p_max, q_max)
    width = 8 * ((n_max + 62) // 64)                # bytes of mask per pair
    every = (1 << (n_max - 1)) - 1                  # bit n - 2 for each n
    kept = np.broadcast_to(np.frombuffer(every.to_bytes(width, "little"),
                                         dtype="<u8"), (P.size, width // 8))
    for m, table in zip(SIEVE_FACTORS, tables):
        kept = kept & table[P % m * m + Q % m]
        live = np.flatnonzero(kept.any(axis=1))
        P, Q, kept = P[live], Q[live], kept[live]
    masks = kept.astype("<u8", copy=False).tobytes()
    hits = []
    for at, p, q in zip(range(0, len(masks), width), P.tolist(), Q.tolist()):
        bits = int.from_bytes(masks[at:at + width], "little")
        a, b, n = 0, 1, 1                           # U_{n-1}, U_n
        while bits:
            k = (bits & -bits).bit_length() + 1     # the lowest live index
            bits &= bits - 1
            while n < k:
                a, b, n = b, p * b - q * a, n + 1
            if b >= 0 and (r := math.isqrt(b)) * r == b:
                hits.append((p, q, n, r))
    return sorted(hits)
