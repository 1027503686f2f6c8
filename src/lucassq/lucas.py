"""Lucas sequence core: terms, degeneracy classification, square scans."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

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

    @property
    def discriminant(self) -> int:
        return self.p * self.p - 4 * self.q


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


def square_term_indices(params: LucasParams, n_max: int) -> list[tuple[int, int]]:
    """All (n, r) with 2 <= n <= n_max and U_n = r^2 a perfect square
    (r >= 0).  Indices 0 and 1 are omitted: U_0 = 0 and U_1 = 1 are squares
    for every pair."""
    hits = []
    for n, u in lucas_u_iter(params, n_max):
        if n < 2:
            continue
        r = perfect_square_root(u)
        if r is not None:
            hits.append((n, r))
    return hits


def scaled_pair(params: LucasParams, k: int) -> tuple[int, int]:
    """The image (kP, k^2 Q) of the scaling that sends U_n to k^(n-1) U_n.
    Returned as a raw tuple since the image is generally not coprime."""
    return k * params.p, k * k * params.q
