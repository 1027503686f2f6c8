"""Elementary square-term classification for small indices n = 2..7:
parametrized families of the (P, Q) with U_n a square.  The n = 7 case
rides on a rank-1 elliptic curve over the rationals whose multiples of a
fixed generator enumerate all solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import perfect_square_root
from .lucas import LucasParams


class FamilyConditionError(ValueError):
    """Raised when family parameters violate a stated side-condition."""


# --- solution families for n = 4, 5, 6 ------------------------------------
#
# n=4: U_4 = P(P^2-2Q) is a square iff
#   "odd":  P = d*a^2, Q = (a^4 - d*b^2)/2   with ab odd, d = +-1
#   "even": P = 2d*a^2, Q = 2a^4 - d*b^2     with b odd,  d = +-1
#
# n=5: the quadric 1 - 3x + x^2 = square (x = Q/P^2) parametrizes to
#   "opp_plus":  (2ab,  5a^4 + 6a^2 b^2 + b^4)        a, b opposite parity
#   "opp_minus": (2ab, -5a^4 + 6a^2 b^2 - b^4)        a, b opposite parity
#   "odd_plus":  (ab,  (5a^4 + 6a^2 b^2 + b^4)/4)     a, b both odd
#   "odd_minus": (ab, (-5a^4 + 6a^2 b^2 - b^4)/4)     a, b both odd
#
# n=6: P(P^2-Q)(P^2-3Q) square splits into seven residual-conic cases;
# membership is tested by checking the residual really is a square.

_N6_CASES = {
    # tag: (P from a, P^2-Q from b, residual in (a, b))
    "a2_b2": (lambda a: a * a, lambda b: b * b,
              lambda a, b: -2 * a ** 4 + 3 * b * b),
    "a2_m2b2": (lambda a: a * a, lambda b: -2 * b * b,
                lambda a, b: a ** 4 + 3 * b * b),
    "ma2_2b2": (lambda a: -a * a, lambda b: 2 * b * b,
                lambda a, b: a ** 4 - 3 * b * b),
    "3a2_b2": (lambda a: 3 * a * a, lambda b: b * b,
               lambda a, b: -6 * a ** 4 + b * b),
    "3a2_mb2": (lambda a: 3 * a * a, lambda b: -b * b,
                lambda a, b: 6 * a ** 4 + b * b),
    "3a2_2b2": (lambda a: 3 * a * a, lambda b: 2 * b * b,
                lambda a, b: -3 * a ** 4 + b * b),
    "3a2_m2b2": (lambda a: 3 * a * a, lambda b: -2 * b * b,
                 lambda a, b: 3 * a ** 4 + b * b),
}


def family_generate(n: int, family_tag: str, parameters: tuple) -> LucasParams:
    """Instantiate one of the n = 4/5/6 solution families.

    Raises FamilyConditionError naming the violated side-condition; the
    returned pair always has U_n a perfect square.
    The gcd(P,Q) = 1 requirement is enforced last (it is a filter on the
    family output, not part of the parametrization itself).
    """
    if n == 4:
        delta, a, b = parameters
        if delta not in (1, -1):
            raise FamilyConditionError("delta must be +-1")
        if family_tag == "odd":
            if (a * b) % 2 == 0:
                raise FamilyConditionError("ab odd required")
            p, q = delta * a * a, (a ** 4 - delta * b * b) // 2
        elif family_tag == "even":
            if b % 2 == 0:
                raise FamilyConditionError("b odd required")
            p, q = 2 * delta * a * a, 2 * a ** 4 - delta * b * b
        else:
            raise ValueError(f"unknown n=4 family {family_tag!r}")
    elif n == 5:
        a, b = parameters
        s = 5 * a ** 4 + 6 * a * a * b * b + b ** 4
        if family_tag == "opp_plus":
            p, q = 2 * a * b, s
        elif family_tag == "opp_minus":
            p, q = 2 * a * b, -s + 12 * a * a * b * b
        elif family_tag in ("odd_plus", "odd_minus"):
            if a % 2 == 0 or b % 2 == 0:
                raise FamilyConditionError("a, b both odd required")
            num = s if family_tag == "odd_plus" else -s + 12 * a * a * b * b
            if num % 4:
                raise FamilyConditionError("Q not integral")
            p, q = a * b, num // 4
        else:
            raise ValueError(f"unknown n=5 family {family_tag!r}")
    elif n == 6:
        a, b = parameters
        case = _N6_CASES.get(family_tag)
        if case is None:
            raise ValueError(f"unknown n=6 family {family_tag!r}")
        p_of, pq_of, residual = case
        if perfect_square_root(residual(a, b)) is None:
            raise FamilyConditionError("residual conic value not a square")
        p = p_of(a)
        q = p * p - pq_of(b)
    else:
        raise ValueError("families defined for n in {4, 5, 6}")
    if p == 0 or q == 0:
        raise FamilyConditionError("P*Q = 0")
    if math.gcd(p, q) != 1:
        raise FamilyConditionError("gcd(P,Q) != 1")
    return LucasParams(p, q)


@dataclass(frozen=True)
class RationalCurvePoint:
    """Affine point on y^2 = x^3 + 6x^2 + 5x + 1 (or infinity)."""

    x: Optional[Fraction]
    y: Optional[Fraction]

    @property
    def at_infinity(self) -> bool:
        return self.x is None

    def on_curve(self) -> bool:
        if self.at_infinity:
            return True
        return self.y * self.y == self.x ** 3 + 6 * self.x ** 2 + 5 * self.x + 1


U7_INFINITY = RationalCurvePoint(None, None)
U7_GENERATOR = RationalCurvePoint(Fraction(-1), Fraction(1))


def u7_add(p: RationalCurvePoint, q: RationalCurvePoint) -> RationalCurvePoint:
    """Chord-tangent addition on y^2 = x^3 + 6x^2 + 5x + 1."""
    if p.at_infinity:
        return q
    if q.at_infinity:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return U7_INFINITY
        lam = (3 * p.x * p.x + 12 * p.x + 5) / (2 * p.y)
    else:
        lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam * lam - 6 - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return RationalCurvePoint(x3, y3)


def u7_point_to_pq(pt: RationalCurvePoint) -> Optional[tuple[int, int]]:
    """Invert x = -Q/P^2 with P > 0; absent unless the lowest-terms
    denominator is a perfect square and Q is a nonzero integer coprime
    to P."""
    if pt.at_infinity:
        return None
    x = pt.x
    if x == 0:
        return None  # Q = 0
    p = perfect_square_root(x.denominator)
    if p is None:
        return None
    q = -x.numerator
    if math.gcd(p, q) != 1:
        return None
    return p, q


def u7_solutions(k_max: int) -> list[tuple[int, int]]:
    """(P, Q) pairs with U_7 a square, from multiples
    k = 1..k_max of the generator, deduplicated in order of k."""
    if k_max < 1:
        raise ValueError("k_max >= 1 required")
    out = []
    seen = set()
    acc = U7_INFINITY
    for _ in range(k_max):
        acc = u7_add(acc, U7_GENERATOR)
        pq = u7_point_to_pq(acc)
        if pq is not None and pq not in seen:
            seen.add(pq)
            out.append(pq)
    return out
