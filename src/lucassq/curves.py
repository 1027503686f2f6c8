"""Elliptic curves over the quartic fields, descent maps, and the catalog.

All curves have the shape Y^2 = X(X^2 + A X + B) over K1 or K2.  Each
carries a rationality condition beta*X + gamma in Q whose value at a
qualifying point is exactly the descent ratio b/a^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import perfect_square_root
from .fields import (EPS1, EPS2, ETA1, ETA2, FieldDescriptor, FieldElement,
                     K1, K2, ONE_PLUS_THETA)
from .lucas import LucasParams


@dataclass(frozen=True)
class CurvePoint:
    """Affine point with FieldElement coordinates, or infinity."""

    x: Optional[FieldElement]
    y: Optional[FieldElement]

    @property
    def at_infinity(self) -> bool:
        return self.x is None

    def __neg__(self) -> "CurvePoint":
        if self.at_infinity:
            return self
        return CurvePoint(self.x, -self.y)


INFINITY = CurvePoint(None, None)


@dataclass(frozen=True)
class CurveInstance:
    id: str
    field: FieldDescriptor
    a: FieldElement           # A in Y^2 = X(X^2 + A X + B)
    b: FieldElement           # B
    beta: FieldElement
    gamma: FieldElement
    delta: FieldElement       # twist unit
    delta_name: str
    equation: str             # eq1..eq4
    gens: tuple = ()          # generator CurvePoints (empty for rank 0)

    @property
    def rank(self) -> int:
        return len(self.gens)

    @property
    def torsion(self) -> CurvePoint:
        return CurvePoint(self.field.zero(), self.field.zero())

    def __repr__(self):
        return f"CurveInstance({self.id})"


def on_curve(curve: CurveInstance, pt: CurvePoint) -> bool:
    if pt.at_infinity:
        return True
    if pt.x.field is not curve.field:
        raise ValueError("field mismatch")
    x, y = pt.x, pt.y
    return y * y == x * (x * x + curve.a * x + curve.b)


def add_points(curve: CurveInstance, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    if p.at_infinity:
        return q
    if q.at_infinity:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return INFINITY
        # tangent
        lam = (3 * p.x * p.x + 2 * curve.a * p.x + curve.b) / (2 * p.y)
    else:
        lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam * lam - curve.a - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return CurvePoint(x3, y3)


def add_torsion(curve: CurveInstance, p: CurvePoint) -> CurvePoint:
    """p + T for the 2-torsion point T = (0, 0), in closed form with one
    inversion: (x, y) + T = (B/x, -B y/x^2), the third point on the chord
    of slope y/x (Silverman-Tate, *Rational Points on Elliptic Curves*,
    III.4).  O + T = T and T + T = O."""
    if p.at_infinity:
        return curve.torsion
    if not p.x:
        return INFINITY
    x_inv = p.x.inv()
    x = curve.b * x_inv
    return CurvePoint(x, -(x * x_inv) * p.y)


def scalar_mul(curve: CurveInstance, k: int, p: CurvePoint) -> CurvePoint:
    if k < 0:
        return scalar_mul(curve, -k, -p)
    acc = INFINITY
    addend = p
    while k:
        if k & 1:
            acc = add_points(curve, acc, addend)
        addend = add_points(curve, addend, addend)
        k >>= 1
    return acc


def condition_value(curve: CurveInstance, pt: CurvePoint) -> Optional[Fraction]:
    """beta*X + gamma when it is a rational number, else None."""
    if pt.at_infinity:
        raise ValueError("finite point required")
    return x_condition_value(curve, pt.x)


def x_condition_value(curve: CurveInstance, x: FieldElement) -> Optional[Fraction]:
    """beta*x + gamma when it is a rational number, else None: the
    condition value of either point with X-coordinate x."""
    return (curve.beta * x + curve.gamma).rational_value()


@dataclass(frozen=True)
class DescentSolution:
    equation: str
    ratio: Fraction           # b/a^2
    a: int                    # > 0
    b: int
    params: Optional[LucasParams]
    reject_reason: Optional[str]


def recover_ab(curve: CurveInstance, pt: CurvePoint) -> Optional[DescentSolution]:
    """Invert the substitution chain at a point meeting the rationality
    condition.  The condition value equals b/a^2 exactly, so recovery is a
    lowest-terms square-denominator check."""
    r = condition_value(curve, pt)
    if r is None:
        return None
    a = perfect_square_root(r.denominator)
    if a is None:
        return None
    b = r.numerator
    params, reason = ab_to_pq(curve.equation, a, b)
    return DescentSolution(curve.equation, r, a, b, params, reason)


def ab_to_pq(equation: str, a: int, b: int) -> tuple[Optional[LucasParams], Optional[str]]:
    """Map a descent pair (a, b) to (P, Q), or (None, reason).

    Checks, in order: an exact integer c solving the source equation, the
    Q != 0 and gcd(P,Q) = 1 requirements, and the parity side-conditions
    (ab odd for eq1/eq2, b odd for eq3/eq4).
    """
    if a == 0:
        raise ValueError("a = 0")
    if b == 0:
        return None, "b = 0 impossible"
    a2, b2 = a * a, b * b
    a4 = a2 * a2
    if equation == "eq1":
        v = -a4 * a4 + 2 * a4 * b2 + b2 * b2
        ok = v >= 0 and v % 2 == 0 and perfect_square_root(v // 2) is not None
        p, q = a2, (a4 - b2) // 2 if (a4 - b2) % 2 == 0 else None
    elif equation == "eq2":
        v = -a4 * a4 - 2 * a4 * b2 + b2 * b2
        ok = v <= 0 and v % 2 == 0 and perfect_square_root(-v // 2) is not None
        p, q = a2, (a4 + b2) // 2 if (a4 + b2) % 2 == 0 else None
    elif equation == "eq3":
        v = -64 * a4 * a4 + 16 * a4 * b2 + b2 * b2
        ok = perfect_square_root(v) is not None
        p, q = 4 * a2, 8 * a4 - b2
    elif equation == "eq4":
        v = -64 * a4 * a4 - 16 * a4 * b2 + b2 * b2
        ok = perfect_square_root(v) is not None
        p, q = 4 * a2, 8 * a4 + b2
    else:
        raise ValueError(f"unknown equation {equation!r}")
    if not ok or q is None:
        return None, "no integer c solves the source equation"
    if q == 0:
        return None, "Q = 0"
    if math.gcd(p, q) != 1:
        return None, f"gcd({p},{q}) != 1"
    if equation in ("eq1", "eq2") and (a * b) % 2 == 0:
        return None, "parity: ab odd required"
    if equation in ("eq3", "eq4") and b % 2 == 0:
        return None, "parity: b odd required"
    return LucasParams(p, q), None


# --- catalog ---------------------------------------------------------------

def _pt(fld, x_coords, y_coords) -> CurvePoint:
    return CurvePoint(fld.element(*x_coords), fld.element(*y_coords))


_PHI = K2.element(0, 1)

# (A0, B0, beta0, gamma0) of each source equation; the curve of twist unit
# d has A = A0 d, B = B0 d^2, beta = beta0 / d and gamma = gamma0, so eq1's
# condition is (2/((1+theta) d)) X - theta in Q
_EQUATIONS = {
    "eq1": (-(ETA1 + ETA1 * ETA1), K1.element(1, 1, 0, 1),
            2 / ONE_PLUS_THETA, -ETA1),
    "eq2": (K1.element(-1, -2, 0, -1), K1.element(1, 1, 0, 1),
            2 / ONE_PLUS_THETA, -(ETA1.inv())),
    "eq3": (-_PHI, K2.element(1, 0, Fraction(1, 2)), 4, -2 * _PHI),
    "eq4": (-(2 / _PHI), 2 / (_PHI * _PHI) - 1, 4, -(4 / _PHI)),
}


def _curve(cid, equation, delta, delta_name, gens=()):
    a0, b0, beta0, gamma0 = _EQUATIONS[equation]
    return CurveInstance(cid, delta.field, a0 * delta, b0 * delta * delta,
                         beta0 / delta, gamma0, delta, delta_name, equation,
                         gens)


_H = Fraction(1, 2)
_Q = Fraction(1, 4)

E1 = _curve("E1", "eq1", K1.one(), "1",
            (_pt(K1, (Fraction(3, 2), 2, _H, 0),
                 (-2, -3, -_H, Fraction(-5, 2))),))
E2 = _curve("E2", "eq1", ETA2, "eta2",
            (_pt(K1, (_H, 0, -_H, 0), (_H, -_H, 0, 0)),))
E3 = _curve("E3", "eq2", ETA1, "eta1",
            (_pt(K1, (_H, 0, -_H, 0), (0, 0, _H, _H)),))
E4 = _curve("E4", "eq2", ETA1 * ETA2, "eta1*eta2",
            (_pt(K1, (_H, 0, -_H, 0), (0, 0, _H, -_H)),))
E5 = _curve("E5", "eq3", K2.one(), "1",
            (_pt(K2, (2, -2, _H, -_H), (5, -5, 1, -1)),))
E6 = _curve("E6", "eq3", EPS1, "eps1",
            (_pt(K2, (1, 0, -_H, 0), (1, 0, -_H, 0)),))
E7 = _curve("E7", "eq3", EPS2, "eps2",
            (_pt(K2, (1, _H, 0, _Q), (-3, -3, -_H, -_H)),))
E8 = _curve("E8", "eq3", EPS1 * EPS2, "eps1*eps2",
            (_pt(K2, (1, _H, 0, _Q), (-2, -2, 0, -_H)),))
E9 = _curve("E9", "eq4", K2.one(), "1",
            (_pt(K2, (1, _H, 0, _Q), (0, -1, 0, 0)),))
E10 = _curve("E10", "eq4", EPS1, "eps1",
             (_pt(K2, (1, 0, 0, 0), (0, 0, _H, 0)),
              _pt(K2, (0, _H, _H, -_Q), (1, 0, Fraction(-3, 2), 0))))
E11 = _curve("E11", "eq4", EPS2, "eps2",
             (_pt(K2, (2, 2, _H, _H), (-2, -2, -_H, -_H)),))
E12 = _curve("E12", "eq4", EPS1 * EPS2, "eps1*eps2",
             (_pt(K2, (1, _H, 0, _Q), (-1, -1, -_H, -_H)),))

CURVES = (E1, E2, E3, E4, E5, E6, E7, E8, E9, E10, E11, E12)

# The remaining twist units give curves of rank 0: no rational-condition
# points of infinite order can arise, so no driver runs on them.
RANK0_STUBS = (
    _curve("R1", "eq1", ETA1, "eta1"),
    _curve("R2", "eq1", ETA1 * ETA2, "eta1*eta2"),
    _curve("R3", "eq2", K1.one(), "1"),
    _curve("R4", "eq2", ETA2, "eta2"),
)

CURVE_BY_ID = {c.id: c for c in CURVES + RANK0_STUBS}


def catalog() -> list[dict]:
    """Audit dump of the curve table."""
    from .jsonio import encode_field_element, encode_point
    out = []
    for c in CURVES + RANK0_STUBS:
        out.append({
            "id": c.id,
            "field": c.field.id,
            "equation": c.equation,
            "delta": c.delta_name,
            "rank": c.rank,
            "A": encode_field_element(c.a),
            "B": encode_field_element(c.b),
            "beta": encode_field_element(c.beta),
            "gamma": encode_field_element(c.gamma),
            "generators": [encode_point(g) for g in c.gens],
        })
    return out
