"""Exact arithmetic in the two quartic fields underlying the descent.

K1 = Q(theta) with theta^4 + 2 theta^2 - 1 = 0  (theta ~ 0.6435942529)
K2 = Q(phi)   with phi^4 + 4 phi^2 - 4 = 0      (phi   ~ 0.9101797211)

An element (n0 + n1 alpha + n2 alpha^2 + n3 alpha^3) / d is stored as four
integer numerators and one common denominator in canonical form: d > 0 and
gcd(n0, n1, n2, n3, d) = 1 (Cohen, GTM 138, 4.2).  Both defining polynomials
are even, X^4 + c2 X^2 + c0, so products fold with alpha^4 = -c2 alpha^2 - c0
and inverses go through the quadratic subfield Q(alpha^2) (see `adjugate`).
Maximal-order membership is a predicate against the stored integral basis,
never a change of representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Sequence

import mpmath

from .exact import poly_eval


def _frac_rows(rows) -> tuple:
    return tuple(tuple(Fraction(c) for c in row) for row in rows)


@dataclass(frozen=True, eq=False)
class FieldDescriptor:
    """Immutable description of one of the two quartic fields.  Fields
    compare and hash by identity: K1 and K2 are module singletons, and the
    caches keyed on a field hash it on every call."""

    id: str
    defining_poly: tuple  # coefficients low..high, monic degree 4
    order_basis: tuple    # rows: integral-basis vectors over the power basis

    def __post_init__(self):
        # the fold in _mul_int and the subfield formulas rely on this shape
        c0, c1, c2, c3, c4 = (Fraction(c) for c in self.defining_poly)
        if not (c4 == 1 and c1 == c3 == 0
                and c0.denominator == c2.denominator == 1):
            raise ValueError("defining polynomial must be X^4 + c2 X^2 + c0 "
                             "with integer c2, c0")
        object.__setattr__(self, "_c0", int(c0))
        object.__setattr__(self, "_c2", int(c2))
        # x is in the order iff n . inv is integral over d; inv = adj / den
        inv = _invert4(self.order_basis)
        den = 1
        for row in inv:
            for c in row:
                den = den * c.denominator // gcd(den, c.denominator)
        object.__setattr__(self, "_order_inv", (
            tuple(tuple(int(inv[j][i] * den) for j in range(4)) for i in range(4)),
            den))

    def element(self, c0=0, c1=0, c2=0, c3=0) -> "FieldElement":
        return FieldElement(self, (c0, c1, c2, c3))

    def integral(self, n) -> "FieldElement":
        """The element with integer coordinates n (denominator 1)."""
        return _raw(self, tuple(n), 1)

    def zero(self) -> "FieldElement":
        return _raw(self, (0, 0, 0, 0), 1)

    def one(self) -> "FieldElement":
        return _raw(self, (1, 0, 0, 0), 1)

    def roots(self, digits: int = 30) -> list:
        """The four roots of the defining polynomial, ordered to match the
        place labels: real root, its negative, then the conjugate imaginary
        pair."""
        with mpmath.workdps(digits):
            if self.id == "K1":
                t = mpmath.sqrt(mpmath.sqrt(2) - 1)
                return [t, -t, 1j / t, -1j / t]
            t = mpmath.sqrt(2 * mpmath.sqrt(2) - 2)
            return [t, -t, 2j / t, -2j / t]

    def __repr__(self):
        return f"FieldDescriptor({self.id})"


def _invert4(rows) -> tuple:
    """Exact inverse of a 4x4 rational matrix (rows of Fractions)."""
    n = 4
    m = [list(r) + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        d = m[col][col]
        m[col] = [x / d for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def _raw(fld: FieldDescriptor, n: tuple, d: int) -> "FieldElement":
    """An element from numerators and a denominator already in canonical
    form."""
    x = object.__new__(FieldElement)
    x.field, x._n, x._d = fld, n, d
    return x


def _make(fld: FieldDescriptor, n0: int, n1: int, n2: int, n3: int,
          d: int) -> "FieldElement":
    """An element from any numerators and a nonzero denominator."""
    g = gcd(d, n0, n1, n2, n3)
    if d < 0:
        g = -g
    if g != 1:
        return _raw(fld, (n0 // g, n1 // g, n2 // g, n3 // g), d // g)
    return _raw(fld, (n0, n1, n2, n3), d)


def _mul_int(fld: FieldDescriptor, a: tuple, b: tuple) -> tuple:
    """Product of two integer coordinate vectors, folded with
    alpha^4 = -c2 alpha^2 - c0."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    p6 = a3 * b3
    p5 = a2 * b3 + a3 * b2
    p4 = a1 * b3 + a2 * b2 + a3 * b1
    p3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
    p2 = a0 * b2 + a1 * b1 + a2 * b0
    p1 = a0 * b1 + a1 * b0
    p0 = a0 * b0
    c2, c0 = fld._c2, fld._c0
    if p6:                      # alpha^6 = -c2 alpha^4 - c0 alpha^2
        p4 -= c2 * p6
        p2 -= c0 * p6
    return (p0 - c0 * p4, p1 - c0 * p5, p2 - c2 * p4, p3 - c2 * p5)


def _subfield_norm(fld: FieldDescriptor, n: tuple) -> tuple:
    """(a, b) with n sigma(n) = a + b alpha^2, sigma: alpha -> -alpha.
    Writing n = E + alpha O with E, O in Q(alpha^2), this is E^2 - alpha^2 O^2."""
    n0, n1, n2, n3 = n
    c2, c0 = fld._c2, fld._c0
    e0, e1 = n0 * n0 - c0 * n2 * n2, 2 * n0 * n2 - c2 * n2 * n2      # E^2
    o0, o1 = n1 * n1 - c0 * n3 * n3, 2 * n1 * n3 - c2 * n3 * n3      # O^2
    return e0 + c0 * o1, e1 - o0 + c2 * o1


def adjugate(fld: FieldDescriptor, n: tuple) -> tuple:
    """(r, N) with n * r = N for a nonzero integer coordinate vector n:
    r is an integer vector and N = norm(n) a nonzero integer.

    With n sigma(n) = a + b alpha^2 (see `_subfield_norm`),
    (a + b alpha^2)(a - b c2 - b alpha^2) = a^2 - a b c2 + b^2 c0 = N,
    so r = sigma(n) (a - b c2 - b alpha^2)."""
    n0, n1, n2, n3 = n
    c2, c0 = fld._c2, fld._c0
    a, b = _subfield_norm(fld, n)
    s = a - b * c2                        # cofactor s - b alpha^2
    norm = a * s + b * b * c0
    # r = (E - alpha O)(s - b alpha^2) with (u + v beta)(s - b beta) =
    # (u s + v b c0) + (v s - u b + v b c2) beta, beta = alpha^2
    r0, r2 = n0 * s + n2 * b * c0, n2 * s - n0 * b + n2 * b * c2
    r1, r3 = n1 * s + n3 * b * c0, n3 * s - n1 * b + n3 * b * c2
    return (r0, -r1, r2, -r3), norm


def charpoly(fld: FieldDescriptor, n: tuple) -> tuple:
    """Characteristic polynomial (low to high, monic, integer) of
    multiplication by the integer coordinate vector n.

    It is the product of X^2 - 2E X + A over the two embeddings of
    Q(alpha^2), where n + sigma(n) = 2E, n sigma(n) = A = a + b alpha^2 and
    the two conjugates of alpha^2 sum to -c2 with product c0."""
    n0, n2 = n[0], n[2]
    c2, c0 = fld._c2, fld._c0
    a, b = _subfield_norm(fld, n)
    e_sum = 2 * n0 - c2 * n2                          # E + E'
    e_prod = n0 * n0 - c2 * n0 * n2 + c0 * n2 * n2    # E E'
    cross = 2 * n0 * a - c2 * (n0 * b + n2 * a) + 2 * c0 * n2 * b  # E A' + E' A
    return (a * a - c2 * a * b + c0 * b * b, -2 * cross,
            2 * a - c2 * b + 4 * e_prod, -2 * e_sum, 1)


class FieldElement:
    """(n0 + n1*alpha + n2*alpha^2 + n3*alpha^3) / d in canonical form."""

    __slots__ = ("field", "_n", "_d")

    def __init__(self, fld: FieldDescriptor, coords: Sequence):
        fs = [Fraction(c) for c in coords]
        d = 1
        for c in fs:
            d = d * c.denominator // gcd(d, c.denominator)
        # d is the lcm of reduced denominators, so the form is canonical
        self.field = fld
        self._n = tuple(c.numerator * (d // c.denominator) for c in fs)
        self._d = d

    @property
    def coords(self) -> tuple:
        """The four rational coordinates over the power basis."""
        d = self._d
        return tuple(Fraction(c, d) for c in self._n)

    # -- ring structure ----------------------------------------------------

    def _check(self, other) -> "FieldElement":
        if other.field is not self.field:
            raise ValueError("field mismatch")
        return other

    def __add__(self, other):
        if isinstance(other, FieldElement):
            o = self._check(other)
            (a0, a1, a2, a3), ad = self._n, self._d
            (b0, b1, b2, b3), bd = o._n, o._d
            if ad == bd:
                return _make(self.field, a0 + b0, a1 + b1, a2 + b2, a3 + b3, ad)
            if gcd(ad, bd) == 1:        # the sum is canonical already
                return _raw(self.field, (a0 * bd + b0 * ad, a1 * bd + b1 * ad,
                                         a2 * bd + b2 * ad, a3 * bd + b3 * ad),
                            ad * bd)
            return _make(self.field, a0 * bd + b0 * ad, a1 * bd + b1 * ad,
                         a2 * bd + b2 * ad, a3 * bd + b3 * ad, ad * bd)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            n, d = self._n, self._d
            if q == 1:                  # an integer shift keeps the form
                return _raw(self.field, (n[0] + p * d,) + n[1:], d)
            return _make(self.field, n[0] * q + p * d, n[1] * q, n[2] * q,
                         n[3] * q, d * q)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        n = self._n
        return _raw(self.field, (-n[0], -n[1], -n[2], -n[3]), self._d)

    def __sub__(self, other):
        if isinstance(other, (FieldElement, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            o = self._check(other)
            return _make(self.field, *_mul_int(self.field, self._n, o._n),
                         self._d * o._d)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            n = self._n
            return _make(self.field, n[0] * p, n[1] * p, n[2] * p, n[3] * p,
                         self._d * q)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(other.denominator, other.numerator)
        if isinstance(other, FieldElement):
            return self * other.inv()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inv(self) -> "FieldElement":
        """Multiplicative inverse: x^-1 = d r / N with (r, N) the
        adjugate of the numerators."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        r, norm = adjugate(self.field, self._n)
        d = self._d
        return _make(self.field, r[0] * d, r[1] * d, r[2] * d, r[3] * d, norm)

    # -- predicates / comparisons -------------------------------------------

    def __bool__(self):
        return any(self._n)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (self.field is other.field and self._n == other._n
                    and self._d == other._d)
        if isinstance(other, (int, Fraction)):
            n = self._n
            return (not (n[1] or n[2] or n[3])
                    and n[0] * other.denominator == other.numerator * self._d)
        return NotImplemented

    def __hash__(self):
        if self.is_rational():          # equal to a rational: hash like one
            return hash(Fraction(self._n[0], self._d))
        return hash((self.field.id, self._n, self._d))

    def is_rational(self) -> bool:
        return not any(self._n[1:])

    def rational_value(self) -> Optional[Fraction]:
        return Fraction(self._n[0], self._d) if self.is_rational() else None

    # -- invariants ----------------------------------------------------------

    def norm(self) -> Fraction:
        """Product of the four conjugates."""
        if not self:
            return Fraction(0)
        return Fraction(adjugate(self.field, self._n)[1], self._d ** 4)

    def in_maximal_order(self) -> bool:
        mat, den = self.field._order_inv
        n, m = self._n, den * self._d
        return all(sum(a * b for a, b in zip(row, n)) % m == 0 for row in mat)

    def __repr__(self):
        sym = "theta" if self.field.id == "K1" else "phi"
        parts = []
        for k, c in enumerate(self.coords):
            if c:
                parts.append(f"{c}" + ("" if k == 0 else f"*{sym}^{k}"))
        return " + ".join(parts) if parts else "0"


K1 = FieldDescriptor(
    id="K1",
    defining_poly=(Fraction(-1), Fraction(0), Fraction(2), Fraction(0), Fraction(1)),
    order_basis=_frac_rows([[1, 0, 0, 0], [0, 1, 0, 0],
                            [0, 0, 1, 0], [0, 0, 0, 1]]),
)

K2 = FieldDescriptor(
    id="K2",
    defining_poly=(Fraction(-4), Fraction(0), Fraction(4), Fraction(0), Fraction(1)),
    order_basis=_frac_rows([[1, 0, 0, 0], [0, 1, 0, 0],
                            [0, 0, Fraction(1, 2), 0],
                            [0, Fraction(1, 2), 0, Fraction(1, 4)]]),
)

# distinguished elements
ETA1 = K1.element(0, 1)                                 # theta
ETA2 = K1.element(2, -3, 1, -1)
ONE_PLUS_THETA = K1.element(1, 1)
EPS1 = K2.element(0, Fraction(1, 2), 0, Fraction(1, 4))
EPS2 = K2.element(2, 2, Fraction(1, 2), Fraction(1, 2))
PI = K2.element(1, Fraction(3, 2), 0, Fraction(1, 4))


def two_factorization_holds(fld: FieldDescriptor) -> bool:
    """Verify the stored factorization of 2 in the given field."""
    if fld.id == "K1":
        return ETA1 ** (-4) * ETA2 ** 2 * ONE_PLUS_THETA ** 4 == 2
    return EPS2 ** (-2) * PI ** 4 == 2


_SPLIT_PRIMES: dict = {}   # field -> its split primes found so far, in order


def split_prime(fld: FieldDescriptor, i: int) -> tuple:
    """The i-th (from 0) odd prime p at which the defining polynomial has
    four distinct roots mod p, as (p, roots).  Each root a gives a ring map
    Z_(p)[alpha] -> F_p, alpha -> a (see `residue`); p does not divide the
    discriminant of the defining polynomial, so Z_(p)[alpha] is the
    integral closure of Z_(p) in the field, and it is F_p^4 mod p.  One
    list per field grows on demand."""
    found = _SPLIT_PRIMES.setdefault(fld, [])
    c2, c0 = fld._c2, fld._c0
    p = found[-1][0] + 2 if found else 3
    while len(found) <= i:
        if all(p % k for k in range(3, isqrt(p) + 1, 2)):
            roots = tuple(a for a in range(p)
                          if (a * a * (a * a + c2) + c0) % p == 0)
            if len(roots) == 4:
                found.append((p, roots))
        p += 2
    return found[i]


def residue(x: FieldElement, p: int, a: int) -> Optional[int]:
    """The image of x in F_p under alpha -> a, a root of the defining
    polynomial mod p; None when x is not integral at that map.  If p^e
    exactly divides the denominator d, the simple root a (p is split) is
    Hensel-lifted mod p^(e+1): x is integral iff p^e divides n(a), with
    image (n(a)/p^e) (d/p^e)^(-1).  For e = 0, p may be a prime power."""
    d, e = x._d, 0
    while d % p == 0:
        d, e = d // p, e + 1
    q, c0, c2 = p ** (e + 1), x.field._c0, x.field._c2
    for _ in range(e):
        a = (a - (a ** 4 + c2 * a * a + c0)
             * pow(4 * a ** 3 + 2 * c2 * a, -1, q)) % q
    n = poly_eval(x._n, a)
    return None if n % p ** e else n // p ** e * pow(d, -1, p) % p


def two_adic_valuation(x: FieldElement) -> int:
    """v_2(N(x)) of a nonzero element: its valuation at the prime above 2,
    (1 + theta) in K1 and pi in K2.  2 is totally ramified in both fields
    (`two_factorization_holds`), so that prime has residue degree 1 and
    v_2(N(x)) is exactly the valuation there."""
    if not x:
        raise ValueError("valuation of zero")
    num, den = x.norm().as_integer_ratio()
    # n & -n is the largest power of 2 dividing n
    return (num & -num).bit_length() - (den & -den).bit_length()


def three_adic_valuation(x: FieldElement) -> Optional[int]:
    """v_3 of a nonzero element (3 is inert in both fields): the minimum
    over coordinates of ord_3(numerator) - ord_3(denominator).  None for 0."""
    if not x:
        return None
    return min(_ord3(c) for c in x._n if c) - _ord3(x._d)


def _ord3(n: int) -> int:
    n = abs(n)
    v = 0
    while n % 3 == 0:
        n //= 3
        v += 1
    return v
