"""Exact arithmetic substrate: perfect-square tests, dense one-variable
polynomials and series, sparse multivariate polynomials, and the
Sylvester resultant of two binary forms.

Everything in this module works over exact coefficient rings (Python ints,
Fractions, or any object supporting +, -, *, bool).  No floats enter here,
except where a caller hands the dense helpers mpf/mpc coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence


def perfect_square_root(n) -> Optional[int]:
    """Return the nonnegative integer square root of n if n is a perfect
    square, else None.  Accepts ints and integral Fractions."""
    if isinstance(n, Fraction):
        if n.denominator != 1:
            return None
        n = n.numerator
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def is_perfect_square(n) -> bool:
    return perfect_square_root(n) is not None


# --- dense one-variable polynomials and series ------------------------------
#
# Coefficient lists, low to high, over any ring whose zero is falsy (ints,
# Fractions, FieldElements, Polys, mpf/mpc).  Unset coefficients are int 0.

def poly_add(a: list, b: list) -> list:
    """a + b."""
    if len(a) < len(b):
        a, b = b, a
    return [c + b[i] if i < len(b) else c for i, c in enumerate(a)]


def poly_scale(a: list, c) -> list:
    """c * a, coefficient by coefficient."""
    return [c * x for x in a]


def poly_mul(a: list, b: list, order: Optional[int] = None) -> list:
    """a * b, with the terms of degree > order dropped; zero coefficients
    of either factor are skipped."""
    n = len(a) + len(b) - 1
    if order is not None:
        n = min(n, order + 1)
    out = [0] * max(n, 0)
    for i, ca in enumerate(a[:n]):
        if ca:
            for j, cb in enumerate(b[:n - i]):
                if cb:
                    out[i + j] += ca * cb
    return out


def _poly_coeff(a: list, b: list, d: int, lo: int = 0):
    """The x^d coefficient of a * b over the a_i with lo <= i < len(a),
    so that a may be a series still being built; zero coefficients of
    either factor are skipped."""
    return sum((a[i] * b[d - i] for i in range(lo, min(d + 1, len(a)))
                if a[i] and b[d - i]), 0)


def poly_diff(a: list) -> list:
    """The derivative a'."""
    return [i * a[i] for i in range(1, len(a))]


def poly_eval(a: list, x):
    """a(x) by Horner's rule."""
    total = 0
    for c in reversed(a):
        total = total * x + c
    return total


class Poly:
    """Sparse multivariate polynomial with a fixed number of variables.

    Terms are stored as a dict mapping exponent tuples to coefficients.
    Coefficients may be ints, Fractions, or any commutative-ring object
    that supports +, -, * and truth-testing (zero is falsy).
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[dict] = None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[tuple(e)] = c

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        return Poly.constant(self.nvars, other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def mul_truncated(self, other: "Poly", d: int) -> "Poly":
        """Product with all terms of total degree > d dropped."""
        other = self._coerce(other)
        right = [(e2, sum(e2), c2) for e2, c2 in other.terms.items()]
        out: dict = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, d2, c2 in right:
                if d1 + d2 > d:
                    continue
                e = tuple([a + b for a, b in zip(e1, e2)])
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.nvars, out)

    def map_coeffs(self, f) -> "Poly":
        return Poly(self.nvars, {e: f(c) for e, c in self.terms.items()})

    def coefficient(self, exponents: Sequence[int]):
        return self.terms.get(tuple(exponents), 0)

    def evaluate(self, values: Sequence):
        """Evaluate at a point; values may live in any ring containing the
        coefficients."""
        total = None
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                for _ in range(k):
                    term = term * v
            total = term if total is None else total + term
        if total is None:
            return 0
        return total

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[e]
            mono = "*".join(f"x{i}^{k}" for i, k in enumerate(e) if k)
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(parts) + ")"


def poly_shift(poly: Poly, shifts: tuple) -> Poly:
    """Substitute x_i -> x_i + shifts[i]."""
    if not any(shifts):
        return poly
    n = poly.nvars
    powers = []       # powers[i][p] = (x_i + shifts[i])^p, built once
    for i in range(n):
        step = Poly.variable(i, n) + Poly.constant(n, shifts[i])
        powers.append([Poly.constant(n, 1)])
        for _ in range(max((e[i] for e in poly.terms), default=0)):
            powers[i].append(powers[i][-1] * step)
    out = Poly(n)
    for e, c in poly.terms.items():
        term = Poly.constant(n, c)
        for i, p in enumerate(e):
            if p:
                term = term * powers[i][p]
        out = out + term
    return out


def poly_mod(poly: Poly, modulus: int) -> Poly:
    """poly with its integer coefficients reduced mod modulus."""
    return Poly(poly.nvars, {e: c % modulus for e, c in poly.terms.items()
                             if c % modulus})


def _det_fractions(m: list) -> Fraction:
    """Determinant of a square matrix of Fractions by fraction-free-ish
    Gaussian elimination (exact)."""
    n = len(m)
    m = [row[:] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def resultant(f: list, g: list) -> Fraction:
    """Sylvester resultant of the binary forms sum f[i] x^i y^(m-i) and
    sum g[i] x^i y^(n-i), with m = len(f) - 1 and n = len(g) - 1.  Zero
    leading coefficients are kept, not trimmed: the resultant vanishes
    exactly when the forms share a zero (x : y) over an algebraic closure,
    (1 : 0) included.  With nonzero leading coefficients it is the
    resultant of the polynomials f and g in x."""
    m, n = len(f) - 1, len(g) - 1
    mat = [[Fraction(0)] * (m + n) for _ in range(m + n)]
    for i in range(n):
        for j, c in enumerate(reversed(f)):
            mat[i][i + j] = Fraction(c)
    for i in range(m):
        for j, c in enumerate(reversed(g)):
            mat[n + i][i + j] = Fraction(c)
    return _det_fractions(mat)
