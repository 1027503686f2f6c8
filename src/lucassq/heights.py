"""Mordell-Weil generator certification: Siksek-style height-difference
bounds, canonical heights by the doubling limit, and an exact search of the
boxes of candidate X-coordinate minimal polynomials.

The caps of the boxes come from certified intervals for hhat: the bound C
(h - 2 hhat <= C) gives the lower end and C' (2 hhat - h <= C') the upper
end, and the generators are doubled only until the floored box ranges at
both ends agree (`height_intervals`, `certify_generators`).  C is built
from an epsilon at each place (Silverman, Math. Comp. 55, 1990): at the
real places and the complex pair, the inverse of the least value of the
objective over a finite candidate set; at pi in K2, 2^(v/4) for the largest
valuation v of g over O_K2 mod 2, read from norms.  The candidates are the
roots of quadratic factors, by the quadratic formula, and of two quartics
at each real place and two octics at the complex pair, seeded by
Durand-Kerner in floats and polished by Newton's method at 45 digits
(`_roots`).  They are mpf values with guard digits, not enclosures.

The box search (`_search_box`) walks each box in blocks of whole prefixes
(every coefficient but the constant term) through a sieve at primes that
split completely in the field, which keeps the rows that are products of
linear factors mod each prime and builds only those, and rebuilds the roots
of each kept row of nonzero discriminant by Hensel lifting from the first
such prime that does not divide it.  `roots_in_field`, behind point
lifting, square roots and halving, finds the roots in the field of any
polynomial over it through the same maps to F_p and the same lifting, so
no floating point enters the box search, lifting or halving; `field_sqrt`
first rejects most non-squares by Euler's criterion at those maps.

`certify_generators` checks E(K) = <gens> + {O, T} on one path for every
rank: no nonzero class of <gens, T> mod 2 halves, which rules out an even
index, and the boxes below the caps hold only small combinations of the
generators and T, which rules out an odd index >= 3 (Siksek, Rocky
Mountain J. Math. 25, 1995).

The local data follow the usual normalization n_nu = [K_nu : Q_nu] with
h(x) = (1/4) sum_nu n_nu log max(1, |x|_nu); equivalently (1/4) log of the
Mahler measure of the primitive degree-4 characteristic polynomial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial, reduce
from math import gcd, lcm, prod
from typing import Optional

import mpmath as mp
import numpy as np

from .curves import (INFINITY, CurveInstance, CurvePoint, add_points,
                     add_torsion, scalar_mul)
from .exact import poly_add, poly_diff, poly_eval, poly_mul, poly_scale
from .fields import (FieldElement, K2, _invert4, adjugate, charpoly,
                     residue, split_prime, two_adic_valuation)

# decimal digits of the height computations; the epsilons, C and the caps
# carry 15 guard digits on top
DIGITS = 30


def _embed(x: FieldElement, root):
    return poly_eval([mp.mpf(c.numerator) / mp.mpf(c.denominator)
                      for c in x.coords], root)


# --- archimedean epsilon -------------------------------------------------------

def _real_fg(curve: CurveInstance, place: int) -> tuple:
    """Coefficient lists (low to high) of f(X) = 4X(X^2+AX+B) and
    g(X) = (X^2-B)^2 at the real place 0 or 1."""
    r = curve.field.roots(DIGITS + 15)[place]
    a, b = _embed(curve.a, r), _embed(curve.b, r)
    return [0, 4 * b, 4 * a, 4], [b * b, 0, -2 * b, 0, 1]


def _complex_fg(curve: CurveInstance) -> tuple:
    """Real-coefficient polynomials F2 = f^s1 f^s2 and
    G = (X^2-B^s1)(X^2-B^s2) at the conjugate pair of places s1, s2."""
    roots = curve.field.roots(DIGITS + 15)
    a1, b1 = _embed(curve.a, roots[2]), _embed(curve.b, roots[2])
    a2, b2 = _embed(curve.a, roots[3]), _embed(curve.b, roots[3])
    # f^s1 * f^s2 = 16 X^2 (X^2+a1X+b1)(X^2+a2X+b2)
    quart = poly_mul([b1, a1, 1], [b2, a2, 1])
    f2 = [16 * c.real for c in [0, 0] + quart]
    g = [c.real for c in poly_mul([-b1, 0, 1], [-b2, 0, 1])]
    return f2, g


def epsilon_archimedean(curve: CurveInstance, place: int) -> mp.mpf:
    """epsilon_nu for place in {0,1} (real) or 2 (complex): inverse of the
    infimum of max(|f|,|g|)/max(1,|X|)^4 over the allowed region."""
    with mp.workdps(DIGITS + 15):
        if place in (0, 1):
            return 1 / _real_infimum(curve, place)
        return 1 / _complex_infimum(curve)


def _real_infimum(curve: CurveInstance, place: int):
    """Infimum of max(|f|, |g|) / max(1, x)^4 over {f >= 0} at a real place:
    f < 0 on x < 0 unless X^2 + AX + B has a real root x < 0, which raises,
    so it is the least value at `_real_candidates`, or the limit 1 as
    x -> oo (g is monic of degree 4 and f has degree 3)."""
    f, g = _real_fg(curve, place)
    if any(x < 0 for x in _quadratic_roots(*f[1:])):
        raise ArithmeticError(
            f"{curve.id}: f >= 0 somewhere on x < 0 at real place {place}")
    return min(mp.mpf(1), *(max(abs(poly_eval(f, x)), abs(poly_eval(g, x)))
                            / max(1, x) ** 4 for x in _real_candidates(f, g)))


def _real_candidates(f, g) -> set:
    """The x >= 0 where max(|f|, |g|) / max(1, x)^4 can be least on
    [0, oo) with f >= 0.  Between its breakpoints (0, the kink 1, the sign
    changes of f and g, and where |f| = |g|) the objective is one of +-f,
    +-g, +-f/x^4 and +-g/x^4, so its minimum is at a breakpoint, at a
    stationary point of a piece (a root of f', g' or x p' - 4p for
    p = f, g), or at infinity.

    With f = 4X(X^2 + AX + B) and g = (X^2 - B)^2, all of these but f -+ g
    factor into X and quadratics: g, x g' - 4g = 4B(X^2 - B) and
    g' = 4X(X^2 - B) vanish at 0 and +-sqrt(B), f at 0 and the roots of
    X^2 + AX + B, x f' - 4f = -4X(X^2 + 2AX + 3B) at 0 and the roots of its
    quadratic, and f' = 4(3X^2 + 2AX + B).  Their roots come from
    `_quadratic_roots`, and those of the quartics f -+ g from `_roots`."""
    a, b = f[2] / 4, f[1] / 4
    xs = [*_quadratic_roots(-b, 0, 1), *_quadratic_roots(b, a, 1),
          *_quadratic_roots(3 * b, 2 * a, 1), *_quadratic_roots(b, 2 * a, 3)]
    for p in (poly_add(f, poly_scale(g, -1)), poly_add(f, g)):
        xs += [r.real for r in _roots(p) if abs(r.imag) < mp.mpf(10) ** -12]
    return {mp.mpf(0), mp.mpf(1),
            *(x for x in xs
              if x >= 0 and poly_eval(f, x) >= -mp.mpf(10) ** (-DIGITS))}


def _complex_infimum(curve: CurveInstance):
    """Least value of the two-piece objective over the roots of the two real
    octics f^2 - g^2 and f^2 + g^2 at the conjugate pair of places, the
    algebraic skeleton of the balancing locus |f| = |g| on which both
    square-root pieces agree in modulus.

    This is not the infimum the bound needs: the pieces are square roots
    of |f^s f^s'(z)| and |g^s g^s'(z)|, products with real coefficients,
    which equal |f^s(z)| and |g^s(z)| only for real z, and the value is
    wrong on nine of the twelve curves (ROADMAP, Direction 1).  It is kept
    unchanged here, since every downstream constant and golden value is
    built on it."""
    f2, g = _complex_fg(curve)
    g2 = poly_mul(g, g)

    def objective(z):
        fz = abs(poly_eval(f2, z)) ** mp.mpf("0.5")
        gz = abs(poly_eval(g, z))
        return max(fz, gz) / max(1, abs(z)) ** 4

    octics = poly_add(f2, poly_scale(g2, -1)), poly_add(f2, g2)
    return min(objective(r) for octic in octics for r in _roots(octic))


def _quadratic_roots(c0, c1, c2) -> list:
    """The real roots of c2 X^2 + c1 X + c0 (mpf or int, c2 != 0), by the
    form of the quadratic formula that does not cancel."""
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    q = -(c1 + mp.sqrt(disc)) / 2 if c1 >= 0 else (mp.sqrt(disc) - c1) / 2
    return [q / c2, c0 / q] if q else [mp.mpf(0)] * 2


NEWTON_STEPS = 20         # Newton steps allowed to polish one root


def _roots(coeffs) -> list:
    """Every complex root (mpc) of a polynomial (coefficients low to high,
    mpf or int, the leading one nonzero) at the working precision.
    Durand-Kerner iteration in Python complex floats gives one seed per
    root, and Newton's method polishes each at mp.dps until its step is
    below 10^(3 - dps) relative.  Raises NoConvergence if a root does not
    converge or two polished roots coincide, since a lost or doubled root
    could hide the minimum."""
    monic = [complex(float(c / coeffs[-1])) for c in coeffs]
    zs = [(1 + max(map(abs, monic[:-1]))) * (0.4 + 0.9j) ** k
          for k in range(len(coeffs) - 1)]
    for _ in range(200):
        steps = [poly_eval(monic, z)
                 / prod(z - w for w in zs[:i] + zs[i + 1:])
                 for i, z in enumerate(zs)]
        zs = [z - d for z, d in zip(zs, steps)]
        if max(abs(d) / max(1, abs(z)) for z, d in zip(zs, steps)) < 1e-12:
            break
    tol, deriv, roots = mp.mpf(10) ** (3 - mp.mp.dps), poly_diff(coeffs), []
    for z in zs:
        r = mp.mpc(z)
        for _ in range(NEWTON_STEPS):
            d = poly_eval(coeffs, r) / poly_eval(deriv, r)
            r -= d
            if abs(d) <= tol * abs(r):
                break
        else:
            raise mp.libmp.NoConvergence(f"Newton's method did not polish {z}")
        roots.append(r)
    if any(abs(r - s) <= mp.sqrt(tol) * abs(r)
           for r, s in itertools.combinations(roots, 2)):
        raise mp.libmp.NoConvergence("two roots coincide")
    return roots


# --- non-archimedean epsilon ----------------------------------------------------

@lru_cache(maxsize=None)
def epsilon_nonarchimedean(curve: CurveInstance) -> mp.mpf:
    """epsilon_pi for K2 curves: 2^(v/4) for the largest valuation v at pi
    of g(x) = (x^2 - B)^2 over O_K2, by a scan of O_K2 mod 2 = pi^4
    (coordinates in [0, 2) over `order_basis`).  If x = x' mod pi^4, then
    x + x' = 2x' + (x - x') has valuation >= 4 too, so x^2 - x'^2 =
    (x - x')(x + x') has valuation >= 8, and v_pi(x^2 - B) is the same on
    the whole class when it is below 8 at one element; the scan raises at
    v >= 12, v_pi >= 6, or at g = 0: no bound.  K1 curves have mu = 0 at
    the finite place and contribute nothing.  Computed once per curve."""
    if curve.field.id != "K2":
        return mp.mpf(1)
    vmax = 0
    basis = [K2.element(*row) for row in K2.order_basis]
    for cs in itertools.product(range(2), repeat=4):
        w = sum(c * e for c, e in zip(cs, basis)) ** 2 - curve.b
        if not w:
            raise ArithmeticError("g vanishes in O_K2; no bound")
        vmax = max(vmax, 2 * two_adic_valuation(w))
        if vmax >= 12:
            raise ArithmeticError("g vanishes to order >= pi^12; no bound")
    with mp.workdps(DIGITS + 15):
        return mp.mpf(2) ** (Fraction(vmax, 4))


# --- the bound C and canonical heights -------------------------------------------

@lru_cache(maxsize=None)
def height_diff_bound(curve_id: str):
    """C with h(P) - 2 hhat(P) <= C, assembled from the mu/n/epsilon data."""
    from .curves import CURVE_BY_ID
    curve = CURVE_BY_ID[curve_id]
    e1, e2, e3 = (epsilon_archimedean(curve, place) for place in range(3))
    epi = epsilon_nonarchimedean(curve)
    with mp.workdps(DIGITS + 15):
        # mu_pi * n_pi = (1/4) * 4; log(epi) = 0 on K1
        total = (mp.log(e1) + mp.log(e2) + 2 * mp.log(e3)) / 3 + mp.log(epi)
        return total / 4, (e1, e2, e3)


def _charpoly_fractions(x: FieldElement) -> list:
    """Exact characteristic polynomial (low-to-high, Fractions, monic) of
    multiplication by x = n / d: charpoly(n)(d X) / d^4."""
    d = x._d
    return [Fraction(c, d ** (4 - k))
            for k, c in enumerate(charpoly(x.field, x._n))]


def naive_height(x: FieldElement, digits: int = 40) -> mp.mpf:
    """(1/4) log Mahler measure of the primitive integer characteristic
    polynomial of x."""
    cp = _charpoly_fractions(x)
    den = 1
    for c in cp:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in cp]
    g = 0
    for c in ints:
        g = gcd(g, c)
    ints = [c // g for c in ints]
    # the charpoly roots are exactly the embeddings of x (with multiplicity
    # if x lies in a subfield), so evaluate those instead of root-finding a
    # quartic whose integer coefficients may be astronomically large
    with mp.workdps(digits):
        total = mp.log(abs(mp.mpf(ints[-1])))
        for root in x.field.roots(digits):
            total += mp.log(max(1, abs(_embed(x, root))))
        return total / 4


def _content(values):
    """gcd of a list of large integers; one full-size gcd, then the rest
    enter through `x mod g`, which is near-linear once g has collapsed."""
    it = iter(values)
    g = abs(next(it))
    for v in it:
        if g == 1:
            return 1
        g = gcd(g, abs(v) % g if abs(v) > g > 0 else abs(v))
    return g or 1


@lru_cache(maxsize=None)
def height_upper_bound(curve_id: str) -> mp.mpf:
    """C' with 2 hhat(P) - h(P) <= C' for every point P.

    The duplication map x(2Q) = g(x) / f(x), f = 4x^3 + 4Ax^2 + 4Bx and
    g = (x^2 - B)^2, gives h(x(2Q)) <= 4 h(x(Q)) + D with
    D = (1/4) sum_nu n_nu log sup_nu max(|f(x)|, |g(x)|) / max(1, |x|)^4,
    and summing over repeated doubling 2 hhat - h <= D / 3 = C'.  At each
    embedding sigma every monomial of f or g of degree <= 4 is at most
    max(1, |x|)^4 in absolute value, so the sup is at most
    max(sum |sigma f_i|, sum |sigma g_i|) = max(4 + 4|A| + 4|B|, (1 + |B|)^2).
    At a finite place it is at most 1 when A and B lie in the maximal
    order, which is checked exactly.  The logarithms carry 15 guard digits,
    and C' is rounded up by 10^-DIGITS."""
    from .curves import CURVE_BY_ID
    curve = CURVE_BY_ID[curve_id]
    if not (curve.a.in_maximal_order() and curve.b.in_maximal_order()):
        raise ArithmeticError(
            f"{curve_id}: A or B is not integral; no finite-place bound")
    with mp.workdps(DIGITS + 15):
        total = mp.mpf(0)
        for root in curve.field.roots(DIGITS + 15):
            a, b = abs(_embed(curve.a, root)), abs(_embed(curve.b, root))
            total += mp.log(max(4 + 4 * a + 4 * b, (1 + b) ** 2))
        return total / 12 + mp.mpf(10) ** -DIGITS


def _doublings(curve: CurveInstance, pt: CurvePoint):
    """The X-coordinates of 2^m P for m = 0, 1, ..., as (u, w) with x = u/w,
    u an integral field element and w a positive integer.  The stream ends
    at the first 2^m P of order 2.  It yields coordinates rather than
    heights so that `canonical_height` computes only the height it returns.

    Doubling uses the x-only duplication map x(2Q) = (x^2-B)^2 /
    (4x(x^2+Ax+B)) in a cleared-denominator representation x = u/w; exact
    Fraction arithmetic on the raw coordinates spends almost all of its
    time in gcd normalization once the coordinates exceed a few thousand
    digits, whereas the integer form only needs one gcd reduction per
    doubling.
    """
    fld = pt.x.field
    s = curve.a._d * curve.b._d // gcd(curve.a._d, curve.b._d)
    a = curve.a * s
    b = curve.b * s
    u, w = fld.integral(pt.x._n), pt.x._d
    while True:
        yield u, w
        u2 = u * u
        w2 = w * w
        num = u2 * s - b * w2
        num = num * num
        den = u * (u2 * s + a * u * w + b * w2)
        if not den:
            return            # hit the 2-torsion point
        r, norm = adjugate(fld, den._n)
        ucoords = (num * fld.integral(r))._n
        w = norm * 4 * s * w
        g = _content((w,) + ucoords)
        if w < 0:
            g = -g
        u = fld.integral(c // g for c in ucoords)
        w //= g


def _scaled_height(u: FieldElement, w: int, m: int) -> mp.mpf:
    """h(u / w) / (2*4^m), at DIGITS + 2m digits."""
    fld = u.field
    digits = DIGITS + 2 * m
    cp = charpoly(fld, u._n)
    scaled = [cp[k] * w ** k for k in range(5)]
    lead = w ** 4 // _content(scaled)
    with mp.workdps(digits):
        total = mp.log(abs(mp.mpf(lead)))
        winv = 1 / mp.mpf(w)
        for root in fld.roots(digits):
            total += mp.log(max(1, abs(_embed(u, root) * winv)))
        return total / (8 * 4 ** m)


def canonical_height(curve: CurveInstance, pt: CurvePoint,
                     tol: float = 1e-6) -> mp.mpf:
    """hhat(P) = h(x(2^m P)) / (2*4^m) + O(C / (2*4^m)); m chosen from the
    certified bound C so the tail is below tol."""
    if pt.at_infinity:
        return mp.mpf(0)
    C, _ = height_diff_bound(curve.id)
    m = 0
    while float(C) / (2 * 4 ** m) >= tol:
        m += 1
    x = next(itertools.islice(_doublings(curve, pt), m, None), None)
    if x is None:
        return mp.mpf(0)      # P is torsion
    return _scaled_height(*x, m)


def height_intervals(curve: CurveInstance, points: list):
    """Yields (m, [(lo, hi) for each point]) for m = 0, 1, ...: intervals
    that contain hhat of the points after m doublings.

    With v_m = h(x(2^m P)) / (2*4^m) and hhat(2^m P) = 4^m hhat(P), the
    bounds h - 2 hhat <= C and 2 hhat - h <= C' at 2^m P put hhat(P) in
    [v_m - C / (2*4^m), v_m + C' / (2*4^m)]."""
    C, _ = height_diff_bound(curve.id)
    Cp = height_upper_bound(curve.id)
    streams = [_doublings(curve, p) for p in points]
    for m in itertools.count():
        out = []
        for stream in streams:
            x = next(stream, None)
            v = mp.mpf(0) if x is None else _scaled_height(*x, m)
            out.append((v - C / (2 * 4 ** m), v + Cp / (2 * 4 ** m)))
        yield m, out


# --- candidate enumeration -------------------------------------------------------

@dataclass(frozen=True)
class CandidateShape:
    tag: str
    multipliers: tuple        # coefficient of each box variable in the poly
    bound_factors: tuple      # range k: floor(factor * B^(k+1) / multiplier)
    parities: tuple = ()      # (index, modulus, residue)
    denominator: int = 1      # trailing coefficient divided by this


def candidate_shapes(curve: CurveInstance) -> list:
    """Integer coefficient boxes for minimal polynomials of x(Q), H(Q) < B.
    Degree-4 Weil bounds |a_i| < (4,6,4,1) B^i specialize per field."""
    shapes = [
        CandidateShape("quartic", (4, 2, 4, 1), (4, 6, 4, 1)),
        CandidateShape("quadratic", (2, 1), (2, 1)),
        CandidateShape("linear", (1,), (1,)),
    ]
    if curve.field.id == "K1":
        # x = u/(1+theta)^2 with u = 1 mod (1+theta)
        shapes.append(CandidateShape(
            "quartic-halfint", (4, 1, 2, 1), (4, 6, 4, 4),
            parities=((1, 2, 1), (3, 2, 1)), denominator=4))
        shapes.append(CandidateShape(
            "quadratic-halfint", (2, 1), (2, 4),
            parities=((1, 4, 3),), denominator=4))
    return shapes


def shape_ranges(shape: CandidateShape, B) -> list:
    return [int(mp.floor(mp.mpf(fac) * mp.mpf(B) ** (k + 1) / mult))
            for k, (mult, fac) in enumerate(zip(shape.multipliers,
                                                shape.bound_factors))]


# --- split primes: exact arithmetic mod p ----------------------------------------------

SIEVE_PRIMES = 8          # split primes of the box sieve

# Every root x of a box row has 4x integral (4^d g(X/4) has integer
# coefficients when g is monic with coefficients in (1/4)Z), and the maximal
# order of either field lies in (1/4)Z[alpha], so 16x has integer coordinates.
DENOMINATOR = 16


def _dtype(q: int):
    """Residues mod q: int64 while products of two stay below 2^62."""
    return np.int64 if q < 1 << 31 else object


def _values_mod(c: np.ndarray, r, m: int) -> np.ndarray:
    """Values mod m of the polynomials with coefficient rows c (high to low,
    leading coefficient included) at r, which broadcasts against a column
    per row: one array of residues for every row, or a column per row."""
    val = np.zeros(np.broadcast_shapes((len(c), 1), np.shape(r)), dtype=c.dtype)
    for k in range(c.shape[1]):
        val = (val * r + c[:, k:k + 1]) % m
    return val


def _derivative_rows(c: np.ndarray) -> np.ndarray:
    """The coefficient rows (as in `_values_mod`) of the derivatives."""
    return c[:, :-1] * np.arange(c.shape[1] - 1, 0, -1)


def _monic_rows(c: np.ndarray) -> np.ndarray:
    """Coefficient rows below a leading 1 with the 1 put in front."""
    return np.hstack([np.ones_like(c[:, :1]), c])


def _zeros_mod_p(c: np.ndarray, p: int) -> np.ndarray:
    """(rows, p) mask of the residues at which monic polynomials mod p
    vanish.  Row k of c holds the coefficients below the leading 1, high
    to low."""
    return _values_mod(_monic_rows(c), np.arange(p), p) == 0


def _disc_formula(c: np.ndarray) -> np.ndarray:
    """The discriminants of monic polynomials of degree 1, 2 or 4 from their
    coefficient rows (as in `_zeros_mod_p`), exact for object arrays."""
    d = c.shape[1]
    if d == 1:
        return np.ones(len(c), dtype=c.dtype)
    if d == 2:
        b, e = c.T
        return b * b - 4 * e
    b, a, f, e = c.T                      # X^4 + b X^3 + a X^2 + f X + e
    return (256 * e**3 - 192 * b * f * e**2 - 128 * a**2 * e**2
            + 144 * a * f**2 * e - 27 * f**4 + 144 * b**2 * a * e**2
            - 6 * b**2 * f**2 * e - 80 * b * a**2 * f * e + 18 * b * a * f**3
            + 16 * a**4 * e - 4 * a**3 * f**2 - 27 * b**4 * e**2
            + 18 * b**3 * a * f * e - 4 * b**3 * f**3 - 4 * b**2 * a**3 * e
            + b**2 * a**2 * f**2)


def _fibre_counts(head: np.ndarray, p: int) -> np.ndarray:
    """For the prefixes h = X^d + head[k, 0] X^(d-1) + ... + head[k, d-2] X
    mod p: entry [k, t] counts with multiplicity the roots in F_p of h - t,
    the r with h(r) = t.  As p > d, Taylor's formula makes the multiplicity
    of r one plus the number of leading derivatives h', h'', ... that
    vanish at r (h - t has the same ones).  h and h' are evaluated at every
    r, each higher derivative only where the lower ones vanish, and a
    bincount covers every t at once."""
    n, d = len(head), head.shape[1] + 1
    if p >= 1 << 12:
        raise ValueError(f"{p}: the uint32 values need p < 2^12")
    c = _monic_rows(np.hstack([head % p, np.zeros((n, 1), dtype=np.int64)]))
    # rows r^d, ..., r^0: each value below is a sum of at most d + 1 terms
    # below d p^2, so exact in float64 and below 2^32
    powers = (np.arange(p) ** np.arange(d, -1, -1)[:, None] % p).astype(float)
    bins = ((c @ powers).astype(np.uint32) % p + p * np.arange(n)[:, None]).ravel()
    total = np.bincount(bins, minlength=n * p)
    c = _derivative_rows(c)
    at = np.flatnonzero((c @ powers[1:]).astype(np.uint32) % p == 0)
    while len(at):                         # the d-th derivative is d! != 0
        np.add.at(total, bins[at], 1)
        c = _derivative_rows(c)
        rows, roots = divmod(at, p)
        at = at[_values_mod(c[rows], roots[:, None], p)[:, 0] == 0]
    return total.reshape(n, p)


@lru_cache(maxsize=None)
def _dual_norm(fld) -> Fraction:
    """An exact bound on max_i |coordinate i of x| / max_sigma |sigma(x)|.

    The coordinates of x are T^-1 t, with T = (Tr alpha^(i+k)) the trace
    matrix of the power basis and t_k = Tr(x alpha^k), and
    |t_k| <= 4 max|sigma(x)| rho^k for rho = 1 + max|c_k|, the Cauchy bound
    on the roots of the defining polynomial."""
    alpha = fld.element(0, 1)
    traces = [-_charpoly_fractions(alpha ** m)[3] for m in range(7)]
    tinv = _invert4([[traces[i + k] for k in range(4)] for i in range(4)])
    rho = 1 + max(abs(c) for c in fld.defining_poly[:-1])
    return max(sum(abs(t) * 4 * rho ** k for k, t in enumerate(row))
               for row in tinv)


def _coordinate_bound(fld, top) -> int:
    """A bound on DENOMINATOR * coordinates of the roots of monic polynomials
    with |sigma(c)| <= top for c below the leading 1: Cauchy's 1 + top times
    `_dual_norm`."""
    return int(DENOMINATOR * (1 + top) * _dual_norm(fld))


def _hensel_modulus(p: int, bound: int) -> int:
    """The least power q of p with q > 2 * bound, so that symmetric residues
    mod q determine integers of absolute value at most bound."""
    q = p
    while q <= 2 * bound:
        q *= p
    return q


def _derivative_mod(c: np.ndarray, roots: np.ndarray, p: int) -> np.ndarray:
    """h'(r) mod p for the monic polynomials h with coefficient rows c (as
    in `_zeros_mod_p`) at the entries r of the matching rows of roots."""
    return _values_mod(_derivative_rows(_monic_rows(c)), roots, p)


def _hensel(c: np.ndarray, roots: np.ndarray, p: int, q: int) -> np.ndarray:
    """Lift simple roots mod p of monic polynomials to roots mod q = p^k,
    one digit per step: r <- r - p^j (h(r) / p^j) / h'(r) mod p^(j+1).
    Row k of c holds the integer coefficients of a polynomial (as in
    `_zeros_mod_p`), and row k of roots any number of its simple roots
    mod p."""
    dt = _dtype(q)
    c, roots = np.asarray(c, dtype=dt) % q, np.asarray(roots, dtype=dt)
    inverse = np.array([0] + [pow(a, -1, p) for a in range(1, p)],
                       dtype=np.int64)
    u = inverse[_derivative_mod(c, roots, p).astype(np.int64)]
    c, pj = _monic_rows(c), p
    while pj < q:
        val = _values_mod(c, roots, q)
        roots = (roots - pj * ((val // pj) % p * u % p)) % q
        pj *= p
    return roots


@lru_cache(maxsize=None)
def _maps_mod(fld, prime: tuple, q: int) -> tuple:
    """The maps alpha -> a_j of the split prime (p, roots), lifted to mod q."""
    p, roots = prime
    f = np.array([[int(c) for c in fld.defining_poly[-2::-1]]])
    return tuple(int(a) for a in _hensel(f, np.array([roots]), p, q)[0])


@lru_cache(maxsize=None)
def _inverse_vandermonde_mod(fld, prime: tuple, q: int) -> np.ndarray:
    """W = DENOMINATOR * V^-1 mod q, V = (a_j^i)_(j,i) for the maps a_j of
    `_maps_mod`: W @ (x(a_1), ..., x(a_4)) = DENOMINATOR * coordinates of
    x.  det V = prod (a_k - a_j) is a unit mod p, the a_j being distinct."""
    inv = _invert4([[Fraction(a ** i) for i in range(4)]
                    for a in _maps_mod(fld, prime, q)])
    return np.array([[DENOMINATOR * c.numerator * pow(c.denominator, -1, q) % q
                      for c in row] for row in inv], dtype=_dtype(q))


def _coordinates(fld, prime: tuple, q: int, vals: np.ndarray) -> np.ndarray:
    """DENOMINATOR times the coordinates, as symmetric residues mod q, of
    the elements whose images at the four maps of the split prime are
    vals[..., j] mod q (the last axis runs over the maps, dtype `_dtype`)."""
    w = _inverse_vandermonde_mod(fld, prime, q)
    nums = sum(vals[..., j, None] * w[:, j] % q for j in range(4)) % q
    return np.where(nums > q // 2, nums - q, nums)


# --- roots in the field and point lifting ------------------------------------------

def _poly_divmod(a: list, b: list) -> tuple:
    """Quotient and remainder (low to high) of a by b, over the field."""
    a, quo, inv = list(a), [], b[-1].inv()
    while len(a) >= len(b):
        lead = a.pop() * inv
        shift = len(a) - len(b) + 1
        for k, c in enumerate(b[:-1]):
            a[shift + k] -= lead * c
        quo.append(lead)
    while a and not a[-1]:
        a.pop()
    return quo[::-1], a


def _squarefree(f: list) -> list:
    """The monic squarefree part f / gcd(f, f') of a polynomial of positive
    degree over the field (low to high), by Euclid."""
    a, b = f, poly_diff(f)
    while len(b) > 1:
        a, b = b, _poly_divmod(a, b)[1]
    f = f if b else _poly_divmod(f, a)[0]
    inv = f[-1].inv()
    return [c * inv for c in f]


def roots_in_field(fld, coeffs) -> list:
    """The roots in the field of the polynomial with coefficients `coeffs`
    (low to high, rationals or elements of fld), found exactly.

    With f its monic squarefree part of degree n and D the lcm of the
    denominators of f, the roots y = D x of G(X) = D^n f(X / D) are
    integral, so at each map alpha -> a of a split prime they reduce to
    roots of G mod p (see `_search_box`): none at some map means no root.
    At the first split prime where all those roots are simple they are
    Hensel-lifted past twice the bound on DENOMINATOR * coordinates of y
    (`_coordinate_bound`), each choice of one root per map goes
    through `_coordinates`, and the exact roots within the bound are kept."""
    cs = [c if isinstance(c, FieldElement) else fld.element(c) for c in coeffs]
    while len(cs) > 1 and not cs[-1]:
        cs.pop()
    if len(cs) == 1:
        return []
    f = _squarefree(cs)
    if len(f) == 2:
        return [-f[0]]
    n, scale = len(f) - 1, lcm(*(c._d for c in f))
    g = [c * scale ** (n - k) for k, c in enumerate(f)][-2::-1]  # high to low
    rho = 1 + max(abs(c) for c in fld.defining_poly[:-1])      # |sigma(alpha)|
    top = max(sum(abs(v) * rho ** i for i, v in enumerate(c._n)) for c in g)
    bound = _coordinate_bound(fld, top)
    for i in itertools.count():
        p, maps = prime = split_prime(fld, i)
        c = np.array([[residue(x, p, a) for x in g] for a in maps])
        rows, roots = np.nonzero(_zeros_mod_p(c, p))
        if not np.bincount(rows, minlength=4).all():
            return []
        if _derivative_mod(c[rows], roots[:, None], p).all():
            break
    q = _hensel_modulus(p, bound)
    c = np.array([[residue(x, q, a) for x in g]
                  for a in _maps_mod(fld, prime, q)], dtype=_dtype(q))
    lifted = _hensel(c[rows], roots[:, None], p, q)[:, 0]
    choices = np.array(list(itertools.product(
        *(lifted[rows == j] for j in range(4)))), dtype=_dtype(q))
    xs = (fld.element(*(Fraction(int(k), DENOMINATOR * scale) for k in v))
          for v in _coordinates(fld, prime, q, choices)
          if (np.abs(v) <= bound).all())
    return [x for x in xs if not poly_eval(cs, x)]


def field_sqrt(fld, w: FieldElement) -> Optional[FieldElement]:
    """Exact square root of w in the field, if one exists.

    Euler's criterion first: if w = y^2 and w is integral at a map
    alpha -> a of a split prime p, then so is y, and residue(y)^2 =
    residue(w).  So w is no square when, at some map of the first
    SIEVE_PRIMES split primes, its residue is a nonzero non-residue mod p;
    `roots_in_field` decides the rest."""
    if not w:
        return fld.zero()
    for p, maps in (split_prime(fld, i) for i in range(SIEVE_PRIMES)):
        if any(r and pow(r, (p - 1) // 2, p) == p - 1
               for r in (residue(w, p, a) for a in maps)):
            return None
    roots = roots_in_field(fld, [-w, 0, 1])
    return roots[0] if roots else None


def lift_x_to_point(curve: CurveInstance, x: FieldElement) -> Optional[CurvePoint]:
    w = x * (x * x + curve.a * x + curve.b)
    y = field_sqrt(curve.field, w)
    if y is None:
        return None
    return CurvePoint(x, y)


def _duplication_quartic(curve: CurveInstance, xp: FieldElement) -> list:
    """x^4 - 4 x_P x^3 - (2B + 4A x_P) x^2 - 4B x_P x + B^2 (low to high),
    whose roots are the x(Q) with 2Q = P."""
    A, B = curve.a, curve.b
    return [B * B, -4 * B * xp, -(2 * B + 4 * A * xp), -4 * xp, 1]


def halving_candidates(curve: CurveInstance, pt: CurvePoint) -> list:
    """Points Q with 2Q = pt, found through the duplication quartic."""
    if pt.at_infinity:
        raise ValueError("finite point required")
    out = []
    for x in roots_in_field(curve.field, _duplication_quartic(curve, pt.x)):
        q = lift_x_to_point(curve, x)
        if q is None:
            continue
        for cand in (q, -q):
            if add_points(curve, cand, cand) == pt and cand not in out:
                out.append(cand)
    return out


# --- certification ------------------------------------------------------------------

@dataclass
class HeightCertificate:
    curve_id: str
    epsilons: dict
    bound_c: float
    bound_c_upper: float      # C' with 2 hhat - h <= C'
    doublings: int            # m at which the box ranges were decided
    ranges_decided: bool      # False: still undecided at MAX_DOUBLINGS
    height_intervals: dict    # point name -> [lo, hi] containing hhat
    gen_heights: list         # upper endpoints the caps are built from
    cap_b: float
    shapes: list
    survivors: list           # exact X-coordinates (FieldElements)
    survivor_names: list
    conclusion: str
    extra: dict = field(default_factory=dict)


# --- the box sieve -------------------------------------------------------------------

BOX_BLOCK_ROWS = 1 << 16  # box rows per block of whole prefixes


def _prefix_blocks(shape: CandidateShape, B):
    """The rows of the shape's box (integer tuples within shape_ranges that
    meet its parities) in blocks (head, tail) of whole prefixes: each row
    of head followed by each constant term in tail, in lexicographic
    order.  A block holds at most BOX_BLOCK_ROWS rows, or one prefix, so
    that memory does not grow with the box."""
    axes = [np.arange(-r, r + 1, dtype=np.int64) for r in shape_ranges(shape, B)]
    for idx, modulus, rem in shape.parities:
        axes[idx] = axes[idx][axes[idx] % modulus == rem]
    *axes, tail = axes
    heads = list(itertools.product(*axes))
    head = np.array(heads, dtype=np.int64).reshape(len(heads), len(axes))
    step = max(1, BOX_BLOCK_ROWS // len(tail))
    for start in range(0, len(head), step):
        yield head[start:start + step], tail


def _shape_fractions(shape: CandidateShape) -> tuple:
    """(multipliers, denominators): row entry k times multipliers[k] over
    denominators[k] is the coefficient of X^(d-1-k) of the row's monic
    polynomial."""
    d = len(shape.multipliers)
    return (np.array(shape.multipliers, dtype=np.int64),
            (1,) * (d - 1) + (shape.denominator,))


def _monic_mod(num: np.ndarray, den: tuple, m: int) -> np.ndarray:
    """num[:, k] / den[k] mod m (m coprime to every den[k]): the
    coefficients below the leading 1, high to low, of monic polynomials."""
    return np.asarray(num, dtype=_dtype(m)) % m * [pow(v, -1, m) for v in den] % m


def _sieve(fld, head: np.ndarray, tail: np.ndarray, den: tuple) -> tuple:
    """(prefix indices, constant indices) of the rows of the block
    head x tail that every sieve prime keeps, in lexicographic order.  Row
    (j, k) is the monic g = h + e of degree d with coefficients
    (head[j], tail[k]) / den below the leading 1 (as in `_monic_mod`).  At
    each p, g is kept when its roots in F_p, the r with h(r) = -e, number d
    with multiplicity (`_fibre_counts`): g is a product of linear factors.
    Only the prefixes with a row still kept are counted."""
    d = head.shape[1] + 1
    keep = np.ones((len(head), len(tail)), dtype=bool)
    for i in range(SIEVE_PRIMES):
        p, _ = split_prime(fld, i)
        t = -_monic_mod(tail[:, None], den[-1:], p)[:, 0] % p   # h(r) = -e
        live = np.flatnonzero(keep.any(axis=1))
        total = _fibre_counts(_monic_mod(head[live], den[:-1], p), p)
        keep[live] &= total[:, t] == d
    return np.nonzero(keep)


def _kept_rows(fld, shape: CandidateShape, B) -> np.ndarray:
    """The rows of the shape's box that `_sieve` keeps, in lexicographic
    order."""
    mult, den = _shape_fractions(shape)
    rows = []
    for head, tail in _prefix_blocks(shape, B):
        pre, col = _sieve(fld, head * mult[:-1], tail * mult[-1], den)
        rows.append(np.hstack([head[pre], tail[col, None]]))
    return np.concatenate(rows)


def _discriminant(num: np.ndarray, den: tuple) -> np.ndarray:
    """Exact discriminants, up to a nonzero factor, of the monic polynomials
    g = num / den: those of the integer monic G(X) = D^d g(X / D), D the
    largest of den (a multiple of the others).  The factor D^(d(d-1)) is a
    power of 2, so an odd prime divides disc(G) exactly when it divides
    disc(g): exactly when g mod p has a repeated root."""
    top = max(den)
    return _disc_formula(num.astype(object)
                         * [top ** (k + 1) // v for k, v in enumerate(den)])


def _reconstruction_index(fld, disc: np.ndarray) -> np.ndarray:
    """For each nonzero `_discriminant`, the index i of the first split
    prime `split_prime(fld, i)` that does not divide it."""
    at = np.full(len(disc), -1)
    for i in itertools.count():
        if (at >= 0).all():
            return at
        at[(at < 0) & (disc % split_prime(fld, i)[0] != 0)] = i


def _assignments(d: int) -> np.ndarray:
    """The ways to assign the d roots mod p of a minimal polynomial g of
    degree d to the four maps: the characteristic polynomial g^(4/d)
    splits mod p as prod_j (X - x(a_j)), so each root is taken 4/d times."""
    return np.array(sorted(set(itertools.permutations(
        [r for r in range(d) for _ in range(4 // d)]))), dtype=np.int64)


def _reconstruct(fld, prime: tuple, q: int, c: np.ndarray) -> tuple:
    """(split, coordinates) for monic polynomials g of degree d with
    coefficients c mod q (as in `_zeros_mod_p`): split marks those with d
    distinct roots mod p, and coordinates holds DENOMINATOR times the
    coordinates, as symmetric residues mod q, of every assignment of their
    roots to the four maps of the split prime (p, roots); shape (split
    polynomials, assignments, 4).  Every x in the field whose characteristic
    polynomial is such a g^(4/d) appears, provided q > 2 * DENOMINATOR *
    max|coordinate of x|."""
    p, d = prime[0], c.shape[1]
    zeros = _zeros_mod_p(c % p, p)
    split = zeros.sum(axis=1) == d
    roots = _hensel(c[split], np.nonzero(zeros[split])[1].reshape(-1, d), p, q)
    return split, _coordinates(fld, prime, q, roots[:, _assignments(d)])


def _vanishes_mod(prime: tuple, c: np.ndarray, nums: np.ndarray) -> np.ndarray:
    """Mask of the rows r with g_r(x_r) = 0 mod p at all four maps of the
    split prime (p, roots), for the monic g_r with coefficient rows c mod p
    (as in `_zeros_mod_p`) and x_r with DENOMINATOR times coordinates
    nums[r].  It holds when g_r is the minimal polynomial of x_r: p is odd,
    so x_r is integral at p."""
    p, maps = prime
    powers = np.array([[a ** i % p for a in maps] for i in range(4)], dtype=np.int64)
    images = (nums % p).astype(np.int64) @ powers * pow(DENOMINATOR, -1, p) % p
    return (_values_mod(_monic_rows(c), images, p) == 0).all(axis=1)


def _box_elements(fld, shape: CandidateShape, B) -> list:
    """(row, x) for every x in the field whose minimal polynomial is a row
    of the shape's box (see `_search_box`)."""
    mult, den = _shape_fractions(shape)
    rows = _kept_rows(fld, shape, B)
    disc = _discriminant(rows * mult, den)
    rows, disc = rows[disc != 0], disc[disc != 0]   # else no minimal polynomial
    at = _reconstruction_index(fld, disc)
    top = max(Fraction(int(m) * r, v) for m, r, v in
              zip(mult, shape_ranges(shape, B), den))
    bound = _coordinate_bound(fld, top)
    found = []
    for i in np.unique(at):
        prime = split_prime(fld, i)
        q = _hensel_modulus(prime[0], bound)
        group = rows[at == i]
        split, nums = _reconstruct(fld, prime, q, _monic_mod(group * mult, den, q))
        group = group[split]        # squarefree mod p, so the others do not split
        r, k = np.nonzero((np.abs(nums) <= bound).all(axis=2))
        check = split_prime(fld, i + 1)
        ok = _vanishes_mod(check, _monic_mod(group[r] * mult, den, check[0]), nums[r, k])
        for r, k in zip(r[ok], k[ok]):
            x = fld.element(*(Fraction(int(n), DENOMINATOR) for n in nums[r, k]))
            want = reduce(poly_mul, [_row_poly(shape, group[r])] * (4 // len(mult)))
            if _charpoly_fractions(x) == want:   # so the row is its minimal polynomial
                found.append((group[r], x))
    return found


def _row_poly(shape: CandidateShape, row) -> list:
    """The monic polynomial (low to high, Fractions) of a box row."""
    mult, den = _shape_fractions(shape)
    return [Fraction(int(m * c), v) for m, c, v in zip(mult, row, den)][::-1] + [Fraction(1)]


def _search_box(curve: CurveInstance, B) -> list:
    """The X-coordinates of the points of the curve whose minimal polynomial
    is a row of the box, for cap B, of a candidate shape of its degree:
    {x in K : minpoly(x) is such a row, and x lifts to a point}, as
    (shape tag, row, x) by shape, then by the reconstruction prime of the
    row, then by row: an order that does not depend on B.

    Sieve.  Each shape's box is walked in blocks of whole prefixes and
    tested at the first SIEVE_PRIMES split primes p (`split_prime`).  A
    row g of degree d is dropped when, at some such p, g mod p is not a
    product of linear factors (`_sieve`).  That is sound for the
    minimal polynomial g of any x in K: x lies in Z_(p)[alpha] (its
    coordinates are in (1/16)Z), whose reduction mod p is F_p^4 through the
    four maps alpha -> a_j, so g^(4/d), the characteristic polynomial of
    x, is prod_j (X - x(a_j)) mod p.  The sieve only filters: the same
    test is made again where each row is rebuilt.

    Reconstruction.  A row with exact discriminant 0 is no minimal
    polynomial; any other is rebuilt at its reconstruction prime, the first
    split prime p that does not divide its discriminant, where g is
    squarefree: a product of linear factors exactly when it has d distinct
    roots mod p.  These are Hensel-lifted to p^k > 2 * 16 * (a bound on the
    coordinates of any root of a row, `_coordinate_bound`), every
    assignment of them to the four maps is sent to 16 times coordinates by
    the inverse Vandermonde matrix mod p^k, and symmetric residues within
    the bound are kept when the characteristic polynomial of the element
    is exactly g^(4/d), which makes g its minimal polynomial.  Before that
    Fraction check, a residue vector is dropped unless g(x) = 0 at the four
    maps of the next split prime (`_vanishes_mod`), which holds when g is
    the minimal polynomial of x.  No float is used."""
    return [(shape.tag, row, x) for shape in candidate_shapes(curve)
            for row, x in _box_elements(curve.field, shape, B)
            if lift_x_to_point(curve, x) is not None]


def _labels(curve: CurveInstance) -> list:
    """The names of the generators: G at rank 1, else P1, P2, ..."""
    return ["G"] if curve.rank == 1 else [f"P{i}" for i in
                                          range(1, curve.rank + 1)]


def _names_for_survivors(curve: CurveInstance, survivors):
    """Match survivor X-coordinates against the combinations of the stored
    generators with coefficients in [-2, 2], plus torsion."""
    combos, labels = {}, _labels(curve)
    for ms in itertools.product(range(-2, 3), repeat=curve.rank):
        name = "+".join(f"{m}{g}" for m, g in zip(ms, labels))
        p = reduce(partial(add_points, curve),
                   (scalar_mul(curve, m, g) for m, g in zip(ms, curve.gens)))
        combos[name] = p
        combos[name + "+T"] = add_torsion(curve, p)
    return [next((name for name, p in combos.items()
                  if not p.at_infinity and p.x == x), None) for x in survivors]


def _named_survivors(curve: CurveInstance, box: list, B, what: str) -> tuple:
    """The survivors for cap B, kept from box, the `_search_box` of a cap
    >= B, by their rows (`shape_ranges` grows with the cap), and their
    names; raise if one of them is not a small combination of the
    generators and torsion."""
    ranges = dict(_ranges(curve, B))
    survivors = [x for tag, row, x in box if (abs(row) <= ranges[tag]).all()]
    names = _names_for_survivors(curve, survivors)
    if None in names:
        bad = survivors[names.index(None)]
        raise ArithmeticError(
            f"{curve.id}: {what} found unexplained point X = {bad.coords}")
    return survivors, names


# Doublings after which box ranges that are still undecided are taken at the
# upper endpoints of the height intervals: sound, but a box may be larger
# than the limit's.
MAX_DOUBLINGS = 8


def _ranges(curve: CurveInstance, cap) -> list:
    return [(s.tag, shape_ranges(s, cap)) for s in candidate_shapes(curve)]


def _decided_caps(curve: CurveInstance, points: list) -> tuple:
    """Double the points until the floored box ranges of every cap are
    decided.

    `_cap_bounds` gives, from the points' hhat intervals, the height bounds
    b of the caps e^(C + 2b) at the lower (end = 0) or upper (end = 1)
    endpoints; each b grows with every height.  At the first m where both
    ends give the same ranges, these are the ranges of the limit.  Returns
    (m, intervals, upper bounds, decided)."""
    C, _ = height_diff_bound(curve.id)
    for m, iv in height_intervals(curve, points):
        lower, upper = ([_ranges(curve, mp.e ** (C + 2 * b))
                         for b in _cap_bounds(iv, end)] for end in (0, 1))
        if lower == upper or m == MAX_DOUBLINGS:
            return m, iv, _cap_bounds(iv, 1), lower == upper


def _pairing_interval(iv) -> tuple:
    """<P1, P2> = hhat(P1 + P2) - hhat(P1) - hhat(P2) from the intervals of
    P1, P2 and P1 + P2."""
    (l1, u1), (l2, u2), (l12, u12) = iv
    return l12 - u1 - u2, u12 - l1 - l2


def _cap_bounds(iv, end) -> list:
    """Height bounds hhat(P1) / 9, and given P2 and P1 + P2 too,
    hhat(P1) / 4 + |<P1, P2>| / 6 + hhat(P2) / 9, at the lower (end = 0)
    or upper (end = 1) endpoints of the intervals iv; at the lower ones
    |<P1, P2>| is its least value over the pairing interval."""
    h1 = iv[0][end]
    if len(iv) == 1:
        return [h1 / 9]
    lo, hi = _pairing_interval(iv)
    pairing = max(abs(lo), abs(hi)) if end else max(lo, -hi, 0)
    return [h1 / 9, h1 / 4 + pairing / 6 + iv[1][end] / 9]


def _odd_classes(curve: CurveInstance) -> list:
    """(name, point) for the 2^(r+1) - 1 nonzero classes of <gens, T> mod
    2, the sums of the nonempty subsets of gens + [T] in binary order with
    T last: G, T, G+T at rank 1; P1, P2, P1+P2, T, P1+T, P2+T, P1+P2+T at
    rank 2.  The first 2^r - 1 are the sums of generators alone."""
    classes = [("", INFINITY)]
    for label, g in zip(_labels(curve), curve.gens):
        classes += [(f"{n}+{label}" if n else label, add_points(curve, p, g))
                    for n, p in classes]
    classes += [(f"{n}+T" if n else "T", add_torsion(curve, p))
                for n, p in classes]
    return classes[1:]


def certify_generators(curve: CurveInstance) -> HeightCertificate:
    """Certify E(K) = <gens> + {O, T}, the rank read from curve.gens: no
    nonzero class of <gens, T> mod 2 halves (no even index), and every
    point in the boxes of the caps, enumerated once the hhat intervals of
    the sums of generators decide their ranges, is a small combination of
    the generators and T (no odd index >= 3).  The first cap fills the
    top-level fields and a second (rank 2) fills `extra`; one enumeration
    at the larger cap serves both."""
    with mp.workdps(DIGITS + 15):
        C, eps = height_diff_bound(curve.id)
        eps_dict = {"inf1": float(eps[0]), "inf2": float(eps[1]),
                    "inf3": float(eps[2])}
        if curve.field.id == "K2":
            eps_dict["pi"] = float(epsilon_nonarchimedean(curve))
        classes = _odd_classes(curve)
        for name, rep in classes:
            if halving_candidates(curve, rep):
                raise ArithmeticError(
                    f"{curve.id}: class {name} is halvable; index is even")
        names, points = zip(*classes[:2 ** curve.rank - 1])
        m, iv, bounds, decided = _decided_caps(curve, points)
        caps = [mp.e ** (C + 2 * b) for b in bounds]
        box = _search_box(curve, max(caps))
        (survivors, survivor_names), *more = [
            _named_survivors(curve, box, cap, what) for cap, what in
            zip(caps, ("certification", "second enumeration"))]
        cert = HeightCertificate(
            curve.id, eps_dict, float(C), float(height_upper_bound(curve.id)),
            m, decided,
            {n: [float(lo), float(hi)] for n, (lo, hi) in zip(names, iv)},
            [float(hi) for _, hi in iv[:curve.rank]], float(caps[0]),
            _ranges(curve, caps[0]), survivors, survivor_names,
            "generator" if curve.rank == 1 else "generators")
        for b, cap, (_, names2) in zip(bounds[1:], caps[1:], more):
            cert.extra = {
                "pairing_interval": [float(v) for v in _pairing_interval(iv)],
                "g2_height_bound": float(b), "cap2": float(cap),
                "shapes2": _ranges(curve, cap), "survivors2_names": names2}
        return cert
