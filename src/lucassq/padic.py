"""3-adic engine: formal-group series, theta-coefficient systems, and the
Skolem test that decides each coset of the kernel of reduction.

The prime 3 is inert in both quartic fields, so Z_3[alpha]/3^k is the right
finite model.  The formal-group series are exact; the multiples of the
generators are walked in Z[alpha]/3^(k+4) (`reduction_order`), and the
theta components sum the exact series coefficients times the powers of
z(sum n_i Q_i) mod 3^k, built once per curve (`_z_powers`), all on
`fields._Residue`.  Truncation orders are certified by the valuation
floor v(coeff of total degree d) >= floor(d/2)+1, so z(sum n_i Q_i) and
the exp series it comes from are built only to degree
`max_useful_degree(k)`, 2k - 3 from k = 2 on (`_series_pack`).  Series in
one variable (u, 1/u, log, exp, the z-expansions of beta X + gamma) are
coefficient lists indexed by degree (`exact.poly_*`); the multivariate
`Poly` holds z(sum n_i Q_i), the theta components and the Skolem systems.

One coset driver serves both ranks (Smart, *The Algorithmic Resolution of
Diophantine Equations*).  The last generator G has reduction order N; each
earlier P_i becomes P_i + b_i G, b_i in [0, N), in the kernel of reduction,
and N G completes the kernel basis.  The cosets are c G (+T), c in [0, N),
but only c in [0, N/2] are listed: T = -T, so the coset of (N - c) G (+T)
is the negative of that of c G (+T), and P and -P share X, hence the
condition value, so each +-P pair is proved and recorded once.  A coset is
excluded mod 3 when the condition value at its base, read from the walk
triple of c G reduced mod 3, has a nonrational 3-unit component; only the
rest get a base mod 3^(k+4) and a theta expansion.  Each of those is
excluded mod 3^i when Hensel lifting finds no common zero of its theta
components, or else decided by one rule on both ranks: Skolem's test on the
residue disk of each lifted root (of the root 0 on the identity coset),
then the exact point of each root, which must pass the exact test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .curves import (CurveInstance, CurvePoint, add_points, add_torsion,
                     condition_value, scalar_mul)
from .exact import (Poly, _poly_coeff, poly_add, poly_diff, poly_eval,
                    poly_mod, poly_mul, poly_scale, poly_shift, resultant)
from .fields import (FieldDescriptor, FieldElement, _ord3,
                     _residue_components, _residue_powers, _residues,
                     _Residue, three_adic_valuation)

P3 = 3


class PrecisionError(ArithmeticError):
    """Truncation cannot certify the requested conclusion."""


# --- reduction helpers ------------------------------------------------------

def reduce_element(x: FieldElement, k: int) -> FieldElement:
    """Small exact representative of x mod 3^k (integer coordinates)."""
    return x.field.integral(_residues(x, P3 ** k))


# --- formal group series -----------------------------------------------------

@dataclass(frozen=True)
class FormalSeriesPack:
    """Coefficient lists indexed by degree: u, u_inv and log to `order`,
    exp to its own order, len(exp) - 1."""
    curve: CurveInstance
    order: int
    u: list          # w(z)/z^3 = 1 + ... (even degrees, FieldElement coeffs)
    u_inv: list
    log: list        # odd degrees; Fraction*FieldElement coefficients
    exp: list


def derive_formal_series(curve: CurveInstance, order: int = 7,
                         exp_order: Optional[int] = None) -> FormalSeriesPack:
    """Formal-group data for Y^2 = X(X^2 + A X + B): w = z^3 u with
    u = 1 + A z^2 u + B z^4 u^2, then log = int dx/(2y) and exp = log^(-1),
    u, u_inv and log to degree `order` and exp to degree `exp_order`
    (default `order`, at most `order`).  exp costs cubic in its order, so
    the driver builds it only to the degrees `z_linear_combo` reads.

    u, u_inv and exp are found one degree at a time.  The z^d coefficient
    of A z^2 u + B z^4 u^2 needs only lower coefficients of u.  Those of
    u * u_inv and of log(exp t) are the new coefficient of u_inv or exp
    plus terms in lower ones (u starts 1, log starts t), and must vanish
    for d >= 1 and d >= 2; powers[j][d] = [t^d] exp^j needs exp only below
    degree d for j >= 2, as exp^(j-1) starts at t^(j-1)."""
    exp_order = order if exp_order is None else exp_order
    if not 1 <= exp_order <= order:
        raise ValueError(f"exp order {exp_order} not in [1, {order}]")
    one = curve.field.one()
    A, B = curve.a, curve.b
    u, u_inv = [one], [one]
    for d in range(1, order + 1):
        u.append((A * u[d - 2] if d >= 2 else 0)
                 + (B * _poly_coeff(u, u, d - 4) if d >= 4 else 0))
    for d in range(1, order + 1):
        u_inv.append(-_poly_coeff(u, u_inv, d, 1))
    # log'(z) = 1 + z u'(z) / (2 u(z)); integrate, keeping Fraction and
    # FieldElement coefficients (0 / (d + 1) would be a float).
    zdu = [0] + poly_diff(u)
    logp = poly_add([one], poly_scale(poly_mul(zdu, u_inv, order - 1),
                                      Fraction(1, 2)))
    log = [0] + [c / (d + 1) if c else 0 for d, c in enumerate(logp)]
    exp = [0, one]
    powers = [None, exp] + [[0] * (exp_order + 1)
                            for _ in range(2, exp_order + 1)]
    for d in range(2, exp_order + 1):
        for j in range(2, d + 1):
            powers[j][d] = _poly_coeff(exp, powers[j - 1], d, 1)
        exp.append(-sum((log[j] * powers[j][d] for j in range(2, d + 1)
                         if log[j]), 0))
    return FormalSeriesPack(curve, order, u, u_inv, log, exp)


def padic_log(pack: FormalSeriesPack, z: FieldElement, k: int) -> FieldElement:
    """Truncated log at z with v(z) >= 1, as a small representative mod
    3^k.  It depends only on z mod 3^k: the z^d coefficient is c_d/d with
    c_d 3-integral, and d - 1 >= v_3(d)."""
    if (three_adic_valuation(z) or 0) < 1:
        raise ValueError("v(z) >= 1 required")
    return reduce_element(poly_eval(pack.log, z), k)


def padic_exp(pack: FormalSeriesPack, t: FieldElement, k: int) -> FieldElement:
    if (three_adic_valuation(t) or 0) < 1:
        raise ValueError("v(t) >= 1 required")
    return reduce_element(poly_eval(pack.exp, t), k)


# --- z(n1 Q1 + n2 Q2) as a polynomial ----------------------------------------

def fact2_floor(d: int) -> int:
    """Valuation floor for the coefficient of a total-degree-d monomial."""
    return d // 2 + 1 if d >= 1 else 0


def max_useful_degree(k: int) -> int:
    """Largest total degree whose coefficients can be nonzero mod 3^k: the
    largest d >= 1 with fact2_floor(d) < k, or 1."""
    return max(1, 2 * k - 3)


def z_linear_combo(pack: FormalSeriesPack, logs: list, k: int) -> Poly:
    """z(sum n_i Q_i) = exp(sum n_i log z(Q_i)) as an exact Poly in the n_i
    with FieldElement coefficients, truncated by the valuation floor.

    `logs` holds the exact (small-representative) log values; they must be
    correct mod 3^(k+4), which covers the /3-type denominators in exp.
    Raises ValueError if `pack.exp` stops below degree
    `max_useful_degree(k)`: the missing terms would be dropped unchecked.
    """
    nvars = len(logs)
    dmax = max_useful_degree(k)
    if len(pack.exp) <= dmax:
        raise ValueError(f"exp known to degree {len(pack.exp) - 1}, "
                         f"needed to {dmax} at 3^{k}")
    s = Poly(nvars, {tuple(int(i == j) for i in range(nvars)): logs[j]
                     for j in range(nvars)})
    return _substitute(pack.exp[:dmax + 1], s, dmax)


def _series_pack(curve: CurveInstance, k: int) -> FormalSeriesPack:
    """The driver's pack at 3^k: u, u_inv and log to degree k + 5, and exp
    only to `max_useful_degree(k)`, the degrees `z_linear_combo` reads;
    all four go that far when it exceeds k + 5 (k >= 9)."""
    dmax = max_useful_degree(k)
    return derive_formal_series(curve, max(k + 5, dmax), dmax)


def _substitute(series: list, poly: Poly, dmax: int) -> Poly:
    """sum_j series[j] * poly^j with the terms of total degree > dmax
    dropped."""
    total = Poly(poly.nvars)
    power = Poly.constant(poly.nvars, 1)
    for j, c in enumerate(series):
        if j:
            power = power.mul_truncated(poly, dmax)
        if c:
            total = total + power.map_coeffs(lambda q, c=c: c * q)
    return total


def poly_components_mod(poly: Poly, k: int) -> list:
    """Split a Poly with FieldElement coefficients into 4 integer-coefficient
    Polys (power-basis components) reduced mod 3^k."""
    terms = {e: _residues(c, P3 ** k) for e, c in poly.terms.items()}
    return [Poly(poly.nvars, {e: v[i] for e, v in terms.items()})
            for i in range(4)]


# --- beta*X(P+R)+gamma and 1/(beta*X(R)+gamma) as series in z -----------------

def beta_x_series(curve: CurveInstance, x0, y0, order: int = 4,
                  pack: Optional[FormalSeriesPack] = None) -> list:
    """Coefficients s_0..s_order of beta*X(P+R)+gamma as a series in z(R).

    x0, y0 may be FieldElements (concrete base point P, including the
    2-torsion (0,0)) or Polys over the field (symbolic).  Built from the
    chord formula with x(R), y(R) Laurent series:
      X(P+R) = lambda^2 - A - X0 - x,  lambda = (Y0 - y)/(X0 - x).
    """
    n = order
    N = n + 2  # internal order: the output sees z^(d+2) of the Laurent part
    if pack is None or pack.order < N:
        pack = derive_formal_series(curve, N + 1)
    one = curve.field.one()
    s = [0, 0] + pack.u[:N - 1]                 # z^2 u
    t = [0, 0, 0] + pack.u[:N - 2]              # z^3 u
    # (X0 - x)^(-1) = -z^2 u * sum_m (X0 z^2 u)^m
    geo, power = [one], [one]
    for m in range(1, N // 2 + 1):
        power = poly_scale(poly_mul(power, s, N), x0)
        geo = poly_add(geo, power)
    # lambda*z = -(1 + Y0 z^3 u) * geo
    lam_z = poly_scale(poly_mul(poly_add([one], poly_scale(t, y0)), geo, N),
                       -1)
    # X(P+R) = z^-2 (lam_z^2 - u_inv) - A - X0
    diff = poly_add(poly_mul(lam_z, lam_z, N),
                    poly_scale(pack.u_inv[:N + 1], -1))
    assert not diff[0], "z^-2 singularity failed to cancel"
    xpr = diff[2:n + 3]
    return ([curve.beta * (xpr[0] - curve.a - x0) + curve.gamma]
            + [curve.beta * c if c else 0 for c in xpr[1:]])


def inverse_beta_x_series(curve: CurveInstance, order: int = 6,
                          pack: Optional[FormalSeriesPack] = None) -> list:
    """Coefficients of 1/(beta*X(R)+gamma) as a series in z(R); only even
    degrees >= 2 are nonzero.  Leading coefficient is 1/beta."""
    if not curve.beta:
        raise ValueError("beta = 0")
    if pack is None:
        pack = derive_formal_series(curve, order + 3)
    n = order
    one = curve.field.one()
    s = [0, 0] + pack.u[:n - 1]                 # z^2 u
    # 1/(beta x + gamma) = (z^2 u / beta) * (1 + (gamma/beta) z^2 u)^(-1)
    step = poly_scale(s, -(curve.gamma / curve.beta))
    geo, power = [one], [one]
    for m in range(1, n // 2 + 1):
        power = poly_mul(power, step, n)
        geo = poly_add(geo, power)
    return poly_mul(poly_scale(s, curve.beta.inv()), geo, n)


def _z_powers(z_poly: Poly, k: int) -> list:
    """[Z^0, ..., Z^(k+1)] for Z = z_poly mod 3^k, truncated at degree
    `max_useful_degree(k)`: enough for the series of orders k - 1 and
    k + 1 that the driver expands."""
    return _residue_powers(z_poly, P3 ** k, max_useful_degree(k), k + 1)


def theta_components(series_coeffs: list, z, k: int) -> list:
    """The four power-basis components of sum_j s_j Z^j mod 3^k, z the Poly
    of `z_linear_combo` or its `_z_powers`.  Each s_j is 3-integral under
    assumption 1 (`_residues` raises otherwise, as on Z), and reduction mod
    3^k is a ring map (see `reduction_order`), so they are those of
    `_substitute(series_coeffs, z, max_useful_degree(k))` reduced."""
    return _residue_components(
        series_coeffs, _z_powers(z, k) if isinstance(z, Poly) else z, P3 ** k)


# --- Skolem -------------------------------------------------------------------

@dataclass(frozen=True)
class SkolemSystem:
    polys: tuple              # 1 or 2 Polys, int coefficients, 3^j divided out
    lowest: tuple             # each poly mod 3, a nonzero form
    degrees: tuple            # the degree of each form


def build_skolem_system(polys: list) -> SkolemSystem:
    """The lowest parts of one or two polys in as many variables: each
    reduction mod 3 must be a nonzero form of some degree d >= 1."""
    lows, degs = [], []
    for f in polys:
        f0 = poly_mod(f, P3)
        if f0.is_zero():
            raise ValueError("series vanishes mod 3")
        d = min(sum(e) for e in f0.terms)
        if any(sum(e) != d for e in f0.terms):
            raise ValueError(
                f"lowest part not homogeneous: monomials {sorted(f0.terms)}")
        if d < 1:
            raise ValueError("lowest part has degree 0")
        lows.append(f0)
        degs.append(d)
    return SkolemSystem(tuple(polys), tuple(lows), tuple(degs))


def skolem_check(system: SkolemSystem) -> dict:
    """Whether the lowest parts share no zero but 0 over the algebraic
    closure of F_3.  One form a t^d does not, a being nonzero mod 3.  Two
    binary forms do not when their resultant is nonzero mod 3; for linear
    parts a11 n1 + a12 n2 and a21 n1 + a22 n2 it is the determinant
    a11 a22 - a12 a21."""
    if len(system.polys) == 1:
        [res] = system.lowest[0].terms.values()
    else:
        res = int(resultant(*(
            [low.coefficient((i, d - i)) for i in range(d + 1)]
            for low, d in zip(system.lowest, system.degrees))))
    return {"resultant": res, "unique": res % P3 != 0}


def divide_out_3(polys: list, k: int) -> tuple:
    """Divide a list of component polys by the largest common power of 3;
    returns (divided polys mod 3^(k-j), j)."""
    j = k
    for p in polys:
        for c in p.terms.values():
            j = min(j, _ord3(c))
        if j == 0:
            break
    if j == 0:
        return polys, 0
    d = P3 ** j
    return [Poly(p.nvars, {e: c // d for e, c in p.terms.items()})
            for p in polys], j


# --- assumption gates ---------------------------------------------------------

def defining_poly_irreducible_mod3(fld: FieldDescriptor) -> bool:
    """No root in F_9 = F_3[i], i^2 = -1: a factor of degree 1 or 2 over
    F_3 would have its roots there."""
    for r, t in itertools.product(range(P3), repeat=2):
        u, v = 0, 0
        for c in reversed(fld.defining_poly):        # Horner at r + t i
            u, v = u * r - v * t + int(c), u * t + v * r
        if u % P3 == 0 and v % P3 == 0:
            return False
    return True


def curve_satisfies_assumption1(curve: CurveInstance) -> bool:
    if not defining_poly_irreducible_mod3(curve.field):
        return False
    for x in (curve.a, curve.b):
        if (three_adic_valuation(x) or 0) < 0:
            return False
    for x in (curve.beta, curve.gamma):
        if three_adic_valuation(x) != 0:
            return False
    return True


# --- drivers ------------------------------------------------------------------

@dataclass(frozen=True)
class CosetReport:
    coset: int
    eps: int
    verdict: str          # 'excluded mod 3^i' | 'skolem'
    roots: tuple = ()     # the proved roots (n_1, ..., n), one per disk
    detail: str = ""      # the Skolem degree: 'linear' | 'quadratic'


@dataclass(frozen=True)
class DriverResult:
    curve_id: str
    precision: int
    m0: int               # N, the reduction order of the last generator
    reports: tuple
    survivors: tuple      # exact CurvePoints with rational condition value


def lift_roots(polys: list, k: int) -> tuple:
    """Common zeros of integer polynomials known mod 3^k.  Their common
    factor 3^j is divided out, and the zeros of the quotients are lifted one
    power of 3 at a time, so level i of the polynomials is level i - j of
    the quotients.

    Returns (i, roots).  If roots is empty, the polynomials have no common
    zero mod 3^i.  Otherwise i = k and roots are the zeros of the quotients
    mod 3^(k - j), as symmetric residues."""
    nvars = polys[0].nvars
    polys, j = divide_out_3(polys, k)
    digits = list(itertools.product(range(P3), repeat=nvars))
    roots, i = [(0,) * nvars], 0
    while roots and j + i < k:
        step, i = P3 ** i, i + 1
        roots = [r for base in roots for d in digits
                 for r in (tuple(b + step * x for b, x in zip(base, d)),)
                 if all(p.evaluate(r) % P3 ** i == 0 for p in polys)]
    m = P3 ** i
    return j + i, [tuple(x - m if x > m // 2 else x for x in r) for r in roots]


def _excluded_mod_3(curve: CurveInstance, walk: list) -> dict:
    """{(c, eps): whether `lift_roots` on the theta components of the coset
    c G (+T), c in [0, N), not O, returns (1, []): no zero mod 3}.  Each
    monomial of z(sum n_i Q_i) has degree d >= 1 and valuation >= 1, and
    each s_j, j >= 1, of beta X(P + R) + gamma is 3-integral, so theta =
    s_0 = beta x + gamma mod 3, x = X(c G (+T)), has a zero mod 3 exactly
    when x = (r - gamma)/beta mod 3, r in F_3.  x = X/Z at c G and B Z/X
    at c G + T (`add_torsion`), from walk[c - 1] = (X, Y, Z); X(T) = 0.
    None where eps = 1 and X = 0 mod 3, which `_coset_base` raises on.
    Only x mod 3 is read, so X and Z are reduced mod 3 before Z, a 3-unit
    on walk[:-1], is inverted."""
    beta, gamma, b = (_Residue.of(v, P3)
                      for v in (curve.beta, curve.gamma, curve.b))
    rational = [(-gamma + r) * beta.inv() for r in range(P3)]
    # the X(c G) mod 3 at which c G, then c G + T, is kept
    at_g = {x.n for x in rational}
    at_g_t = {(b * x.inv()).n for x in rational if x.unit_mod(P3)}
    out = {(0, 1): (0, 0, 0, 0) not in at_g}
    for c, (X, _, Z) in enumerate(walk[:-1], 1):
        x = (_Residue(X.field, X.n, P3)
             * _Residue(Z.field, Z.n, P3).inv()).n
        out[c, 0] = x not in at_g
        out[c, 1] = x not in at_g_t if any(x) else None
    return out


def _skolem_coset(components: list, roots: list, k: int,
                  identity: bool = False) -> str:
    """Prove that each candidate root r is the only 3-adic zero of the
    components on its residue disk r + 3^s Z_3^rank, s the least level at
    which the roots are pairwise distinct (0 for one root), and return the
    kind of the test: 'linear' or 'quadratic'.

    With n = r + 3^s t, some `rank` of the components, their common 3^j
    divided out, must reduce mod 3 to forms of one degree d with no common
    zero but t = 0 (`skolem_check`).  d = 1 holds anywhere: then
    F(t) - F(t') = (L + 3 M) (t - t') with L invertible mod 3, so F is
    one-to-one on the disk.  d = 2 holds only on the identity coset (one
    root, 0, and s = 0), whose components are even and vanish at 0, so
    have no monomial of degree 0 or 1: at a zero t = 3^v u, u primitive,
    the forms would vanish at u mod 3.  Elsewhere such monomials may hide
    below 3^k, and with them a second zero (27 n1 + n1^2 + n2^2 and
    27 n2 + n1 n2 read mod 27 also vanish at (-27, 0)), so any other
    degree raises PrecisionError."""
    rank = components[0].nvars
    s = next(s for s in itertools.count()
             if len({tuple(x % P3 ** s for x in r) for r in roots})
             == len(roots))
    for root in roots:
        disk = [poly_mod(Poly(rank, {e: c * P3 ** (s * sum(e)) for e, c in
                                     poly_shift(comp, root).terms.items()}),
                         P3 ** k)
                for comp in components if not comp.is_zero()]
        last = "every component vanishes mod 3^k"
        for combo in itertools.combinations(disk, rank):
            try:
                system = build_skolem_system(divide_out_3(list(combo), k)[0])
            except ValueError as exc:
                last = exc
                continue
            degrees = set(system.degrees)
            if not (degrees == {1} or identity and degrees == {2}):
                last = f"lowest parts of degrees {system.degrees}"
            elif not skolem_check(system)["unique"]:
                last = "lowest parts share a zero mod 3"
            else:
                kind = "linear" if degrees == {1} else "quadratic"
                break
        else:
            raise PrecisionError(f"no Skolem test at {root} ({last})")
    return kind


def reduction_order(curve: CurveInstance, G: CurvePoint, j: int,
                    P: Optional[CurvePoint] = None, limit: int = 100) -> list:
    """[P, P + G, P + 2G, ...] (P = G if None) as projective triples
    (X, Y, Z) over Z[alpha]/3^j, through the first in the kernel of
    reduction at 3, in at most `limit` points: from G its length is N, the
    order of G mod 3, at most #E~(F_81) <= 100 with good reduction at 3.
    2G is the tangent step and each later point adds G by the chord, both
    division-free (P + cG != +-G: the generators are independent, of
    infinite order).

    Reduction Z_(3)[alpha] -> Z[alpha]/3^j is a ring map (3 is inert and
    prime to every denominator) and the formulas are polynomial, so each
    triple is the image of the exact one.  While Z is a 3-unit it is
    primitive, the point affine and outside the kernel; at the first
    Z = 0 mod 3, Y must be a 3-unit, so it is primitive and reduces to O."""
    m, start = P3 ** j, P or G
    a, b, x, y, x0, y0 = (_Residue.of(v, m) for v in (
        curve.a, curve.b, G.x, G.y, start.x, start.y))
    walk = [(x0, y0, _Residue(curve.field, (1, 0, 0, 0), m))]
    while walk[-1][2].unit_mod(P3):
        if len(walk) == limit:
            raise ValueError(f"{curve.id}: no kernel point in {limit} steps")
        X, Y, Z = walk[-1]
        if len(walk) == 1 and P is None:        # slope w/s at G
            s, w = 2 * y, 3 * x * x + 2 * a * x + b
            ss = s * s
            h = w * w - (a + 2 * x) * ss
            walk.append((s * h, w * (x * ss - h) - y * s * ss, s * ss))
        else:                                   # slope u/v to G
            u, v = y * Z - Y, x * Z - X
            vv = v * v
            vvv, vvx = vv * v, vv * X
            A = (u * u - a * vv) * Z - 2 * vvx - vvv
            walk.append((v * A, u * (vvx - A) - vvv * Y, vvv * Z))
    if not walk[-1][1].unit_mod(P3):
        raise ArithmeticError(f"{curve.id}: kernel point lost mod 3^{j}")
    return walk


def _scan_condition_points(curve: CurveInstance, c: int, eps: int,
                           b: list, N: int, root: tuple) -> CurvePoint:
    """The exact point c G (+T) + sum n_i (P_i + b_i G) + n N G of the
    root (n_1, ..., n) of the coset c G (+T), for the generators P_i and G
    (N the reduction order of G), negated if its first nonzero coefficient
    on the generators is negative: a rank-1 point m G (+T) is kept with
    m >= 0.  Raises PrecisionError unless its condition value is rational:
    a root mod 3^k that is no exact zero is left undecided."""
    *ns, n = root
    m = c + n * N + sum(x * y for x, y in zip(ns, b))
    pt = scalar_mul(curve, m, curve.gens[-1])
    for x, P in zip(ns, curve.gens):
        pt = add_points(curve, pt, scalar_mul(curve, x, P))
    pt = add_torsion(curve, pt) if eps else pt
    if condition_value(curve, pt) is None:
        raise PrecisionError(f"root {root} fails the exact check")
    return -pt if next((x for x in (*ns, m) if x), 0) < 0 else pt


def kernel_basis(curve: CurveInstance, j: int) -> tuple:
    """(walk, b, z) mod 3^j: walk = [G, ..., N*G] of `reduction_order` for
    the last generator G; the kernel of reduction of <gens> has the basis
    P_i + b_i G, b_i in [0, N), for each earlier generator, then N*G; and
    z = [z(Q) = -X/Y] on that basis (Y is a 3-unit there)."""
    *others, G = curve.gens
    walk = reduction_order(curve, G, j)
    walks = [reduction_order(curve, G, j, P, len(walk)) for P in others]
    return walk, [len(w) - 1 for w in walks], [
        (-X * Y.inv()).element()
        for X, Y, _ in (w[-1] for w in walks + [walk])]


def _coset_base(curve: CurveInstance, walk: list, c: int, eps: int,
                j: int) -> CurvePoint:
    """c G (+T) mod 3^j, c in [0, N), not O, from walk[c - 1] through
    denominators prime to 3.  X(c G) = 0 mod 3 puts c G + T in the kernel
    when B is a 3-unit (so on every catalog curve): left undecided."""
    if not c:
        return curve.torsion
    X, Y, Z = walk[c - 1]
    pt = CurvePoint(*((V * Z.inv()).element() for V in (X, Y)))
    if eps:
        if three_adic_valuation(pt.x) != 0:
            raise PrecisionError("coset base in kernel of reduction")
        pt = add_torsion(curve, pt)
    return CurvePoint(reduce_element(pt.x, j), reduce_element(pt.y, j))


def rank1_driver(curve: CurveInstance, k: int = 5) -> DriverResult:
    """Certify the complete list of points with rational condition value on
    a rank-1 curve: Skolem on each coset of the kernel of reduction."""
    return _driver(curve, k, 1)


def rank2_driver(curve: CurveInstance, k: int = 5) -> DriverResult:
    """Certify the complete list of points with rational condition value on
    a rank-2 curve: Skolem on each coset of the kernel of reduction."""
    return _driver(curve, k, 2)


def _driver(curve: CurveInstance, k: int, rank: int) -> DriverResult:
    """Run the coset driver at 3^k, and once more at 3^(k+2) if the
    truncation cannot decide some coset.  Below k = 3 it starts at k + 2:
    the identity coset's components have no term below degree 2, so at
    `max_useful_degree(k)` < 2 they all vanish and no Skolem test exists."""
    if len(curve.gens) != rank:
        raise ValueError(f"{curve.id} has {len(curve.gens)} generator(s); "
                         f"the rank-{rank} driver needs {rank}")
    if max_useful_degree(k) >= 2:
        try:
            return _cosets_once(curve, k)
        except PrecisionError:
            pass
    return _cosets_once(curve, k + 2)


def _cosets_once(curve: CurveInstance, k: int) -> DriverResult:
    """Split E(K) = <gens> + {O, T} into cosets of its kernel of reduction
    mod 3, and prove for each coset which points have a rational condition
    value.

    With the basis Q_i of `kernel_basis`, the kernel points are
    sum n_i Q_i and the cosets are c G (+T), c in [0, N); their bases and
    z(Q_i) come from the walk mod 3^(k+4).  Only c in [0, N/2] are listed:
    T = -T, so the coset of (N - c) G (+T) is the negative of that of
    c G (+T), and X, hence the condition value, is the same at P and -P;
    each survivor stands for itself and its negative.

    A coset is excluded mod 3 when its nonrational theta components have
    no common zero mod 3, read from the walk through the condition value at
    its base mod 3 (`_excluded_mod_3`), or mod 3^i when `lift_roots` finds
    none.  Otherwise `_skolem_coset` proves each lifted root the only zero
    on its disk, and `_scan_condition_points` builds its exact point, which
    must pass the exact test; the +-P pair of the coset c = N/2, its own
    negative, is kept once.  The identity coset holds O alone, at the root
    n = 0, which it does not lift."""
    if not curve_satisfies_assumption1(curve):
        raise ValueError(f"{curve.id}: inert/integrality assumptions fail")
    rank = len(curve.gens)
    walk, b, zs = kernel_basis(curve, k + 4)
    N = len(walk)
    pack = _series_pack(curve, k)
    logs = [padic_log(pack, z, k + 4) for z in zs]
    powers = _z_powers(z_linear_combo(pack, logs, k), k)
    reports, survivors, excluded = [], [], _excluded_mod_3(curve, walk)
    for eps, c in itertools.product((0, 1), range(N // 2 + 1)):
        identity = c == 0 and eps == 0
        try:
            if identity:
                series = inverse_beta_x_series(curve, order=k + 1, pack=pack)
            elif excluded[c, eps]:
                reports.append(CosetReport(c, eps, "excluded mod 3"))
                continue
            else:
                base = _coset_base(curve, walk, c, eps, k + 4)
                series = beta_x_series(curve, base.x, base.y, order=k - 1,
                                       pack=pack)
            comps = theta_components(series, powers, k)[1:]
            if identity:
                roots = [(0,) * rank]
            else:
                level, roots = lift_roots(comps, k)
                if not roots:
                    reports.append(CosetReport(c, eps,
                                               f"excluded mod {P3 ** level}"))
                    continue
            kind = _skolem_coset(comps, roots, k, identity)
            reports.append(CosetReport(c, eps, "skolem", tuple(roots), kind))
            for root in () if identity else roots:
                pt = _scan_condition_points(curve, c, eps, b, N, root)
                if pt not in survivors:
                    survivors.append(pt)
        except PrecisionError as exc:
            raise PrecisionError(f"{curve.id} coset {c},{eps}: {exc}") from None
    return DriverResult(curve.id, k, N, tuple(reports), tuple(survivors))
