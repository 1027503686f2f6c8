"""3-adic engine: formal-group series, theta-coefficient systems, Strassman
bounds, and the Skolem-style solver.

The prime 3 is inert in both quartic fields, so Z_3[alpha]/3^k is the right
finite model.  The formal-group series are exact; the multiples of the
generators are walked in Z[alpha]/3^(k+4) (`reduction_order`), and the
theta components sum the exact series coefficients times the powers of
z(sum n_i Q_i) mod 3^k, built once per curve (`_z_powers`), all on
`fields._Residue`.  Truncation orders are certified by the valuation
floor v(coeff of total degree d) >= floor(d/2)+1.  Series in one variable
(u, 1/u, log, exp, the z-expansions of beta X + gamma) are coefficient
lists indexed by degree (`exact.poly_*`); the multivariate `Poly` holds
z(sum n_i Q_i), the theta components and the Skolem systems.

One coset driver serves both ranks (Smart, *The Algorithmic Resolution of
Diophantine Equations*).  The last generator G has reduction order N; each
earlier P_i becomes P_i + b_i G, b_i in [0, N), in the kernel of reduction,
and N G completes the kernel basis.  The cosets are c G (+T), c in [0, N);
one is excluded mod 3 when the condition value at its base, read from the
walk triple of c G, has a nonrational 3-unit component; only the rest get
a base mod 3^(k+4) and a theta expansion.  Rank 1 bounds each coset left
by Strassman in one variable, against its points m G (+T), |m| <= 2N, that
pass the exact test, tried only where its theta components vanish mod 3^k.
Rank 2 lists c in [0, N/2] and solves each one left by Skolem at the zero
found by Hensel lifting.  The fold is sound because T = -T: the coset of
(N - c) G (+T) is the negative of that of c G (+T), and P and -P share X,
hence the condition value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

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
    """Coefficient lists indexed by degree, 0..order."""
    curve: CurveInstance
    order: int
    u: list          # w(z)/z^3 = 1 + ... (even degrees, FieldElement coeffs)
    u_inv: list
    log: list        # odd degrees; Fraction*FieldElement coefficients
    exp: list


def derive_formal_series(curve: CurveInstance, order: int = 7) -> FormalSeriesPack:
    """Formal-group data for Y^2 = X(X^2 + A X + B): w = z^3 u with
    u = 1 + A z^2 u + B z^4 u^2, then log = int dx/(2y) and exp = log^(-1).

    u, u_inv and exp are found one degree at a time.  The z^d coefficient
    of A z^2 u + B z^4 u^2 needs only lower coefficients of u.  Those of
    u * u_inv and of log(exp t) are the new coefficient of u_inv or exp
    plus terms in lower ones (u starts 1, log starts t), and must vanish
    for d >= 1 and d >= 2; powers[j][d] = [t^d] exp^j needs exp only below
    degree d for j >= 2, as exp^(j-1) starts at t^(j-1)."""
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
    powers = [None, exp] + [[0] * (order + 1) for _ in range(2, order + 1)]
    for d in range(2, order + 1):
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
    """
    nvars = len(logs)
    dmax = max_useful_degree(k)
    s = Poly(nvars, {tuple(int(i == j) for i in range(nvars)): logs[j]
                     for j in range(nvars)})
    return _substitute(pack.exp[:dmax + 1], s, dmax)


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


# --- Strassman and Skolem ------------------------------------------------------

def strassman_bound(series: Poly, k: int,
                    floor: Callable[[int], int] = fact2_floor) -> int:
    """Largest index attaining the minimal coefficient valuation mu of a
    one-variable series known mod 3^k whose coefficients beyond the stored
    ones have valuation >= floor(d) at degree d (floor nondecreasing).
    Raises PrecisionError unless mu < k and floor(dmax + 1) > mu."""
    if series.nvars != 1:
        raise ValueError("one-variable series required")
    if series.is_zero():
        raise PrecisionError("series vanishes mod 3^k")
    vals = {e[0]: min(_ord3(c), k) for e, c in series.terms.items()}
    mu = min(vals.values())
    if mu >= k:
        raise PrecisionError("precision insufficient")
    tail = max(vals) + 1
    if floor(tail) <= mu:
        raise PrecisionError(f"tail degree {tail} not dominated")
    return max(d for d, v in vals.items() if v == mu)


@dataclass(frozen=True)
class SkolemSystem:
    f1: Poly                  # int coefficients mod 3^k
    f2: Poly
    lowest1: Poly
    lowest2: Poly
    d1: int
    d2: int


def build_skolem_system(f1: Poly, f2: Poly) -> SkolemSystem:
    """Extract lowest homogeneous parts and verify the structural
    hypotheses (homogeneity, no lower-degree monomials)."""
    lows = []
    degs = []
    for f in (f1, f2):
        f0 = poly_mod(f, P3)
        if f0.is_zero():
            raise ValueError("series vanishes mod 3: hypothesis (1) fails")
        d = min(sum(e) for e in f0.terms)
        if any(sum(e) != d for e in f0.terms):
            raise ValueError(
                f"lowest part not homogeneous: monomials {sorted(f0.terms)}")
        if d < 1:
            raise ValueError("lowest part has degree 0")
        bad = [e for e in f.terms if sum(e) < d]
        if bad:
            raise ValueError(f"hypothesis (2) violated by monomial {bad[0]}")
        lows.append(f0)
        degs.append(d)
    return SkolemSystem(f1, f2, lows[0], lows[1], degs[0], degs[1])


def skolem_check(system: SkolemSystem) -> dict:
    """Decide whether the only 3-adic solution of F1 = F2 = 0 is zero.

    The lowest parts are binary forms mod 3, and zero is the only solution
    when they share no zero over the algebraic closure of F_3, that is when
    their resultant is nonzero mod 3.  For linear parts a11 n1 + a12 n2 and
    a21 n1 + a22 n2 the resultant is the determinant a11 a22 - a12 a21.
    """
    forms = [[low.coefficient((i, d - i)) for i in range(d + 1)]
             for low, d in ((system.lowest1, system.d1),
                            (system.lowest2, system.d2))]
    res = int(resultant(*forms))
    return {"kind": "linear" if system.d1 == system.d2 == 1 else "resultant",
            "resultant": res, "unique": res % P3 != 0}


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
    verdict: str          # 'excluded mod 3^i' | 'strassman' | 'skolem'
    roots: tuple = ()
    component: Optional[int] = None
    bound: Optional[int] = None
    detail: str = ""


@dataclass(frozen=True)
class DriverResult:
    curve_id: str
    precision: int
    m0: Optional[int]     # reduction order of the generator (rank 1 only)
    reports: tuple
    survivors: tuple      # exact CurvePoints with rational condition value


def lift_roots(polys: list, k: int, levels: int) -> tuple:
    """Common zeros of integer polynomials known mod 3^k.  Their common
    factor 3^j is divided out, and the zeros of the quotients are lifted one
    power of 3 at a time, so level i of the polynomials is level i - j of
    the quotients.

    Returns (i, roots).  If roots is empty, the polynomials have no common
    zero mod 3^i.  Otherwise i = min(levels, k) and roots are the zeros of
    the quotients mod 3^(i - j), as symmetric residues."""
    nvars = polys[0].nvars
    polys, j = divide_out_3(polys, k)
    digits = list(itertools.product(range(P3), repeat=nvars))
    roots, i = [(0,) * nvars], 0
    while roots and j + i < min(levels, k):
        step, i = P3 ** i, i + 1
        roots = [r for base in roots for d in digits
                 for r in (tuple(b + step * x for b, x in zip(base, d)),)
                 if all(p.evaluate(r) % P3 ** i == 0 for p in polys)]
    m = P3 ** i
    return j + i, [tuple(x - m if x > m // 2 else x for x in r) for r in roots]


def _excluded_mod_3(curve: CurveInstance, walk: list) -> dict:
    """{(c, eps): whether `lift_roots` on the theta components of the coset
    c G (+T), c in [0, N), not O, would end at level 1 with no zero}.  Each
    monomial of z(sum n_i Q_i) has degree d >= 1 and valuation >= 1, and
    each s_j, j >= 1, of beta X(P + R) + gamma is 3-integral, so theta =
    s_0 = beta x + gamma mod 3, x = X(c G (+T)), has a zero mod 3 exactly
    when x = (r - gamma)/beta mod 3, r in F_3.  x = X/Z at c G and B Z/X
    at c G + T (`add_torsion`), from walk[c - 1] = (X, Y, Z); X(T) = 0.
    None where eps = 1 and X = 0 mod 3, which `_coset_base` raises on."""
    beta, gamma, b = (_Residue.of(v, P3)
                      for v in (curve.beta, curve.gamma, curve.b))
    rational = [(-gamma + r) * beta.inv() for r in range(P3)]
    # the X(c G) mod 3 at which c G, then c G + T, is kept
    at_g = {x.n for x in rational}
    at_g_t = {(b * x.inv()).n for x in rational if x.unit_mod(P3)}
    out = {(0, 1): (0, 0, 0, 0) not in at_g}
    for c, (X, _, Z) in enumerate(walk[:-1], 1):
        x = tuple([v % P3 for v in (X * Z.inv()).n])
        out[c, 0] = x not in at_g
        out[c, 1] = x not in at_g_t if any(x) else None
    return out


def _known_count_strassman(components: list, k: int, known: int,
                           even_in_var: bool = False) -> tuple:
    """Try each nonrational component; return (idx, bound) once one certifies
    at most `known` roots.  Raises PrecisionError if none does."""
    last_err = None
    for i, comp in enumerate(components):
        if comp.is_zero():
            continue
        divided, j = divide_out_3([comp], k)
        ser = divided[0]
        try:
            if even_in_var:
                # substitute m = n^2; tail floor becomes e + 1 - j
                if any(e[0] % 2 for e in ser.terms):
                    raise PrecisionError("series not even")
                ser_m = Poly(1, {(e[0] // 2,): c for e, c in ser.terms.items()})
                bound = strassman_bound(ser_m, k - j, lambda e: e + 1 - j)
            else:
                bound = strassman_bound(ser, k - j,
                                        lambda d: fact2_floor(d) - j)
        except PrecisionError as exc:
            last_err = exc
            continue
        if bound <= known:
            return i + 1, bound
    raise last_err or PrecisionError("no component certifies the root count")


def _skolem_coset(components: list, roots: list, k: int) -> tuple:
    """Prove that the one candidate root is the only 3-adic zero of the
    components: shift it to the origin and find a pair of components whose
    Skolem system has no other zero.  Returns (root, kind of the check)."""
    if len(roots) != 1:
        raise PrecisionError(f"{len(roots)} candidate roots")
    root = roots[0]
    shifted = [poly_mod(poly_shift(c, root), P3 ** k)
               for c in components if not c.is_zero()]
    last = None
    for pair in itertools.combinations(shifted, 2):
        (f1, f2), _ = divide_out_3(list(pair), k)
        try:
            system = build_skolem_system(f1, f2)
        except ValueError as exc:
            last = exc
            continue
        res = skolem_check(system)
        if res["unique"]:
            return root, res["kind"]
    raise PrecisionError(f"no Skolem pair at {root} ({last})")


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


def _scan_condition_points(curve: CurveInstance, comps: list, c: int,
                           eps: int, N: int, k: int) -> list:
    """The points m G (+T) of the coset c G (+T), m = c + n N, |m| <= 2N,
    whose condition value is rational, as [(m, point)] ordered by |m|,
    then m < 0 (G the generator, N its reduction order, m = 0 skipped on
    the identity coset, where it is O).

    Only an n at which every nonrational theta component in `comps`
    vanishes mod 3^k gets the exact test, on the point built by
    `scalar_mul` (and `add_torsion`).  The filter is sound: at a point with
    rational condition value the exact components vanish, and their
    truncation mod 3^k drops only terms of valuation >= k at every
    n in Z_3, so the points found are all those of the coset."""
    found = []
    for m in sorted(range(c - 2 * N, 2 * N + 1, N),
                    key=lambda m: (abs(m), m < 0)):
        n = (m - c) // N
        if (m or eps) and not any(p.evaluate((n,)) % P3 ** k for p in comps):
            pt = scalar_mul(curve, m, curve.gens[0])
            pt = add_torsion(curve, pt) if eps else pt
            if condition_value(curve, pt) is not None:
                found.append((m, pt))
    return found


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
    a rank-1 curve: Strassman on each coset of the kernel of reduction."""
    return _driver(curve, k, 1)


def rank2_driver(curve: CurveInstance, k: int = 5) -> DriverResult:
    """Certify the complete list of points with rational condition value on
    a rank-2 curve: Skolem on each coset of the kernel of reduction."""
    return _driver(curve, k, 2)


def _driver(curve: CurveInstance, k: int, rank: int) -> DriverResult:
    """Run the coset driver at 3^k, and once more at 3^(k+2) if the
    truncation cannot decide some coset."""
    if len(curve.gens) != rank:
        raise ValueError(f"{curve.id} has {len(curve.gens)} generator(s); "
                         f"the rank-{rank} driver needs {rank}")
    try:
        return _cosets_once(curve, k)
    except PrecisionError:
        return _cosets_once(curve, k + 2)


def _cosets_once(curve: CurveInstance, k: int) -> DriverResult:
    """Split E(K) = <gens> + {O, T} into cosets of its kernel of reduction
    mod 3, and prove for each coset which points have a rational condition
    value.

    With the basis Q_i of `kernel_basis`, the kernel points are
    sum n_i Q_i and the cosets are c G (+T), c in [0, N); their bases and
    z(Q_i) come from the walk mod 3^(k+4).  On rank 2 only c in [0, N/2]
    are listed: T = -T, so the coset of (N - c) G (+T) is the negative of
    that of c G (+T), and X, hence the condition value, is the same at P
    and -P; each survivor is recorded with its negative.

    A coset without a common zero of the nonrational theta components mod 3
    or mod 9 (mod 3^i on rank 2) is excluded; mod 3 is read from the walk,
    through the condition value at the base mod 3 (`_excluded_mod_3`).
    Otherwise rank 1 bounds the zeros by Strassman against the points of
    the coset that `_scan_condition_points` finds from its theta
    components, and rank 2 proves by Skolem that the one zero lifted mod
    3^(k-j) is the only one.  The identity coset holds O, at n = 0.  Rank-1
    survivors are listed by (|m|, m < 0, eps) over all cosets, which puts T
    first when it qualifies."""
    if not curve_satisfies_assumption1(curve):
        raise ValueError(f"{curve.id}: inert/integrality assumptions fail")
    rank = len(curve.gens)
    walk, b, zs = kernel_basis(curve, k + 4)
    N = len(walk)
    known, survivors = {}, []     # known: (|m|, m < 0, eps) -> m G (+T)
    pack = derive_formal_series(curve, k + 5)
    logs = [padic_log(pack, z, k + 4) for z in zs]
    powers = _z_powers(z_linear_combo(pack, logs, k), k)
    reports, excluded = [], _excluded_mod_3(curve, walk)
    for eps, c in itertools.product((0, 1), range(N if rank == 1
                                                  else N // 2 + 1)):
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
            if not identity:
                level, lifted = lift_roots(comps, k, 2 if rank == 1 else k)
                if not lifted:
                    reports.append(CosetReport(c, eps,
                                               f"excluded mod {P3 ** level}"))
                    continue
            if rank == 1:
                found = _scan_condition_points(curve, comps, c, eps, N, k)
                known.update(((abs(m), m < 0, eps), pt) for m, pt in found)
                roots = tuple((m - c) // N for m, _ in found)
                # the identity coset's series is even in n: in m = n^2 the
                # pairs +-n collapse, and n = 0 (O itself) is always a root
                count = len(roots) // 2 + 1 if identity else len(roots)
                idx, bound = _known_count_strassman(comps, k, count,
                                                    even_in_var=identity)
                reports.append(CosetReport(c, eps, "strassman", roots,
                                           idx, bound))
                continue
            root, kind = _skolem_coset(
                comps, [(0,) * rank] if identity else lifted, k)
            reports.append(CosetReport(c, eps, "skolem", (root,),
                                       detail=kind))
            if identity:
                continue
            # c G (+T) + sum n_i (P_i + b_i G) + n N G, built exactly
            *ns, n = root
            pt = scalar_mul(curve, c + n * N + sum(x * y for x, y in zip(ns, b)),
                            curve.gens[-1])
            for n, P in zip(ns, curve.gens):
                pt = add_points(curve, pt, scalar_mul(curve, n, P))
            pt = add_torsion(curve, pt) if eps else pt
            if condition_value(curve, pt) is None:
                raise PrecisionError(f"root {root} fails the exact check")
            survivors += [pt, -pt]
        except PrecisionError as exc:
            raise PrecisionError(f"{curve.id} coset {c},{eps}: {exc}") from None
    return DriverResult(curve.id, k, N if rank == 1 else None, tuple(reports),
                        tuple(pt for _, pt in sorted(known.items()))
                        + tuple(survivors))
