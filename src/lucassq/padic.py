"""3-adic engine: formal-group series, theta-coefficient systems, Strassman
bounds, and the Skolem-style solver.

The prime 3 is inert in both quartic fields, so Z_3[alpha]/3^k is the right
finite model.  Everything is computed with exact rational arithmetic and
reduced mod 3^k only at the end; truncation orders are certified by the
valuation floor v(coeff of total degree d) >= floor(d/2)+1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .curves import (CurveInstance, CurvePoint, INFINITY, add_points,
                     condition_value, scalar_mul)
from .exact import Poly, resultant
from .fields import FieldDescriptor, FieldElement, three_adic_valuation

P3 = 3


class PrecisionError(ArithmeticError):
    """Truncation cannot certify the requested conclusion."""


# --- reduction helpers ------------------------------------------------------

def _residues(x: FieldElement, modulus: int) -> tuple:
    """The integer coordinates of x modulo a power of 3, through one
    inverse of the common denominator."""
    if x._d % P3 == 0:
        raise ValueError("denominator not coprime to 3")
    dinv = pow(x._d, -1, modulus)
    return tuple(c * dinv % modulus for c in x._n)


@dataclass(frozen=True)
class PadicQuartic:
    """Element of Z_3[alpha]/3^k with canonical integer coordinates."""

    field_id: str
    k: int
    coords: tuple

    @classmethod
    def from_element(cls, x: FieldElement, k: int) -> "PadicQuartic":
        return cls(x.field.id, k, _residues(x, P3 ** k))

    def valuation(self) -> int:
        """min_i v_3(c_i), capped at k."""
        best = self.k
        for c in self.coords:
            v = 0
            while c and c % P3 == 0 and v < self.k:
                c //= P3
                v += 1
            if c:
                best = min(best, v)
        return best

    def __repr__(self):
        return f"PadicQuartic({self.field_id}, mod 3^{self.k}, {self.coords})"


def reduce_element(x: FieldElement, k: int) -> FieldElement:
    """Small exact representative of x mod 3^k (integer coordinates)."""
    return x.field.integral(_residues(x, P3 ** k))


# --- series utilities (dicts degree -> coefficient) -------------------------

def _ser_mul(a: dict, b: dict, order: int) -> dict:
    out: dict = {}
    for da, ca in a.items():
        for db, cb in b.items():
            d = da + db
            if d > order:
                continue
            s = out.get(d, 0) + ca * cb
            if s:
                out[d] = s
            else:
                out.pop(d, None)
    return out


def _ser_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for d, c in b.items():
        s = out.get(d, 0) + c
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def _ser_scale(a: dict, c) -> dict:
    return {d: c * v for d, v in a.items() if c * v}


def _ser_inv(a: dict, order: int, one) -> dict:
    """Inverse of a series with constant term 1."""
    assert a.get(0) == one or a.get(0) == 1
    rest = {d: c for d, c in a.items() if d != 0}
    out = {0: one}
    power = {0: one}
    for _ in range(order):
        power = _ser_mul(power, rest, order)
        if not power:
            break
        out = _ser_add(out, _ser_scale(power, (-1) ** (_ + 1)))
    return out


def _ser_compose(outer: dict, inner: dict, order: int, one) -> dict:
    """outer(inner(z)) truncated; inner must have no constant term."""
    assert 0 not in inner
    out: dict = {}
    power = {0: one}
    max_deg = max(outer) if outer else 0
    for d in range(0, max_deg + 1):
        if d:
            power = _ser_mul(power, inner, order)
            if not power:
                break
        c = outer.get(d)
        if c:
            out = _ser_add(out, _ser_scale(power, c))
    return out


# --- formal group series -----------------------------------------------------

@dataclass(frozen=True)
class FormalSeriesPack:
    curve: CurveInstance
    order: int
    u: dict          # w(z)/z^3 = 1 + ... (even degrees, FieldElement coeffs)
    u_inv: dict
    log: dict        # odd degrees; Fraction*FieldElement coefficients
    exp: dict


def derive_formal_series(curve: CurveInstance, order: int = 7) -> FormalSeriesPack:
    """Formal-group data for Y^2 = X(X^2 + A X + B): iterate
    w = z^3 + A z^2 w + B z w^2, then log = int dx/(2y) and exp = log^(-1)."""
    fld = curve.field
    one = fld.one()
    A, B = curve.a, curve.b
    # u = w/z^3 satisfies u = 1 + A z^2 u + B z^4 u^2
    u = {0: one}
    for _ in range(order + 2):
        u2 = _ser_mul(u, u, order)
        nxt = _ser_add({0: one},
                       _ser_add(_ser_scale({d + 2: c for d, c in u.items() if d + 2 <= order}, A),
                                _ser_scale({d + 4: c for d, c in u2.items() if d + 4 <= order}, B)))
        if nxt == u:
            break
        u = nxt
    u_inv = _ser_inv(u, order, one)
    # log'(z) = 1 + z u'(z) / (2 u(z)); integrate.
    du = {d - 1: d * c for d, c in u.items() if d}
    zdu = {d + 1: c for d, c in du.items()}
    logp = _ser_add({0: one}, _ser_scale(_ser_mul(zdu, u_inv, order), Fraction(1, 2)))
    log = {d + 1: c / (d + 1) for d, c in logp.items() if d + 1 <= order}
    # exp by solving [t^d] log(exp t) = 0 degree by degree
    exp = {1: one}
    for d in range(3, order + 1, 2):
        comp = _ser_compose(log, exp, d, one)
        c = comp.get(d)
        if c:
            exp[d] = -c
    return FormalSeriesPack(curve, order, u, u_inv, log, exp)


def z_of_point(pt: CurvePoint) -> FieldElement:
    """Exact z = -X/Y for a point in the kernel of reduction at 3."""
    if pt.at_infinity:
        raise ValueError("finite point required")
    v = three_adic_valuation(pt.x)
    if v is None or v > -2:
        raise ValueError("not in kernel of reduction")
    return -pt.x / pt.y


def z_coordinate(curve: CurveInstance, pt: CurvePoint, k: int) -> PadicQuartic:
    return PadicQuartic.from_element(z_of_point(pt), k)


def padic_log(pack: FormalSeriesPack, z: FieldElement, k: int) -> FieldElement:
    """Exact truncated log evaluated at an exact z with v(z) >= 1, returned
    as a small representative mod 3^k."""
    if (three_adic_valuation(z) or 0) < 1:
        raise ValueError("v(z) >= 1 required")
    total = z.field.zero()
    zp = z.field.one()
    prev = 0
    for d in sorted(pack.log):
        for _ in range(d - prev):
            zp = zp * z
        prev = d
        total = total + pack.log[d] * zp
    return reduce_element(total, k)


def padic_exp(pack: FormalSeriesPack, t: FieldElement, k: int) -> FieldElement:
    if (three_adic_valuation(t) or 0) < 1:
        raise ValueError("v(t) >= 1 required")
    total = t.field.zero()
    tp = t.field.one()
    prev = 0
    for d in sorted(pack.exp):
        for _ in range(d - prev):
            tp = tp * t
        prev = d
        total = total + pack.exp[d] * tp
    return reduce_element(total, k)


# --- z(n1 Q1 + n2 Q2) as a polynomial ----------------------------------------

def fact2_floor(d: int) -> int:
    """Valuation floor for the coefficient of a total-degree-d monomial."""
    return d // 2 + 1 if d >= 1 else 0


def max_useful_degree(k: int) -> int:
    """Largest total degree whose coefficients can be nonzero mod 3^k."""
    d = 1
    while fact2_floor(d + 1) < k:
        d += 1
    return d


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
    one = logs[0].field.one()
    out = Poly(nvars)
    power = Poly.constant(nvars, one)
    prev = 0
    for d in sorted(pack.exp):
        if d > dmax:
            break
        for _ in range(d - prev):
            power = power.mul_truncated(s, dmax)
        prev = d
        coeff = pack.exp[d]
        out = out + power.map_coeffs(lambda c, e=coeff: e * c)
    return out


def poly_components_mod(poly: Poly, k: int) -> list:
    """Split a Poly with FieldElement coefficients into 4 integer-coefficient
    Polys (power-basis components) reduced mod 3^k."""
    m = P3 ** k
    comps = [dict() for _ in range(4)]
    for e, c in poly.terms.items():
        for i, v in enumerate(_residues(c, m)):
            if v:
                comps[i][e] = v
    return [Poly(poly.nvars, d) for d in comps]


# --- beta*X(P+R)+gamma and 1/(beta*X(R)+gamma) as series in z -----------------

def beta_x_series(curve: CurveInstance, x0, y0, order: int = 4,
                  pack: Optional[FormalSeriesPack] = None) -> list:
    """Coefficients s_0..s_order of beta*X(P+R)+gamma as a series in z(R).

    x0, y0 may be FieldElements (concrete base point P, including the
    2-torsion (0,0)) or Polys over the field (symbolic).  Built from the
    chord formula with x(R), y(R) Laurent series:
      X(P+R) = lambda^2 - A - X0 - x,  lambda = (Y0 - y)/(X0 - x).
    """
    if pack is None:
        pack = derive_formal_series(curve, order + 3)
    one = curve.field.one()
    n = order
    N = n + 2  # internal order: the output sees z^(d+2) of the Laurent part
    if pack.order < N:
        pack = derive_formal_series(curve, N)
    u = {d: c for d, c in pack.u.items() if d <= N}
    u_inv = {d: c for d, c in pack.u_inv.items() if d <= N}
    s = {d + 2: c for d, c in u.items() if d + 2 <= N}       # z^2 u
    t = {d + 3: c for d, c in u.items() if d + 3 <= N}       # z^3 u
    # (X0 - x)^(-1) = -z^2 u * sum_m (X0 z^2 u)^m
    geo: dict = {0: one}
    power = {0: one}
    for m in range(1, N // 2 + 1):
        power = _ser_mul(power, s, N)
        power = {d: x0 * c for d, c in power.items()}
        geo = _ser_add(geo, power)
    # lambda*z = -(1 + Y0 z^3 u) * geo
    lam_z = _ser_scale(_ser_mul(_ser_add({0: one}, {d: y0 * c for d, c in t.items()}),
                                geo, N), -1)
    lam_z2 = _ser_mul(lam_z, lam_z, N)
    # X(P+R) = z^-2 (lam_z^2 - u_inv) - A - X0
    diff = _ser_add(lam_z2, _ser_scale(u_inv, -1))
    assert not diff.get(0), "z^-2 singularity failed to cancel"
    xpr = {d - 2: c for d, c in diff.items() if 0 < d and d - 2 <= n}
    const = xpr.get(0, 0) - curve.a - x0
    out = [0] * (n + 1)
    out[0] = curve.beta * const + curve.gamma
    for d in range(1, n + 1):
        c = xpr.get(d)
        if c:
            out[d] = curve.beta * c
    return out


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
    s = {d + 2: c for d, c in pack.u.items() if d + 2 <= n}  # z^2 u
    # 1/(beta x + gamma) = (z^2 u / beta) * (1 + (gamma/beta) z^2 u)^(-1)
    ratio = curve.gamma / curve.beta
    geo: dict = {0: one}
    power = {0: one}
    for m in range(1, n // 2 + 1):
        power = _ser_mul(power, _ser_scale(s, -ratio), n)
        geo = _ser_add(geo, power)
    full = _ser_mul(_ser_scale(s, curve.beta.inv()), geo, n)
    out = [0] * (n + 1)
    for d, c in full.items():
        out[d] = c
    return out


def theta_components(series_coeffs: list, z_poly: Poly, k: int) -> list:
    """Substitute the z polynomial into a z-series and split into the four
    power-basis component polynomials mod 3^k."""
    dmax = max_useful_degree(k)
    fld = None
    for c in series_coeffs:
        if isinstance(c, FieldElement):
            fld = c.field
            break
    total = Poly(z_poly.nvars)
    power = Poly.constant(z_poly.nvars, fld.one())
    for j, c in enumerate(series_coeffs):
        if j:
            power = power.mul_truncated(z_poly, dmax)
        if c:
            total = total + power.map_coeffs(lambda q, cc=c: cc * q)
    return poly_components_mod(total, k)


# --- Strassman and Skolem ------------------------------------------------------

def _coeff_val(c: int, cap: int) -> int:
    c = abs(c)
    if c == 0:
        return cap
    v = 0
    while c % P3 == 0 and v < cap:
        c //= P3
        v += 1
    return v


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
    vals = {e[0]: _coeff_val(c, k) for e, c in series.terms.items()}
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
    h1: Optional[Poly] = None
    h2: Optional[Poly] = None


def _mod3(poly: Poly) -> Poly:
    return Poly(poly.nvars, {e: c % P3 for e, c in poly.terms.items() if c % P3})


def build_skolem_system(f1: Poly, f2: Poly) -> SkolemSystem:
    """Extract lowest homogeneous parts and verify the structural
    hypotheses (homogeneity, no lower-degree monomials)."""
    lows = []
    degs = []
    for f in (f1, f2):
        f0 = _mod3(f)
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

    Linear lowest parts: determinant mod 3.  Otherwise eliminate by
    resultants to get H_r(x_r) whose only root mod 3 must be 0.
    """
    f01, f02 = system.lowest1, system.lowest2
    if system.d1 == 1 and system.d2 == 1:
        a11 = f01.coefficient((1, 0))
        a12 = f01.coefficient((0, 1))
        a21 = f02.coefficient((1, 0))
        a22 = f02.coefficient((0, 1))
        det = (a11 * a22 - a12 * a21) % P3
        return {"kind": "linear", "det_mod_3": det,
                "unique": det != 0}
    hs = []
    for r in (0, 1):
        other = 1 - r
        if all(e[other] == 0 for e in f01.terms):
            h = Poly(1, {(e[r],): c for e, c in f01.terms.items()})
        elif all(e[other] == 0 for e in f02.terms):
            h = Poly(1, {(e[r],): c for e, c in f02.terms.items()})
        else:
            q1 = f01.map_coeffs(Fraction)
            q2 = f02.map_coeffs(Fraction)
            h = resultant(q1, q2, eliminate=other)
            h = h.map_coeffs(lambda c: int(c))
        hs.append(h)
    unique = True
    for h in hs:
        hm = _mod3(h)
        if hm.is_zero():
            return {"kind": "resultant", "unique": False,
                    "reason": "H vanishes mod 3"}
        for x in (1, 2):
            if sum(c * pow(x, e[0], P3) for e, c in hm.terms.items()) % P3 == 0:
                unique = False
    return {"kind": "resultant", "unique": unique,
            "H1": hs[0], "H2": hs[1]}


def poly_shift(poly: Poly, shifts: tuple) -> Poly:
    """Substitute x_i -> x_i + shifts[i]."""
    n = poly.nvars
    vars_shifted = [Poly.variable(i, n) + Poly.constant(n, shifts[i])
                    for i in range(n)]
    out = Poly(n)
    for e, c in poly.terms.items():
        term = Poly.constant(n, c)
        for i, p in enumerate(e):
            term = term * vars_shifted[i] ** p
        out = out + term
    return out


def poly_mod(poly: Poly, modulus: int) -> Poly:
    return Poly(poly.nvars, {e: c % modulus for e, c in poly.terms.items()
                             if c % modulus})


def divide_out_3(polys: list, k: int) -> tuple:
    """Divide a list of component polys by the largest common power of 3;
    returns (divided polys mod 3^(k-j), j)."""
    j = k
    for p in polys:
        for c in p.terms.values():
            j = min(j, _coeff_val(c, k))
        if j == 0:
            break
    if j == 0:
        return polys, 0
    d = P3 ** j
    return [Poly(p.nvars, {e: c // d for e, c in p.terms.items()})
            for p in polys], j


# --- assumption gates ---------------------------------------------------------

def defining_poly_irreducible_mod3(fld: FieldDescriptor) -> bool:
    """No roots in F_3 and no monic quadratic factor over F_3."""
    f = [int(c) % P3 for c in fld.defining_poly]
    for x in range(P3):
        if sum(c * pow(x, i, P3) for i, c in enumerate(f)) % P3 == 0:
            return False
    for b in range(P3):
        for c in range(P3):
            # divide f by x^2 + b x + c over F_3
            rem = list(f)
            for i in range(len(rem) - 1, 1, -1):
                q = rem[i] % P3
                if q:
                    rem[i] = 0
                    rem[i - 1] = (rem[i - 1] - q * b) % P3
                    rem[i - 2] = (rem[i - 2] - q * c) % P3
            if rem[0] % P3 == 0 and rem[1] % P3 == 0:
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
    verdict: str          # 'excluded mod 3' | 'excluded mod 9' | 'strassman' | 'skolem'
    roots: tuple = ()
    component: Optional[int] = None
    bound: Optional[int] = None
    detail: str = ""


@dataclass(frozen=True)
class DriverResult:
    curve_id: str
    precision: int
    m0: Optional[int]
    reports: tuple
    survivors: tuple      # exact CurvePoints with rational condition value


def _simultaneous_roots_mod(thetas: list, modulus: int, nvars: int) -> list:
    """Residue tuples where all the given component polys vanish."""
    out = []
    ranges = [range(modulus)] * nvars

    def rec(prefix):
        if len(prefix) == nvars:
            if all(sum(c * _monomial(prefix, e, modulus) for e, c in t.terms.items()) % modulus == 0
                   for t in thetas):
                out.append(tuple(prefix))
            return
        for v in ranges[len(prefix)]:
            rec(prefix + [v])

    rec([])
    return out


def _monomial(vals, e, modulus):
    r = 1
    for v, p in zip(vals, e):
        r = r * pow(v, p, modulus) % modulus
    return r


def _nonrational_components(thetas4: list) -> list:
    """Components 1..3 (the parts that must vanish for rationality)."""
    return thetas4[1:]


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


def _scan_condition_points(curve: CurveInstance, span: int) -> tuple:
    """Exact scan of the multiples m in [-span, span] of the generator
    (+ eps*T).  Returns ({(m, eps): point} for those whose condition value
    is rational, [0*G, 1*G, ..., span*G])."""
    G = curve.gens[0]
    T = curve.torsion
    found = {}
    mults = [INFINITY]
    pts = {0: INFINITY}
    for m in range(1, span + 1):
        mults.append(add_points(curve, mults[-1], G))
        pts[m] = mults[m]
        pts[-m] = -mults[m]
    for m, p in pts.items():
        for eps in (0, 1):
            q = add_points(curve, p, T) if eps else p
            if q.at_infinity:
                continue
            if condition_value(curve, q) is not None:
                found[(m, eps)] = q
    return found, mults


def reduction_order(curve: CurveInstance, cap: int = 300) -> int:
    """Order of the generator in the reduction mod 3: smallest m with
    mG in the kernel (v(X) <= -2)."""
    G = curve.gens[0]
    pt = INFINITY
    for m in range(1, cap + 1):
        pt = add_points(curve, pt, G)
        if not pt.at_infinity:
            v = three_adic_valuation(pt.x)
            if v is not None and v <= -2:
                return m
    raise PrecisionError("reduction order exceeds cap")


def rank1_driver(curve: CurveInstance, k: int = 5,
                 escalate: bool = True) -> DriverResult:
    """Certify the complete list of points P with rational condition value on
    a rank-1 curve: split E(K) into cosets of <Q1> (Q1 = m0*G in the kernel
    of reduction), exclude cosets mod 3/9, and bound the remaining ones by
    Strassman applied to the theta components."""
    try:
        return _rank1_once(curve, k)
    except PrecisionError:
        if not escalate:
            raise
        return _rank1_once(curve, k + 2)


def _rank1_once(curve: CurveInstance, k: int) -> DriverResult:
    if not curve_satisfies_assumption1(curve):
        raise ValueError(f"{curve.id}: inert/integrality assumptions fail")
    m0 = reduction_order(curve)
    T = curve.torsion
    order = k + 2
    pack = derive_formal_series(curve, order + 3)
    known, mults = _scan_condition_points(curve, 2 * m0)
    Q1 = mults[m0]
    L1 = padic_log(pack, z_of_point(Q1), k + 4)
    zpoly = z_linear_combo(pack, [L1], k)
    reports = []
    survivors = [pt for pt in known.values()]
    for eps in (0, 1):
        for c in range(m0):
            if c == 0 and eps == 0:
                # coset of O: series for 1/(beta X + gamma), even in n
                inv = inverse_beta_x_series(curve, order=k + 1, pack=pack)
                thetas = theta_components(inv, zpoly, k)
                comps = _nonrational_components(thetas)
                roots = [(m - c) // m0 for (m, e) in known
                         if e == eps and (m - c) % m0 == 0]
                # in the substituted variable m = n^2: pairs +-n collapse,
                # and n = 0 (the point O itself) is always a root
                idx, bound = _known_count_strassman(
                    comps, k, len(roots) // 2 + 1, even_in_var=True)
                reports.append(CosetReport(c, eps, "strassman",
                                           tuple(roots), idx, bound))
                continue
            base = add_points(curve, mults[c], T) if eps else mults[c]
            bv = three_adic_valuation(base.x)
            if bv is not None and bv < 0:
                raise PrecisionError(
                    f"{curve.id}: coset base {c},{eps} in kernel of reduction")
            x0 = reduce_element(base.x, k + 4)
            y0 = reduce_element(base.y, k + 4)
            ser = beta_x_series(curve, x0, y0, order=k - 1, pack=pack)
            thetas = theta_components(ser, zpoly, k)
            comps = _nonrational_components(thetas)
            if not _simultaneous_roots_mod(comps, 3, 1):
                reports.append(CosetReport(c, eps, "excluded mod 3"))
                continue
            if not _simultaneous_roots_mod(comps, 9, 1):
                reports.append(CosetReport(c, eps, "excluded mod 9"))
                continue
            roots = [(m - c) // m0 for (m, e) in known
                     if e == eps and (m - c) % m0 == 0]
            idx, bound = _known_count_strassman(comps, k, len(roots))
            reports.append(CosetReport(c, eps, "strassman",
                                       tuple(roots), idx, bound))
    return DriverResult(curve.id, k, m0, tuple(reports), tuple(survivors))


def rank2_driver(curve: CurveInstance, k: int = 5,
                 escalate: bool = True) -> DriverResult:
    try:
        return _rank2_once(curve, k)
    except PrecisionError:
        if not escalate:
            raise
        return _rank2_once(curve, k + 2)


def _rank2_once(curve: CurveInstance, k: int) -> DriverResult:
    """Two-variable analogue for the rank-2 curve: kernel basis
    Q1 = P1 + 8 P2, Q2 = 24 P2; 26 cosets (T = -T symmetry); Skolem-style
    exclusion after shifting off the known root."""
    if not curve_satisfies_assumption1(curve):
        raise ValueError(f"{curve.id}: inert/integrality assumptions fail")
    P1, P2 = curve.gens
    T = curve.torsion
    mults = [INFINITY]                    # c * P2 for c = 0..12
    for _ in range(12):
        mults.append(add_points(curve, mults[-1], P2))
    Q1 = add_points(curve, P1, mults[8])
    Q2 = add_points(curve, mults[12], mults[12])
    order = k + 2
    pack = derive_formal_series(curve, order + 3)
    L1 = padic_log(pack, z_of_point(Q1), k + 4)
    L2 = padic_log(pack, z_of_point(Q2), k + 4)
    zpoly = z_linear_combo(pack, [L1, L2], k)
    reports = []
    survivors = []

    def solve_coset(c, eps, thetas):
        comps = _nonrational_components(thetas)
        if not _simultaneous_roots_mod(comps, 3, 2):
            return CosetReport(c, eps, "excluded mod 3"), []
        if not _simultaneous_roots_mod(comps, 9, 2):
            return CosetReport(c, eps, "excluded mod 9"), []
        # candidate roots: small integer pairs vanishing mod 3^k, verified
        # afterwards on the exact curve
        cands = []
        m = P3 ** k
        for n1 in range(-4, 5):
            for n2 in range(-4, 5):
                if all(t.evaluate([n1, n2]) % m == 0 for t in comps
                       if not t.is_zero()):
                    cands.append((n1, n2))
        if len(cands) != 1:
            raise PrecisionError(
                f"coset {c},{eps}: {len(cands)} candidate roots")
        r1, r2 = cands[0]
        # shift the known root to the origin and run the Skolem check on a
        # pair of components
        last = None
        for i in range(len(comps)):
            for jdx in range(len(comps)):
                if i == jdx or comps[i].is_zero() or comps[jdx].is_zero():
                    continue
                f1 = poly_mod(poly_shift(comps[i], (r1, r2)), P3 ** k)
                f2 = poly_mod(poly_shift(comps[jdx], (r1, r2)), P3 ** k)
                (f1, f2), _ = divide_out_3([f1, f2], k)
                try:
                    system = build_skolem_system(f1, f2)
                except ValueError as exc:
                    last = exc
                    continue
                res = skolem_check(system)
                if res["unique"]:
                    return (CosetReport(c, eps, "skolem", ((r1, r2),),
                                        detail=res["kind"]),
                            [(r1, r2)])
        raise PrecisionError(f"coset {c},{eps}: no Skolem pair ({last})")

    # R-only coset
    inv = inverse_beta_x_series(curve, order=k + 1, pack=pack)
    thetas = theta_components(inv, zpoly, k)
    rep, roots = solve_coset(0, 0, thetas)
    if roots != [(0, 0)]:
        raise PrecisionError("unexpected root in the identity coset")
    reports.append(rep)

    for eps in (0, 1):
        krange = range(1, 13) if eps == 0 else range(0, 13)
        for c in krange:
            base = add_points(curve, mults[c], T) if eps else mults[c]
            bv = three_adic_valuation(base.x) if not base.at_infinity else None
            if bv is not None and bv < 0:
                raise PrecisionError(
                    f"{curve.id}: coset base {c},{eps} in kernel")
            x0 = reduce_element(base.x, k + 4)
            y0 = reduce_element(base.y, k + 4)
            ser = beta_x_series(curve, x0, y0, order=k - 1, pack=pack)
            thetas = theta_components(ser, zpoly, k)
            rep, roots = solve_coset(c, eps, thetas)
            reports.append(rep)
            for (r1, r2) in roots:
                pt = add_points(curve, base,
                                add_points(curve,
                                           scalar_mul(curve, r1, Q1),
                                           scalar_mul(curve, r2, Q2)))
                if condition_value(curve, pt) is None:
                    raise PrecisionError(
                        f"candidate root {(r1, r2)} fails exact check")
                survivors.append(pt)
                survivors.append(-pt)
    return DriverResult(curve.id, k, None, tuple(reports), tuple(survivors))
