"""Output checks for the benchmark, made apart from the program.

Nothing here imports `lucassq`.  The two quartic fields, the twelve descent
curves, the group law, characteristic and minimal polynomials and the Lucas
terms are all computed again from their definitions, with exact `int` and
`Fraction` arithmetic.  Each checker takes the program's output as parsed
JSON and returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# --- the quartic fields Q[a]/(f) --------------------------------------------------

# Monic defining polynomials, low to high: K1 = Q(theta), K2 = Q(phi).
FIELD_POLY = {"K1": (-1, 0, 2, 0, 1), "K2": (-4, 0, 4, 0, 1)}


def _elem(*coords):
    return tuple(Fraction(c) for c in coords) + (Fraction(0),) * (4 - len(coords))


def fmul(fid, x, y):
    """Product in Q[a]/(f): schoolbook product, then fold the top degrees
    down with a^4 = -(f0 + f1 a + f2 a^2 + f3 a^3)."""
    prod = [Fraction(0)] * 7
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                prod[i + j] += xi * yj
    f = FIELD_POLY[fid]
    for top in range(6, 3, -1):
        c = prod[top]
        if c:
            prod[top] = Fraction(0)
            for i in range(4):
                prod[top - 4 + i] -= c * f[i]
    return tuple(prod[:4])


def fadd(x, y):
    return tuple(a + b for a, b in zip(x, y))


def fsub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def fscale(x, c):
    return tuple(a * c for a in x)


def _pdivmod(num, den):
    """Division with remainder of dense polynomials (low to high)."""
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        shift = len(num) - len(den)
        c = num[-1] / den[-1]
        q[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
        num.pop()
        while num and not num[-1]:
            num.pop()
    return q, num


def _ptrim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def finv(fid, x):
    """Inverse by the extended Euclidean algorithm in Q[t]: s x + t f = 1."""
    f = [Fraction(c) for c in FIELD_POLY[fid]]
    r0, r1 = f, _ptrim(x)
    if not r1:
        raise ZeroDivisionError("inverse of zero")
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, r = _pdivmod(r0, r1)
        r = _ptrim(r)
        qs = [Fraction(0)] * (len(q) + len(s1))
        for i, a in enumerate(q):
            for j, b in enumerate(s1):
                qs[i + j] += a * b
        s2 = [(s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0)
              for i in range(max(len(s0), len(qs)))]
        r0, r1, s0, s1 = r1, r, s1, _ptrim(s2)
    c = r1[0]
    _, s = _pdivmod([a / c for a in s1], f)
    return tuple(s[i] if i < len(s) else Fraction(0) for i in range(4))


# --- the descent curves Y^2 = X (X^2 + A X + B) ----------------------------------

H, Q4 = Fraction(1, 2), Fraction(1, 4)
THETA = _elem(0, 1)
PHI = _elem(0, 1)
ONE = _elem(1)
ETA2 = _elem(2, -3, 1, -1)
EPS1 = _elem(0, H, 0, Q4)
EPS2 = _elem(2, 2, H, H)


def _curve(fid, eq, delta, gens):
    """A, B and the rationality condition beta X + gamma of one curve, from
    the descent equation and the twist unit delta."""
    d, d2 = delta, fmul(fid, delta, delta)
    if eq in ("eq1", "eq2"):
        t2 = fmul(fid, THETA, THETA)
        a = (fscale(fmul(fid, fadd(THETA, t2), d), -1) if eq == "eq1"
             else fmul(fid, _elem(-1, -2, 0, -1), d))
        b = fmul(fid, _elem(1, 1, 0, 1), d2)
        beta = fscale(finv(fid, fmul(fid, _elem(1, 1), d)), 2)
        gamma = fscale(THETA if eq == "eq1" else finv(fid, THETA), -1)
    else:
        phi_inv = finv(fid, PHI)
        if eq == "eq3":
            a = fscale(fmul(fid, PHI, d), -1)
            b = fmul(fid, _elem(1, 0, H), d2)
            gamma = fscale(PHI, -2)
        else:
            a = fscale(fmul(fid, phi_inv, d), -2)
            b = fmul(fid, fsub(fscale(fmul(fid, phi_inv, phi_inv), 2), ONE), d2)
            gamma = fscale(phi_inv, -4)
        beta = fscale(finv(fid, d), 4)
    return {"field": fid, "a": a, "b": b, "beta": beta, "gamma": gamma,
            "gens": tuple((_elem(*x), _elem(*y)) for x, y in gens)}


CURVES = {
    "E1": _curve("K1", "eq1", ONE, [((Fraction(3, 2), 2, H), (-2, -3, -H, Fraction(-5, 2)))]),
    "E2": _curve("K1", "eq1", ETA2, [((H, 0, -H), (H, -H))]),
    "E3": _curve("K1", "eq2", THETA, [((H, 0, -H), (0, 0, H, H))]),
    "E4": _curve("K1", "eq2", fmul("K1", THETA, ETA2), [((H, 0, -H), (0, 0, H, -H))]),
    "E5": _curve("K2", "eq3", ONE, [((2, -2, H, -H), (5, -5, 1, -1))]),
    "E6": _curve("K2", "eq3", EPS1, [((1, 0, -H), (1, 0, -H))]),
    "E7": _curve("K2", "eq3", EPS2, [((1, H, 0, Q4), (-3, -3, -H, -H))]),
    "E8": _curve("K2", "eq3", fmul("K2", EPS1, EPS2), [((1, H, 0, Q4), (-2, -2, 0, -H))]),
    "E9": _curve("K2", "eq4", ONE, [((1, H, 0, Q4), (0, -1))]),
    "E10": _curve("K2", "eq4", EPS1, [((1,), (0, 0, H)),
                                      ((0, H, H, -Q4), (1, 0, Fraction(-3, 2)))]),
    "E11": _curve("K2", "eq4", EPS2, [((2, 2, H, H), (-2, -2, -H, -H))]),
    "E12": _curve("K2", "eq4", fmul("K2", EPS1, EPS2), [((1, H, 0, Q4), (-1, -1, -H, -H))]),
}

INF = None  # the point at infinity


def on_curve(cid, pt) -> bool:
    if pt is INF:
        return True
    c = CURVES[cid]
    fid, (x, y) = c["field"], pt
    xx = fmul(fid, x, x)
    rhs = fmul(fid, x, fadd(fadd(xx, fmul(fid, c["a"], x)), c["b"]))
    return fmul(fid, y, y) == rhs


def add(cid, p, q):
    """Chord-and-tangent law on y^2 = x^3 + A x^2 + B x."""
    if p is INF:
        return q
    if q is INF:
        return p
    c = CURVES[cid]
    fid = c["field"]
    (x1, y1), (x2, y2) = p, q
    if x1 == x2:
        if fadd(y1, y2) == _elem():
            return INF
        num = fadd(fadd(fscale(fmul(fid, x1, x1), 3),
                        fscale(fmul(fid, c["a"], x1), 2)), c["b"])
        lam = fmul(fid, num, finv(fid, fscale(y1, 2)))
    else:
        lam = fmul(fid, fsub(y2, y1), finv(fid, fsub(x2, x1)))
    x3 = fsub(fsub(fsub(fmul(fid, lam, lam), c["a"]), x1), x2)
    y3 = fsub(fmul(fid, lam, fsub(x1, x3)), y1)
    return (x3, y3)


def neg(p):
    return INF if p is INF else (p[0], fscale(p[1], -1))


def mul(cid, k, p):
    if k < 0:
        return mul(cid, -k, neg(p))
    acc = INF
    for _ in range(k):
        acc = add(cid, acc, p)
    return acc


def condition_value(cid, x):
    """beta X + gamma if rational, else None."""
    c = CURVES[cid]
    v = fadd(fmul(c["field"], c["beta"], x), c["gamma"])
    return v[0] if not any(v[1:]) else None


# --- characteristic and minimal polynomials ----------------------------------------

def _power_sums(fid):
    """Tr(a^i), i = 0..3, the power sums of the roots of f (Newton)."""
    f = FIELD_POLY[fid]
    p = [Fraction(4)]
    for k in range(1, 4):
        s = -k * f[4 - k]
        for i in range(1, k):
            s -= f[4 - i] * p[k - i]
        p.append(Fraction(s))
    return p


def trace(fid, x):
    return sum(c * s for c, s in zip(x, _power_sums(fid)))


def charpoly(fid, x):
    """Characteristic polynomial of multiplication by x, monic, low to high,
    from the traces of x, x^2, x^3, x^4 by Newton's identities."""
    s, pw = [], ONE
    for _ in range(4):
        pw = fmul(fid, pw, x)
        s.append(trace(fid, pw))
    e = [Fraction(1)]
    for k in range(1, 5):
        e.append(sum((-1) ** (i - 1) * e[k - i] * s[i - 1]
                     for i in range(1, k + 1)) / k)
    return [e[4], -e[3], e[2], -e[1], Fraction(1)]


def minimal_polynomial(fid, x):
    """Squarefree part of the characteristic polynomial, monic."""
    f = charpoly(fid, x)
    df = _ptrim([i * c for i, c in enumerate(f)][1:])
    g, h = f, df
    while h:
        g, h = h, _ptrim(_pdivmod(g, h)[1])
    q, _ = _pdivmod(f, g)
    q = _ptrim(q)
    return [c / q[-1] for c in q]


# --- generator-certificate boxes -------------------------------------------------

# Coefficient boxes for minimal polynomials of X-coordinates of small height:
# tag -> (multipliers, parities (index, modulus, residue), denominator).  A
# box vector v stands for X^d + v1 m1 X^(d-1) + ... + vd md / denominator.
SHAPES = {
    "quartic": ((4, 2, 4, 1), (), 1),
    "quadratic": ((2, 1), (), 1),
    "linear": ((1,), (), 1),
    "quartic-halfint": ((4, 1, 2, 1), ((1, 2, 1), (3, 2, 1)), 4),
    "quadratic-halfint": ((2, 1), ((1, 4, 3),), 4),
}


def box_vector(tag, poly):
    mults, _, den = SHAPES[tag]
    if len(poly) != len(mults) + 1:
        return None
    high = list(reversed(poly[:-1]))
    high[-1] *= den
    vec = [Fraction(a) / m for a, m in zip(high, mults)]
    if any(v.denominator != 1 for v in vec):
        return None
    return tuple(int(v) for v in vec)


def in_box(tag, ranges, vec):
    _, parities, _ = SHAPES[tag]
    return (vec is not None
            and all(abs(v) <= r for v, r in zip(vec, ranges))
            and all(vec[i] % m == res for i, m, res in parities))


def box_size(tag, ranges) -> int:
    """Number of box vectors the enumeration screens: the product of the
    ranges, with the parity conditions applied per coordinate."""
    _, parities, _ = SHAPES[tag]
    total = 1
    for i, r in enumerate(ranges):
        vals = range(-r, r + 1)
        for idx, m, res in parities:
            if idx == i:
                vals = [v for v in vals if v % m == res]
        total *= len(vals)
    return total


def box_oracle(cid, shapes, span=3):
    """X-coordinates of sum m_i gen_i (+T), |m_i| <= span, whose exact
    minimal polynomial lies in one of the boxes (tag, ranges)."""
    c = CURVES[cid]
    fid, gens = c["field"], c["gens"]
    t = (_elem(), _elem())
    multiples = [{m: mul(cid, m, g) for m in range(-span, span + 1)} for g in gens]
    found = set()
    for ms in itertools.product(range(-span, span + 1), repeat=len(gens)):
        base = INF
        for m, table in zip(ms, multiples):
            base = add(cid, base, table[m])
        for pt in (base, add(cid, base, t)):
            if pt is INF:
                continue
            mpoly = minimal_polynomial(fid, pt[0])
            if any(in_box(tag, ranges, box_vector(tag, mpoly))
                   for tag, ranges in shapes):
                found.add(pt[0])
    return found


# --- Lucas terms ------------------------------------------------------------------

def u8(p, q):
    u0, u1 = 0, 1
    for _ in range(8):
        u0, u1 = u1, p * u1 - q * u0
    return u0


def nondegenerate(p, q) -> bool:
    """P != 0, Q != 0 and P^2/Q not in {0, 1, 2, 3, 4}."""
    return p != 0 and q != 0 and not (q > 0 and p * p in (q, 2 * q, 3 * q, 4 * q))


def is_square(n) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


_SQUARES_MOD_64 = bytes(int(any(i * i % 64 == r for i in range(64)))
                        for r in range(64))


def census_pairs(p_max, q_max):
    """The coprime nondegenerate pairs with 0 < |P| <= p_max, 0 < |Q| <= q_max."""
    return [(p, q) for p in range(-p_max, p_max + 1) for q in range(-q_max, q_max + 1)
            if math.gcd(p, q) == 1 and nondegenerate(p, q)]


def census_terms(p_max, q_max, n_max) -> int:
    """Terms a census decides: one per index 2 <= n <= n_max and pair."""
    return len(census_pairs(p_max, q_max)) * (n_max - 1)


def census(p_max, q_max, n_max):
    """(terms, hits_per_n, n8_pairs) over the coprime nondegenerate pairs
    with 0 < |P| <= p_max, 0 < |Q| <= q_max and 2 <= n <= n_max.  U_2..U_8
    are the closed forms in P and Q; higher terms follow the recurrence."""
    hits = {}
    n8 = set()
    pairs = census_pairs(p_max, q_max)
    for p, q in pairs:
        p2, q2 = p * p, q * q
        u = [p,
             p2 - q,
             p * (p2 - 2 * q),
             p2 * p2 - 3 * p2 * q + q2,
             p * (p2 * p2 - 4 * p2 * q + 3 * q2),
             p2 * p2 * p2 - 5 * p2 * p2 * q + 6 * p2 * q2 - q2 * q,
             p * (p2 * p2 * p2 - 6 * p2 * p2 * q + 10 * p2 * q2 - 4 * q2 * q)]
        prev, cur = u[-2], u[-1]
        for _ in range(9, n_max + 1):
            prev, cur = cur, p * cur - q * prev
            u.append(cur)
        for n, v in enumerate(u[:n_max - 1], start=2):
            if v >= 0 and _SQUARES_MOD_64[v & 63] and is_square(v):
                hits[n] = hits.get(n, 0) + 1
                if n == 8:
                    n8.add((p, q))
    return len(pairs) * (n_max - 1), hits, sorted(n8)


# --- decoding ------------------------------------------------------------------------

def _rat(d):
    return Fraction(int(d["num"]), int(d["den"]))


def decode_point(d):
    if d == "infinity":
        return INF
    return (tuple(_rat(c) for c in d["x"]["coords"]),
            tuple(_rat(c) for c in d["y"]["coords"]))


# --- the checkers ------------------------------------------------------------------------

THEOREM_PAIRS = [(1, -4), (4, -17)]


def check_theorem(cert) -> list:
    """The n = 8 certificate: final pairs, their Lucas terms, every recorded
    point on its curve, every accepted condition value equal to b/a^2, and a
    driver record for each of the twelve curves."""
    bad = []
    pairs = [tuple(p) for p in cert.get("final_pairs", [])]
    if pairs != THEOREM_PAIRS:
        bad.append(f"final pairs {pairs} != {THEOREM_PAIRS}")
    for p, q in pairs:
        if math.gcd(p, q) != 1:
            bad.append(f"pair {(p, q)} not coprime")
        if not nondegenerate(p, q):
            bad.append(f"pair {(p, q)} degenerate")
        if not is_square(u8(p, q)):
            bad.append(f"U8{(p, q)} = {u8(p, q)} is not a square")
    if cert.get("partial") or cert.get("failing_cosets"):
        bad.append(f"partial certificate: {cert.get('failing_cosets')}")
    drivers = {d["curve"] for d in cert.get("drivers", [])}
    if drivers != set(CURVES):
        bad.append(f"driver records for {sorted(drivers)}, want all twelve")
    for d in cert.get("drivers", []):
        for i, enc in enumerate(d.get("survivors", [])):
            if not on_curve(d["curve"], decode_point(enc)):
                bad.append(f"{d['curve']} driver survivor {i} is off the curve")
    accepted = set()
    for i, rec in enumerate(cert.get("descents", [])):
        cid = rec["curve"]
        pt = decode_point(rec["point"])
        if not on_curve(cid, pt):
            bad.append(f"descent record {i} ({cid}) is off the curve")
            continue
        cond = rec.get("condition_value")
        if cond is not None and _rat(cond) != condition_value(cid, pt[0]):
            bad.append(f"descent record {i} ({cid}): condition value "
                       f"{_rat(cond)} != beta X + gamma")
        if rec.get("accepted"):
            if cond is None or _rat(cond) != Fraction(rec["b"], rec["a"] ** 2):
                bad.append(f"descent record {i} ({cid}): condition value is not b/a^2")
            accepted.add(tuple(rec["pair"]))
    if sorted(accepted) != pairs:
        bad.append(f"accepted descent pairs {sorted(accepted)} != final pairs {pairs}")
    return bad


def check_census(report, recount) -> list:
    """The census report against the benchmark's own recount."""
    _, hits, n8 = recount
    bad = []
    want = {str(n): c for n, c in sorted(hits.items())}
    if report.get("hits_per_n") != want:
        bad.append(f"hits_per_n {report.get('hits_per_n')} != recount {want}")
    got = [tuple(p) for p in report.get("n8_pairs", [])]
    if got != n8:
        bad.append(f"n8_pairs {got} != recount {n8}")
    return bad


# Published bounds C with h(P) - 2 hhat(P) <= C, and the conclusion each
# generator certificate must reach.
CERTIFY_EXPECT = {"E1": ("generator", 0.485252911746822),
                  "E10": ("generators", 0.732195715015999)}


def check_certify(cert) -> list:
    """One generator certificate: its conclusion, its bound C, and its box
    survivors against the exact oracle over the ranges it records."""
    cid = cert["curve"]
    conclusion, c_pub = CERTIFY_EXPECT[cid]
    bad = []
    if cert.get("conclusion") != conclusion:
        bad.append(f"{cid}: conclusion {cert.get('conclusion')!r} != {conclusion!r}")
    if abs(cert["bound_c"] - c_pub) > 1e-9 * c_pub:
        bad.append(f"{cid}: C = {cert['bound_c']!r}, published {c_pub!r}")
    got = {tuple(_rat(c) for c in x) for x in cert.get("survivors", [])}
    want = box_oracle(cid, [(tag, r) for tag, r in cert["shapes"]])
    if got != want:
        bad.append(f"{cid}: {len(got)} box survivors, the exact oracle gives "
                   f"{len(want)}; differing X: {sorted(got ^ want)}")
    return bad
