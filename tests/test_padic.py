"""3-adic formal-group series, golden coordinate values, and the
Strassman/Skolem machinery on the rank-2 curve."""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from lucassq import padic
from lucassq.curves import (CURVE_BY_ID, CURVES, INFINITY, CurvePoint,
                            add_points, add_torsion, condition_value,
                            scalar_mul)
from lucassq.exact import (Poly, poly_add, poly_diff, poly_mul,
                           poly_scale)
from lucassq.fields import K2, _residues, three_adic_valuation
from lucassq.padic import (PrecisionError, _coset_base, _cosets_once,
                           _excluded_mod_3, _known_count_strassman,
                           _scan_condition_points, _skolem_coset,
                           beta_x_series, build_skolem_system,
                           derive_formal_series, divide_out_3, fact2_floor,
                           inverse_beta_x_series, kernel_basis, lift_roots,
                           max_useful_degree, padic_exp, padic_log,
                           poly_components_mod, poly_mod, poly_shift,
                           rank1_driver, rank2_driver, reduce_element,
                           reduction_order, skolem_check, strassman_bound,
                           theta_components, z_linear_combo)

E10 = CURVE_BY_ID["E10"]
K = 5
M = 3 ** K


# --- kernel of reduction -----------------------------------------------------

# The reduction order N of each rank-1 generator, recorded as m0 in the
# certificate.
REDUCTION_ORDERS = {"E1": 6, "E2": 12, "E3": 17, "E4": 17, "E5": 17, "E6": 4,
                    "E7": 34, "E8": 12, "E9": 34, "E11": 17, "E12": 12}


def test_rank1_reduction_orders():
    """N is the length of the walk mod 3, and of the kernel basis's walk
    mod 3^(K+4), whose basis is N G alone (see the exact-walk oracle below
    for the points)."""
    for cid, n in REDUCTION_ORDERS.items():
        curve = CURVE_BY_ID[cid]
        assert len(reduction_order(curve, curve.gens[0], 1)) == n, cid
        walk, b, zs = kernel_basis(curve, K + 4)
        assert (len(walk), b, len(zs)) == (n, [], 1), cid
    E1, E10 = CURVE_BY_ID["E1"], CURVE_BY_ID["E10"]
    with pytest.raises(ValueError, match="no kernel point in 5 steps"):
        reduction_order(E1, E1.gens[0], 1, limit=5)     # N = 6
    P1, P2 = E10.gens                                   # P1 + 8 P2: 9 points
    assert len(reduction_order(E10, P2, 1, P1, limit=9)) == 9
    with pytest.raises(ValueError):
        reduction_order(E10, P2, 1, P1, limit=8)


def _in_kernel(pt):
    """Whether pt is a finite point in the kernel of reduction at 3."""
    return not pt.at_infinity and (three_adic_valuation(pt.x) or 0) <= -2


def _exact_walk(curve, P, G):
    """[P, P + G, P + 2G, ...] by the chord law, through the first point in
    the kernel of reduction."""
    pts = [P]
    while not _in_kernel(pts[-1]):
        pts.append(add_points(curve, pts[-1], G))
    return pts


@pytest.fixture(scope="module")
def exact_walks():
    """curve id -> ([G, ..., N G], [the exact walk from each earlier
    generator P_i to P_i + b_i G]), over the twelve curves."""
    out = {}
    for curve in CURVES:
        *others, G = curve.gens
        out[curve.id] = (_exact_walk(curve, G, G),
                         [_exact_walk(curve, P, G) for P in others])
    return out


def _reduced(pt, j):
    return CurvePoint(reduce_element(pt.x, j), reduce_element(pt.y, j))


def _spy(monkeypatch, name, calls):
    """Record (args, result) of each call of padic.<name>."""
    real = getattr(padic, name)

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out
    monkeypatch.setattr(padic, name, spy)


@pytest.mark.parametrize("k", range(1, 9))
def test_residue_walk_matches_exact_walk(k, exact_walks, monkeypatch):
    """At 3^k on all twelve curves, what the driver reads from the walk mod
    3^(k+4) is the exact walk reduced: N, the b_i, z(Q_i) = -X/Y on the
    kernel basis and its logs, and every coset base c G and c G + T,
    c in [0, N), mod 3^(k+4).  The driver's calls are recorded, so the
    modulus it walks in is checked too."""
    j = k + 4
    for curve in CURVES:
        mults, others = exact_walks[curve.id]
        N = len(mults)
        calls = {name: [] for name in ("kernel_basis", "_coset_base",
                                       "padic_log")}
        for name, log in calls.items():
            _spy(monkeypatch, name, log)
        try:
            _cosets_once(curve, k)
        except PrecisionError:
            pass                        # k = 1, 2: the driver escalates
        monkeypatch.undo()
        [((_, j_walk), (walk, b, zs))] = calls["kernel_basis"]
        assert (j_walk, len(walk)) == (j, N), curve.id
        assert b == [len(w) - 1 for w in others], curve.id
        exact_z = [-Q.x / Q.y for Q in [w[-1] for w in others] + [mults[-1]]]
        assert zs == [reduce_element(z, j) for z in exact_z], curve.id
        pack = derive_formal_series(curve, k + 5)
        assert [out for _, out in calls["padic_log"]] == [
            padic_log(pack, z, j) for z in exact_z], curve.id
        assert all(args[4] == j for args, _ in calls["_coset_base"])
        driver = {(args[2], args[3]): base for args, base in
                  calls["_coset_base"]}
        excluded = _excluded_mod_3(curve, walk)
        for c, eps in itertools.product(range(N), (0, 1)):
            if c or eps:
                exact = mults[c - 1] if c else curve.torsion
                want = _reduced(add_torsion(curve, exact) if eps and c
                                else exact, j)
                assert _coset_base(curve, walk, c, eps, j) == want
                assert driver.get((c, eps), want) == want
                # the verdict read from the walk is that of the exact base
                assert excluded[c, eps] == any(_residues(
                    curve.beta * want.x + curve.gamma, 3)[1:]), (c, eps)


def test_coset_base_in_kernel_is_left_to_coset_base():
    """With G + T for the generator of E11 (N = 17), the walk has length
    34 and 17 (G + T) + T = 17 G lies in the kernel of reduction: X = 0
    mod 3 at walk[16].  The mod-3 verdict leaves that coset undecided, and
    the driver stops at it with `_coset_base`'s PrecisionError."""
    E11 = CURVE_BY_ID["E11"]
    curve = dataclasses.replace(E11, gens=(add_torsion(E11, E11.gens[0]),))
    walk = kernel_basis(curve, K + 4)[0]
    assert len(walk) == 34
    assert _excluded_mod_3(curve, walk)[17, 1] is None
    with pytest.raises(PrecisionError, match="kernel of reduction"):
        _coset_base(curve, walk, 17, 1, K + 4)
    with pytest.raises(PrecisionError,
                       match="E11 coset 17,1: coset base in kernel"):
        _cosets_once(curve, K)


def test_driver_rank_guard():
    with pytest.raises(ValueError, match="E10"):
        rank1_driver(E10)
    with pytest.raises(ValueError, match="E1 "):
        rank2_driver(CURVE_BY_ID["E1"])


# --- the exact scan of +-m G (+T) -------------------------------------------

def _brute_scan(curve, span):
    """The scan by the generic chord law alone: every (m, eps) in
    [-span, span] x {0, 1}, in the order 0, 1, -1, 2, -2, ..."""
    G, T = curve.gens[0], curve.torsion
    mults = [INFINITY]
    for _ in range(span):
        mults.append(add_points(curve, mults[-1], G))
    found = {}
    for m in [0] + [s * j for j in range(1, span + 1) for s in (1, -1)]:
        p = mults[m] if m >= 0 else -mults[-m]
        for eps in (0, 1):
            q = add_points(curve, p, T) if eps else p
            if not q.at_infinity and condition_value(curve, q) is not None:
                found[(m, eps)] = q
    return found


def _roots(result):
    """{(c, eps): roots} of a rank-1 driver's cosets with known points."""
    return {(r.coset, r.eps): r.roots for r in result.reports if r.roots}


def _keyed_roots(found, N):
    """{(c, eps): roots} that the oracle's keys put on each coset, as n
    with m = c + n N, in the oracle's order."""
    out = {}
    for m, eps in found:
        c = m % N
        out[(c, eps)] = out.get((c, eps), ()) + ((m - c) // N,)
    return out


RANK1 = [c.id for c in CURVES if c.rank == 1]
# the (m, eps) with m > 0 whose condition value is rational; the scan
# records each at -m too
SURVIVORS = {"E1": {(1, 0)}, "E2": {(1, 0)}, "E3": {(1, 0)}, "E4": {(1, 0)},
             "E5": {(2, 0)}, "E7": {(2, 0)}, "E8": {(2, 0)}, "E12": {(2, 0)}}


@pytest.mark.parametrize("cid", ["E1", "E2", "E3", "E4", "E5", "E6", "E8",
                                 "E11", "E12"])
def test_scan_matches_group_law_oracle(cid, rank1_results):
    """On every rank-1 curve with N <= 17, the driver's survivors and the
    roots of its cosets are the points of the generic-law scan over
    [-2N, 2N], in its key order.  N is taken from `REDUCTION_ORDERS`, so a
    wrong walk cannot lengthen the oracle's span."""
    curve, N = CURVE_BY_ID[cid], REDUCTION_ORDERS[cid]
    found = _brute_scan(curve, 2 * N)
    result = rank1_results[cid]
    assert list(result.survivors) == list(found.values())
    assert _roots(result) == _keyed_roots(found, N)


def test_scan_keys_e7_e9(rank1_results):
    """E7 and E9 (N = 34): the known points, asserted directly."""
    E7 = rank1_results["E7"]
    assert _roots(E7) == {(2, 0): (0,), (32, 0): (-1,)}
    G = CURVE_BY_ID["E7"].gens[0]
    two_g = scalar_mul(CURVE_BY_ID["E7"], 2, G)
    assert E7.survivors == (two_g, -two_g)
    assert _roots(rank1_results["E9"]) == {}
    assert rank1_results["E9"].survivors == ()


def test_scan_hits_on_translates():
    """Conditions moved so that G + T, T itself, 7G, and both G + T and
    3G meet them: the scan decides mG + T as well as mG, finds 7G and -7G
    at n = 1 and n = -2 of their cosets, and 3G and -3G at n = 0 and -1 of
    one coset, in the oracle's key order over all cosets.  Moved through
    T, gamma = 0 is not a 3-unit, so the driver refuses that curve, and
    `_scan_condition_points` is run on T's coset alone."""
    E1 = CURVE_BY_ID["E1"]
    G, T = E1.gens[0], E1.torsion
    g_t, g3 = add_points(E1, G, T), scalar_mul(E1, 3, G)
    through_g_t = dataclasses.replace(E1, gamma=-E1.beta * g_t.x)
    through_7g = dataclasses.replace(
        E1, gamma=-E1.beta * scalar_mul(E1, 7, G).x)
    beta = (g_t.x - g3.x).inv()
    through_g_t_3g = dataclasses.replace(E1, beta=beta, gamma=-beta * g_t.x)
    for curve, roots in ((through_g_t, {(1, 1): (0,), (5, 1): (-1,)}),
                         (through_7g, {(1, 0): (1,), (5, 0): (-2,)}),
                         (through_g_t_3g, {(1, 1): (0,), (5, 1): (-1,),
                                           (3, 0): (0, -1)})):
        result = rank1_driver(curve)
        found = _brute_scan(curve, 12)
        assert _roots(result) == _keyed_roots(found, 6) == roots
        assert list(result.survivors) == list(found.values())
    through_t = dataclasses.replace(E1, gamma=E1.field.zero())
    assert not padic.curve_satisfies_assumption1(through_t)
    [comps] = [comps for c, eps, comps in _series_cosets(through_t, K)
               if (c, eps) == (0, 1)]
    assert _scan_condition_points(through_t, comps, 0, 1, 6, K) == [(0, T)]
    assert list(_brute_scan(through_t, 12)) == [(0, 1)]


@pytest.mark.parametrize("cid", RANK1)
def test_sieve_keeps_survivors(cid, monkeypatch):
    """The theta filter in front of the exact test keeps every survivor,
    and at k = 5 nothing else: the driver tests exactly the (m, eps) of
    SURVIVORS and their negatives, each once."""
    curve = CURVE_BY_ID[cid]
    calls = []
    _spy(monkeypatch, "condition_value", calls)
    result = _cosets_once(curve, K)
    assert all(value is not None for _, value in calls)
    assert list(result.survivors) == [
        scalar_mul(curve, s * m, curve.gens[0])         # every eps is 0
        for m, _ in sorted(SURVIVORS.get(cid, ())) for s in (1, -1)]
    assert len(calls) == len(result.survivors)


def _outcome(curve, k):
    """The rank-1 driver's result at 3^k, or its PrecisionError message."""
    try:
        return rank1_driver(curve, k)
    except PrecisionError as exc:
        return str(exc)


@pytest.mark.parametrize("cid", RANK1)
def test_scan_filter_only_filters(cid, monkeypatch):
    """With the theta filter off, every candidate of a coset goes to the
    exact test, and nothing changes: the driver at k = 1 (which escalates
    to 3) and at k = 5 ends the same, and at k = 1 each coset's scan finds
    the same points.  N is checked first, since a wrong walk would send
    multiples far beyond 2N to the exact test."""
    curve, N = CURVE_BY_ID[cid], REDUCTION_ORDERS[cid]
    assert [len(kernel_basis(curve, k + 4)[0]) for k in (1, 3, 5)] == [N] * 3
    outcomes = [_outcome(curve, k) for k in (1, 5)]
    scans = [(c, eps, _scan_condition_points(curve, comps, c, eps, N, 1))
             for c, eps, comps in _series_cosets(curve, 1)]
    real = padic._scan_condition_points
    monkeypatch.setattr(padic, "_scan_condition_points",
                        lambda curve, comps, *rest: real(curve, [], *rest))
    assert [_outcome(curve, k) for k in (1, 5)] == outcomes
    assert isinstance(outcomes[1], padic.DriverResult)
    assert [(c, eps, real(curve, [], c, eps, N, 1))
            for c, eps, _ in _series_cosets(curve, 1)] == scans


# --- the mod-3 verdict from the coset base ----------------------------------

@pytest.mark.parametrize("k", [1, 2, 5])
def test_early_mod3_verdict_matches_full_theta(k):
    """On all twelve curves, for every non-identity coset whose base is not
    in the kernel, the verdict read from the walk equals `lift_roots` on
    the fully expanded theta components: no zero mod 3."""
    total = excluded = 0
    for curve in CURVES:
        cid, rank = curve.id, curve.rank
        walk, _, zs = kernel_basis(curve, k + 4)
        N = len(walk)
        pack = derive_formal_series(curve, k + 5)
        zpoly = z_linear_combo(pack, [padic_log(pack, z, k + 4) for z in zs],
                               k)
        for eps in (0, 1):
            for c in range(N if rank == 1 else N // 2 + 1):
                if not (c or eps):
                    continue
                base = _coset_base(curve, walk, c, eps, k + 4)
                series = beta_x_series(curve, base.x, base.y, order=k - 1,
                                       pack=pack)
                comps = theta_components(series, zpoly, k)[1:]
                full = lift_roots(comps, k, 2 if rank == 1 else k)
                early = _excluded_mod_3(curve, walk)[c, eps]
                assert early == (full == (1, [])), (cid, c, eps)
                total += 1
                excluded += early
    assert (total, excluded) == (378, 347)


# --- the 3-adic truncation orders -------------------------------------------

def _coset_series(curve, k):
    """(c, eps, z-series, z Poly) for every coset on which the driver at 3^k
    expands theta, in its order: the identity, and each coset that the
    mod-3 test keeps, by the steps of `_cosets_once`."""
    walk, _, zs = kernel_basis(curve, k + 4)
    N = len(walk)
    pack = derive_formal_series(curve, k + 5)
    zpoly = z_linear_combo(pack, [padic_log(pack, z, k + 4) for z in zs], k)
    excluded = _excluded_mod_3(curve, walk)
    for eps, c in itertools.product(
            (0, 1), range(N if curve.rank == 1 else N // 2 + 1)):
        if not (c or eps):
            series = inverse_beta_x_series(curve, order=k + 1, pack=pack)
        elif excluded[c, eps]:
            continue
        else:
            base = _coset_base(curve, walk, c, eps, k + 4)
            series = beta_x_series(curve, base.x, base.y, order=k - 1,
                                   pack=pack)
        yield c, eps, series, zpoly


def _series_cosets(curve, k):
    """(c, eps, nonrational theta components mod 3^k) for the cosets of
    `_coset_series`."""
    for c, eps, series, zpoly in _coset_series(curve, k):
        yield c, eps, theta_components(series, zpoly, k)[1:]


@pytest.mark.parametrize("k", range(1, 8))
def test_theta_from_residue_powers_matches_exact(k):
    """On all twelve curves, at every coset whose theta the driver expands
    (the identity included), the components from the powers of z mod 3^k
    that the driver builds once per curve are those of the exact
    substitution reduced mod 3^k.  The mod-3 verdicts do not depend on k,
    so the same 43 cosets (12 identity, 31 others) reach theta."""
    total = 0
    for curve in CURVES:
        powers = None
        for c, eps, series, zpoly in _coset_series(curve, k):
            powers = powers or padic._z_powers(zpoly, k)
            exact = poly_components_mod(
                padic._substitute(series, zpoly, max_useful_degree(k)), k)
            assert theta_components(series, powers, k) == exact, (
                curve.id, c, eps)
            total += 1
    assert total == 43


def test_theta_truncation_orders(monkeypatch):
    """The theta components that the drivers at k = 5 expand, on the 43
    cosets that reach a series (12 identity, 31 others), are the same mod
    3^5 when every order (the pack of order k + 5, the logs mod 3^(k+4),
    the degrees up to `max_useful_degree(k)` under `fact2_floor`, the
    series orders k - 1 and k + 1) is raised to that of k = 8."""
    seen = []

    def record(series, zpoly, k):
        comps = theta_components(series, zpoly, k)
        seen.append(comps[1:])
        return comps

    monkeypatch.setattr(padic, "theta_components", record)
    total = 0
    for curve in CURVES:
        seen.clear()
        result = (rank1_driver if curve.rank == 1 else rank2_driver)(curve)
        assert result.precision == K
        at8 = list(_series_cosets(curve, 8))
        assert [(c, eps) for c, eps, _ in at8] == [
            (r.coset, r.eps) for r in result.reports
            if r.verdict != "excluded mod 3"], curve.id
        assert [[poly_mod(p, M) for p in comps] for _, _, comps in at8] == seen
        total += len(seen)
    assert total == 43


# --- golden 3-adic coordinates ----------------------------------------------

def test_z_coordinates_golden(e10_kernel):
    assert reduce_element(e10_kernel.z1, K).coords == (33, 240, 33, 93)
    assert reduce_element(e10_kernel.z2, K).coords == (213, 234, 105, 144)


def test_log_golden(e10_kernel):
    # 3*(32 + 35 phi + 50 phi^2 + 61 phi^3)
    assert reduce_element(e10_kernel.L1, K).coords == (96, 105, 150, 183)
    # 3*(47 + 38 phi^2) + 9*(8 phi + 7 phi^3)
    assert reduce_element(e10_kernel.L2, K).coords == (141, 72, 114, 63)


def test_z_linear_combo_golden_coefficients(e10_kernel):
    comp0 = poly_components_mod(e10_kernel.zpoly, K)[0]
    assert comp0.coefficient((1, 2)) == 216        # n1 n2^2
    assert comp0.coefficient((1, 0)) == 96         # n1
    assert comp0.coefficient((0, 1)) == 141        # n2


def test_z_linear_combo_matches_group_law(e10_kernel):
    """z(n1 Q1 + n2 Q2) from the exact group law agrees with the series
    evaluation, for every (n1, n2) in {-2..2}^2."""
    comps = poly_components_mod(e10_kernel.zpoly, K)
    for n1 in range(-2, 3):
        for n2 in range(-2, 3):
            pt = add_points(E10, scalar_mul(E10, n1, e10_kernel.Q1),
                            scalar_mul(E10, n2, e10_kernel.Q2))
            if pt.at_infinity:
                want = (0, 0, 0, 0)
            else:
                want = reduce_element(-pt.x / pt.y, K).coords
            got = tuple(c.evaluate([n1, n2]) % M for c in comps)
            assert got == want, (n1, n2)


# --- series golden values -----------------------------------------------------

def _el(c1, c3):
    return K2.element(0, c1, 0, c3)


def test_beta_x_series_symbolic():
    """The chord-formula expansion of beta*X(P+R)+gamma through z^4, with
    symbolic base point (X0, Y0)."""
    pack = derive_formal_series(E10, 9)
    X0, Y0 = Poly.variable(0, 2), Poly.variable(1, 2)
    s = beta_x_series(E10, X0, Y0, order=4, pack=pack)
    assert s[0] == Poly(2, {(1, 0): _el(6, 1), (0, 0): _el(-4, -1)})
    assert s[1] == Poly(2, {(0, 1): _el(12, 2)})
    assert s[2] == Poly(2, {(2, 0): _el(18, 3), (1, 0): _el(-16, -4),
                            (0, 0): _el(4, 0)})
    assert s[3] == Poly(2, {(1, 1): _el(24, 4), (0, 1): _el(-16, -4)})
    assert s[4] == Poly(2, {(3, 0): _el(24, 4), (2, 0): _el(-48, -12),
                            (1, 0): _el(32, 4), (0, 2): _el(6, 1),
                            (0, 0): _el(-4, -2)})


def test_inverse_beta_x_series_golden():
    inv = inverse_beta_x_series(E10, order=6)
    assert inv[2].coords == (0, Fraction(1, 8), 0, Fraction(1, 16))
    assert inv[4].coords == (0, Fraction(-1, 8), 0, 0)
    assert inv[6].coords == (0, Fraction(1, 16), 0, Fraction(5, 32))
    assert inv[1] == 0 and inv[3] == 0 and inv[5] == 0


def test_log_exp_t3_coefficients():
    pack = derive_formal_series(E10, 7)
    assert pack.log[3].coords == (Fraction(-1, 3), 0, Fraction(-1, 6), 0)
    assert pack.exp[3].coords == (Fraction(1, 3), 0, Fraction(1, 6), 0)


@pytest.mark.parametrize("cid", ["E1", "E10"])
def test_formal_series_identities(cid):
    """On a K1 and a K2 curve, through z^order: u solves its defining
    equation u = 1 + A z^2 u + B z^4 u^2, u * u_inv = 1, and
    log(exp t) = t.  No coefficient is a float."""
    curve = CURVE_BY_ID[cid]
    order = 12
    pack = derive_formal_series(curve, order)
    one = curve.field.one()
    for series in (pack.u, pack.u_inv, pack.log, pack.exp):
        assert len(series) == order + 1
        assert not any(isinstance(c, float) for c in series)
    u = pack.u
    rhs = poly_add([one, 0] + poly_scale(u, curve.a),
                   [0] * 4 + poly_scale(poly_mul(u, u, order - 4), curve.b))
    assert rhs[:order + 1] == u
    assert poly_mul(u, pack.u_inv, order) == [one] + [0] * order
    composed, power = [0] * (order + 1), [one]
    for c in pack.log[1:]:
        power = poly_mul(power, pack.exp, order)
        composed = poly_add(composed, poly_scale(power, c))
    assert composed == [0, one] + [0] * (order - 1)


def _formal_series_by_products(curve, order):
    """u, u_inv, log and exp by whole products, the reference for
    `derive_formal_series`: a truncated product per degree, and d power
    products for the d-th coefficient of exp (O(d^4) in all)."""
    one = curve.field.one()
    A, B = curve.a, curve.b
    u, u_inv = [one], [one]
    for d in range(1, order + 1):
        u.append((A * u[d - 2] if d >= 2 else 0)
                 + (B * poly_mul(u, u, d - 4)[d - 4] if d >= 4 else 0))
    for d in range(1, order + 1):
        u_inv.append(-poly_mul(u, u_inv, d)[d])
    zdu = [0] + poly_diff(u)
    logp = poly_add([one], poly_scale(poly_mul(zdu, u_inv, order - 1),
                                      Fraction(1, 2)))
    log = [0] + [c / (d + 1) if c else 0 for d, c in enumerate(logp)]
    exp = [0, one]
    for d in range(2, order + 1):
        exp.append(0)
        comp, power = 0, [one]
        for c in log[1:d + 1]:
            power = poly_mul(power, exp, d)
            if c:
                comp = comp + c * power[d]
        exp[d] = -comp
    return u, u_inv, log, exp


@pytest.mark.parametrize("order", [10, 12])
def test_formal_series_match_product_recurrence(order):
    """On all twelve curves, u, u_inv, log and exp equal those of the
    product recurrence, coefficient by coefficient."""
    for curve in CURVES:
        pack = derive_formal_series(curve, order)
        want = _formal_series_by_products(curve, order)
        for name, got, ref in zip(("u", "u_inv", "log", "exp"),
                                  (pack.u, pack.u_inv, pack.log, pack.exp),
                                  want):
            assert len(got) == len(ref) == order + 1, (curve.id, name)
            for d, (a, b) in enumerate(zip(got, ref)):
                assert a == b, (curve.id, name, d)


def test_exp_log_round_trip():
    """exp(log(z)) = z mod 3^k at the kernel basis of curves of both
    fields, z known mod 3^(K+2) from the walk."""
    for cid in ("E10", "E5", "E1"):
        curve = CURVE_BY_ID[cid]
        z = kernel_basis(curve, K + 2)[2][0]
        pack = derive_formal_series(curve, K + 5)
        t = padic_log(pack, z, K + 2)
        back = padic_exp(pack, t, K + 2)
        assert reduce_element(back - z, K).coords == (0, 0, 0, 0), cid


# --- Fact-2 valuation floors --------------------------------------------------

def test_fact2_floor_values():
    assert fact2_floor(0) == 0
    assert [fact2_floor(d) for d in range(1, 8)] == [1, 2, 2, 3, 3, 4, 4]


def test_max_useful_degree_is_last_degree_below_k():
    """max_useful_degree(k) is the largest d >= 1 with fact2_floor(d) < k,
    or 1 when there is none."""
    for k in range(1, 30):
        below = [d for d in range(1, 4 * k) if fact2_floor(d) < k]
        assert max_useful_degree(k) == max(below, default=1), k


def test_theta_series_respect_fact2_floor(e10_kernel):
    """Every computed theta-series coefficient in total degree d carries
    3-adic valuation at least fact2_floor(d) = floor(d/2) + 1, which is
    what Strassman consumes."""
    inv = inverse_beta_x_series(E10, order=K + 1, pack=e10_kernel.pack)
    thetas = theta_components(inv, e10_kernel.zpoly, K)
    assert any(not t.is_zero() for t in thetas)
    for theta in thetas:
        for e, c in theta.terms.items():
            d = sum(e)
            v = 0
            cc = abs(c)
            while cc and cc % 3 == 0:
                cc //= 3
                v += 1
            assert v >= min(fact2_floor(d), K), (e, c)


# --- Strassman / Skolem -------------------------------------------------------

def test_strassman_bound_basic():
    # 3x + x^2 (unit coefficient in degree 2): at most 2 roots, and with one
    # known the bound certifies completeness
    f = Poly(1, {(1,): 3, (2,): 1})
    assert strassman_bound(f, K) >= 1


def test_strassman_bound_tail_not_dominated():
    # 9x: mu = 2, but the tail floor at degree 2 is fact2_floor(2) = 2
    f = Poly(1, {(1,): 9})
    with pytest.raises(PrecisionError, match="tail degree 2"):
        strassman_bound(f, K)
    assert strassman_bound(f, K, floor=lambda d: d + 1) == 1
    with pytest.raises(PrecisionError):
        strassman_bound(Poly(1, {(1,): M}), K)       # vanishes mod 3^K


def test_known_count_strassman_even_floor():
    """After 3^j is divided out of a series even in n, the substitution
    m = n^2 bounds the tail by e + 1 - j, not by fact2_floor(d) - j."""
    comp = Poly(1, {(2,): 9})                        # 9 n^2: j = 2, m
    assert _known_count_strassman([comp], K, 1, even_in_var=True) == (1, 1)
    with pytest.raises(PrecisionError):              # floor(3) - 2 = 0
        _known_count_strassman([comp], K, 1)
    with pytest.raises(PrecisionError):              # j = 3: 2 + 1 - 3 = 0
        _known_count_strassman([Poly(1, {(2,): 27})], K, 1, even_in_var=True)


def _coset_thetas(pack, zpoly, c, eps):
    T = CurvePoint(E10.field.zero(), E10.field.zero())
    base = scalar_mul(E10, c, E10.gens[1])
    if eps:
        base = add_points(E10, base, T)
    x0 = reduce_element(base.x, K + 4)
    y0 = reduce_element(base.y, K + 4)
    ser = beta_x_series(E10, x0, y0, order=K - 1, pack=pack)
    return theta_components(ser, zpoly, K)[1:]


def _nonzero(polys):
    return [p for p in polys if not p.is_zero()]


def _system_for(comp_a, comp_b, shift):
    f1 = poly_mod(poly_shift(comp_a, shift), M)
    f2 = poly_mod(poly_shift(comp_b, shift), M)
    (f1, f2), _ = divide_out_3([f1, f2], K)
    system = build_skolem_system(f1, f2)
    return system, skolem_check(system)


def _brute_force_only_origin(system):
    """All solutions of f1 = f2 = 0 mod 27 must reduce to (0,0) mod 3."""
    for n1 in range(27):
        for n2 in range(27):
            if (system.f1.evaluate([n1, n2]) % 27 == 0
                    and system.f2.evaluate([n1, n2]) % 27 == 0):
                assert n1 % 3 == 0 and n2 % 3 == 0, (n1, n2)


def test_skolem_case_1_1(e10_kernel):
    """Coset of 2 P2: linear lowest parts (2 n1, n1 + n2), whose resultant
    is the determinant 2, nonzero mod 3."""
    comps = _nonzero(_coset_thetas(e10_kernel.pack, e10_kernel.zpoly, 2, 0))
    system, res = _system_for(comps[2], comps[1], (0, 0))
    assert res["unique"]
    assert res["kind"] == "linear" and res["resultant"] % 3 == 2
    assert system.lowest1.terms == {(1, 0): 2}            # 2 n1
    assert system.lowest2.terms == {(1, 0): 1, (0, 1): 1}  # n1 + n2
    _brute_force_only_origin(system)


def test_skolem_case_1_2(e10_kernel):
    """Coset of 10 P2: after shifting the known root (2, -1) to the origin
    the lowest parts are again (2 x1, x1 + x2)."""
    comps = _nonzero(_coset_thetas(e10_kernel.pack, e10_kernel.zpoly, 10, 0))
    system, res = _system_for(comps[2], comps[1], (2, -1))
    assert res["unique"]
    assert res["kind"] == "linear" and res["resultant"] % 3 == 2
    assert system.lowest1.terms == {(1, 0): 2}            # 2 x1
    assert system.lowest2.terms == {(1, 0): 1, (0, 1): 1}  # x1 + x2
    _brute_force_only_origin(system)


def test_skolem_case_2(e10_kernel):
    """Identity coset: quadratic lowest parts 2 n1^2, which is the paper's
    elimination polynomial H1, and n1^2 + n1 n2 + 2 n2^2; their resultant
    16 is the coefficient of H2 = 16 n2^4."""
    inv = inverse_beta_x_series(E10, order=K + 1, pack=e10_kernel.pack)
    comps = theta_components(inv, e10_kernel.zpoly, K)[1:]
    system, res = _system_for(comps[2], comps[0], (0, 0))
    assert res["unique"]
    assert res["kind"] == "resultant"
    assert system.lowest1.terms == {(2, 0): 2}                       # 2 n1^2
    assert system.lowest2.terms == {(2, 0): 1, (1, 1): 1, (0, 2): 2}
    assert res["resultant"] == 16                                    # H2
    _brute_force_only_origin(system)


def _trim_mod3(cs):
    cs = [c % 3 for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _gcd_degree_mod3(a, b):
    """The degree of gcd(a, b) over F_3, for coefficient lists (low to
    high) not both zero, by Euclid's algorithm."""
    a, b = _trim_mod3(a), _trim_mod3(b)
    while b:
        while len(a) >= len(b):
            q, shift = a[-1] * b[-1], len(a) - len(b)    # 1/b[-1] = b[-1]
            a = _trim_mod3([c - q * b[i - shift] if i >= shift else c
                            for i, c in enumerate(a)])
        a, b = b, a
    return len(a) - 1


def test_skolem_check_is_coprimality_of_forms_mod_3():
    """For every pair of nonzero binary forms mod 3 of degree 1 to 3, the
    origin is certified unique exactly when the forms share no factor over
    F_3: when the dehomogenized forms are coprime and do not both vanish
    at (1 : 0)."""
    forms = [cs for d in range(1, 4)
             for cs in itertools.product(range(3), repeat=d + 1) if any(cs)]
    assert len(forms) == 114
    polys = [Poly(2, {(i, len(cs) - 1 - i): c for i, c in enumerate(cs)})
             for cs in forms]
    outcomes = set()
    for (a, f), (b, g) in itertools.product(zip(forms, polys), repeat=2):
        shared = _gcd_degree_mod3(a, b) > 0 or not (a[-1] or b[-1])
        unique = skolem_check(build_skolem_system(f, g))["unique"]
        assert unique != shared, (a, b)
        outcomes.add(unique)
    assert outcomes == {True, False}


def test_three_is_inert():
    from lucassq.padic import defining_poly_irreducible_mod3
    from lucassq.fields import K1
    assert defining_poly_irreducible_mod3(K1)
    assert defining_poly_irreducible_mod3(K2)


def test_irreducible_mod3_matches_factor_products():
    """On all 81 monic quartics over F_3, the F_9-root test says reducible
    exactly for the products of two monic factors of degrees 1 and 3 or
    2 and 2."""
    from types import SimpleNamespace
    from lucassq.padic import defining_poly_irreducible_mod3

    def monic(d):
        return [list(cs) + [1] for cs in itertools.product(range(3), repeat=d)]
    reducible = {tuple(c % 3 for c in poly_mul(f, g))
                 for d in (1, 2) for f in monic(d) for g in monic(4 - d)}
    for quartic in monic(4):
        fld = SimpleNamespace(defining_poly=tuple(quartic))
        assert defining_poly_irreducible_mod3(fld) == (
            tuple(quartic) not in reducible), quartic


# --- Hensel lifting of the candidate roots ----------------------------------

X1, X2 = Poly.variable(0, 2), Poly.variable(1, 2)


def _system(root, scale=1):
    """scale * (u + 3 v^2, u v + v) mod 3^K with u = x1 - r1, v = x2 - r2:
    a simple zero at root (the Jacobian there is 1)."""
    u, v = X1 - root[0], X2 - root[1]
    return [poly_mod(scale * f, M) for f in (u + 3 * v * v, u * v + v)]


def test_lift_roots_outside_small_box():
    assert lift_roots(_system((7, -11)), K, K) == (K, [(7, -11)])
    # symmetric residues mod 3^5 = 243 run from -121 to 121
    assert lift_roots(_system((121, -121)), K, K) == (K, [(121, -121)])
    assert lift_roots(_system((122, 0)), K, K) == (K, [(-121, 0)])


def test_lift_roots_divides_out_common_power_of_3():
    # 3 * system: the zero is known mod 3^(K-1) = 81 and is still unique
    assert lift_roots(_system((7, -11), scale=3), K, K) == (K, [(7, -11)])
    # 9 * system: known mod 27, where 13 is the largest symmetric residue
    assert lift_roots(_system((13, -13), scale=9), K, K) == (K, [(13, -13)])


def test_lift_roots_excluded_mod_9():
    polys = [poly_mod(X1 * X1 - 3, M), X2]
    assert lift_roots(polys, K, K) == (2, [])
    assert lift_roots(polys, K, 1) == (1, [(0, 0)])
    # with the common factor 3 the first level without a zero is mod 27
    assert lift_roots([poly_mod(3 * p, M) for p in polys], K, K) == (3, [])


def test_two_lifted_roots_raise():
    polys = [poly_mod((X1 - 1) * (X1 - 2), M), X2]
    level, roots = lift_roots(polys, K, K)
    assert level == K and sorted(roots) == [(1, 0), (2, 0)]
    with pytest.raises(PrecisionError, match="2 candidate roots"):
        _skolem_coset(polys, roots, K)


def test_rank2_skolem_roots(rank2_result):
    """The lifted roots of E10's three Skolem cosets: O in the identity
    coset, 2 P2 = 0 Q1 + 0 Q2 + 2 P2 and 2 P1 + 2 P2 = 2 Q1 - Q2 + 10 P2."""
    got = {(r.coset, r.eps): r.roots for r in rank2_result.reports
           if r.verdict == "skolem"}
    assert got == {(0, 0): ((0, 0),), (2, 0): ((0, 0),), (10, 0): ((2, -1),)}
