"""Shared fixtures.  The 3-adic drivers and the generator certifications
are the expensive steps, so each runs at most once per session."""

from types import SimpleNamespace

import pytest

from lucassq.curves import CURVE_BY_ID, CURVES


@pytest.fixture(scope="session")
def rank1_results():
    from lucassq.padic import rank1_driver
    return {c.id: rank1_driver(c) for c in CURVES if c.rank == 1}


@pytest.fixture(scope="session")
def rank2_result():
    from lucassq.padic import rank2_driver
    return rank2_driver(CURVE_BY_ID["E10"])


@pytest.fixture(scope="session")
def e10_kernel():
    """E10's kernel-of-reduction basis as the rank-2 driver derives it by
    the walk mod 3^9: N, b = [b_1] and the z(Q_i), with the 3-adic
    logarithms mod 3^9 and the z linear combination mod 3^5.  The exact
    basis points Q1 = P1 + b_1 P2 and Q2 = N P2 are built here by the
    chord law, for the tests that compare with the group law."""
    from lucassq.curves import add_points, scalar_mul
    from lucassq.padic import (derive_formal_series, kernel_basis, padic_log,
                               z_linear_combo)
    E10 = CURVE_BY_ID["E10"]
    P1, P2 = E10.gens
    walk, b, (z1, z2) = kernel_basis(E10, 9)
    N = len(walk)
    pack = derive_formal_series(E10, 10)
    L1, L2 = (padic_log(pack, z, 9) for z in (z1, z2))
    zpoly = z_linear_combo(pack, [L1, L2], 5)
    return SimpleNamespace(
        N=N, b=b, z1=z1, z2=z2, pack=pack, L1=L1, L2=L2, zpoly=zpoly,
        Q1=add_points(E10, P1, scalar_mul(E10, b[0], P2)),
        Q2=scalar_mul(E10, N, P2))


@pytest.fixture(scope="session")
def e1_certificate():
    import time
    from lucassq.heights import certify_generators
    t0 = time.monotonic()
    cert = certify_generators(CURVE_BY_ID["E1"])
    return cert, time.monotonic() - t0


@pytest.fixture(scope="session")
def e10_certificate():
    import time
    from lucassq.heights import certify_generators
    t0 = time.monotonic()
    cert = certify_generators(CURVE_BY_ID["E10"])
    return cert, time.monotonic() - t0
