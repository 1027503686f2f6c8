"""Shared fixtures.  The 3-adic drivers and the generator certifications
are the expensive steps, so each runs at most once per session."""

import pytest

from lucassq.cli import RANK1_IDS
from lucassq.curves import CURVE_BY_ID


@pytest.fixture(scope="session")
def rank1_results():
    from lucassq.padic import rank1_driver
    return {cid: rank1_driver(CURVE_BY_ID[cid]) for cid in RANK1_IDS}


@pytest.fixture(scope="session")
def rank2_result():
    from lucassq.padic import rank2_driver
    return rank2_driver(CURVE_BY_ID["E10"])


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
