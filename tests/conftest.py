import pytest

from rookpaths import rookdata
from rookpaths.telescope import stage_a_pair, stage_b_search, stage_c_reconstruct
from rookpaths.walks import ROOK, diagonal_sequence


@pytest.fixture(scope="session")
def rook_f():
    return rookdata.embedded_f()


@pytest.fixture(scope="session")
def dp40():
    return diagonal_sequence(ROOK, 40)


@pytest.fixture(scope="session")
def stage_a_certs(rook_f):
    certs = stage_a_pair(rook_f)
    assert len(certs) == 2
    return certs


@pytest.fixture(scope="session")
def stage_b_result(stage_a_certs):
    result = stage_b_search(stage_a_certs[0].operator, stage_a_certs[1].operator, 3)
    assert result is not None
    return result


@pytest.fixture(scope="session")
def final_certificate(stage_b_result, stage_a_certs, rook_f):
    P, Q = stage_b_result
    return stage_c_reconstruct(P, Q, stage_a_certs, rook_f)
