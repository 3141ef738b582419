import pytest

from wcl import fac


@pytest.fixture(autouse=True)
def empty_phi_memo():
    """Each test starts with an empty Phi_eps memo, so no test reads rows
    that an earlier test computed on the same paths."""
    fac._PHI_MEMO.clear()
