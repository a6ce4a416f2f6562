import pytest

import lieflag.roots

from oracles import ORACLE_MAX_RANK


@pytest.fixture
def oracle_rank_cap(monkeypatch):
    """Raise the classical rank cap to the largest rank the oracles cover."""
    monkeypatch.setattr(lieflag.roots, "MAX_CLASSICAL_RANK", ORACLE_MAX_RANK)
