import os
from pathlib import Path

import pytest

import lieflag.roots

from oracles import ORACLE_MAX_RANK

# The session's environment, set before any test module loads a database: the
# shipped database whatever LIEFLAG_DB the caller set, and this checkout's src
# first on the path of every child Python.
os.environ.pop("LIEFLAG_DB", None)
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def oracle_rank_cap(monkeypatch):
    """Raise the classical rank cap to the largest rank the oracles cover."""
    monkeypatch.setattr(lieflag.roots, "MAX_CLASSICAL_RANK", ORACLE_MAX_RANK)
