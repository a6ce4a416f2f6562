"""Exact root-system combinatorics for the simple Lie types.

Everything lives in the simple-root basis: a positive root is the tuple
of its (nonnegative) integer coefficients, the Cartan matrix fixes all
pairings, and no floating point or Euclidean coordinates appear anywhere.
Node numbering is Bourbaki for every series (see the table in README.md).

Convention: ``cartan[i][j]`` is the pairing of the i-th simple root with
the j-th simple coroot, so the pairing of a root ``a`` (coefficient
vector) with the j-th simple coroot is ``sum(a[i] * cartan[i][j])``.
Roots and coroots come together from the Cartan matrix alone, by closing
the simple roots under the simple reflections that raise a root.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import lru_cache, wraps
from operator import index, mul

from .errors import InvalidRank, integer, shown

RootVector = tuple[int, ...]

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
_FIXED_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}

# Desk-scale cap for the classical series A-D; reassign to raise it.
MAX_CLASSICAL_RANK = 12


@classmethod
def _make_validated(cls, iterable: Iterable):
    """``_make`` that builds through the validating ``__new__``; ``_replace`` calls it."""
    return cls(*iterable)


class DynkinType(namedtuple("DynkinType", "series rank")):
    """A simple Lie type: series letter A-G plus rank."""

    __slots__ = ()
    _make = _make_validated

    def __new__(cls, series: str, rank: int) -> "DynkinType":
        rank = integer(rank, "rank", InvalidRank)
        if not isinstance(series, str) or series not in _MIN_RANK:  # a list could not be hashed
            raise InvalidRank(f"unknown series {shown(series)}")
        if series in _FIXED_RANKS:
            if rank not in _FIXED_RANKS[series]:
                raise InvalidRank(f"{series}{shown(rank)} is not a simple type")
        elif rank < _MIN_RANK[series]:
            raise InvalidRank(f"series {series} needs rank >= {_MIN_RANK[series]}")
        elif rank > MAX_CLASSICAL_RANK:
            raise InvalidRank(
                f"rank {shown(rank)} above the configured cap "
                f"{MAX_CLASSICAL_RANK} for series {series}"
            )
        if series == "D" and rank == 3:
            warnings.warn(
                "D3 has the same diagram as A3 (relabelled nodes); "
                "results agree with A3 up to the node permutation",
                stacklevel=2,
            )
        return tuple.__new__(cls, (series, rank))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def dynkin_type(text: str) -> DynkinType:
    """Parse a type written as series letter plus rank, e.g. 'A3', 'G2'."""
    if not isinstance(text, str):
        raise InvalidRank(f"cannot parse Dynkin type {shown(text)}: not a string")
    text = text.strip()
    if len(text) < 2 or not text[0].isalpha() or not text[1:].isdigit():
        raise InvalidRank(f"cannot parse Dynkin type {text!r}")
    try:
        rank = int(text[1:])
    except ValueError:  # a digit int() refuses, or more digits than it converts
        raise InvalidRank(f"cannot parse Dynkin type {text!r}") from None
    return DynkinType(text[0].upper(), rank)


def _check_type(value, what: str) -> None:
    """Refuse a ``value`` that is not a ``DynkinType`` with ``InvalidRank``."""
    if not isinstance(value, DynkinType):
        raise InvalidRank(f"{what} must be a DynkinType, got {shown(value)}")


def _type_memo(fn):
    """``fn`` memoised per Dynkin type, its argument checked before the lookup:
    a tuple equal to a cached type is refused, cold or warm.  The result keeps
    the memo's ``cache_info`` and ``cache_clear``."""
    memo = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def checked(dtype: DynkinType):
        _check_type(dtype, "type")
        return memo(dtype)

    checked.cache_info, checked.cache_clear = memo.cache_info, memo.cache_clear
    return checked


class Weight(namedtuple("Weight", "dynkin coords")):
    """Integer coordinates on the fundamental weights of a fixed type."""

    __slots__ = ()
    _make = _make_validated

    def __new__(cls, dynkin: DynkinType, coords: tuple[int, ...]) -> "Weight":
        _check_type(dynkin, "weight type")
        try:  # len of a non-sequence raises TypeError too
            if len(coords) != dynkin.rank:
                raise InvalidRank(
                    f"weight needs {dynkin.rank} coordinates, got {len(coords)}"
                )
            return tuple.__new__(cls, (dynkin, tuple(map(index, coords))))
        except TypeError:
            raise InvalidRank(
                f"weight coordinates must be integers, got {shown(coords)}"
            ) from None

    @property
    def is_dominant(self) -> bool:
        return min(self.coords) >= 0  # a weight has rank >= 1 coordinates

    def scaled(self, k: int) -> "Weight":
        return Weight(self.dynkin, tuple(k * c for c in self.coords))

    def __str__(self) -> str:
        return "(" + ",".join(map(shown, self.coords)) + ")"

    def __repr__(self) -> str:
        coords = ", ".join(map(shown, self.coords)) + ("," if len(self.coords) == 1 else "")
        return f"Weight(dynkin={self.dynkin!r}, coords=({coords}))"


def weight(dtype: DynkinType, coords: Iterable[int]) -> Weight:
    try:
        coords = tuple(coords)
    except TypeError:
        pass  # Weight names the error
    return Weight(dtype, coords)


def fundamental_weight(dtype: DynkinType, node: int) -> Weight:
    """Fundamental weight at a 1-based node."""
    _check_type(dtype, "type")
    node = integer(node, "node", InvalidRank)
    if not 1 <= node <= dtype.rank:
        raise InvalidRank(f"node {shown(node)} out of range for {dtype}")
    return Weight(dtype, tuple(1 if i == node - 1 else 0 for i in range(dtype.rank)))


def cartan_matrix(dtype: DynkinType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix in Bourbaki numbering, rows pair against coroots."""
    _check_type(dtype, "type")  # every per-type table starts here
    n, s = dtype.rank, dtype.series
    bonds = [(i, i + 1) for i in range(n - 1)]  # the chain 1-2-...-n, 0-based
    if s == "D":
        bonds[-1] = (n - 3, n - 1)  # node n hangs off node n-2
    elif s == "E":
        bonds[:2] = [(0, 2), (1, 3)]  # the chain 1-3-4-...-n, node 2 on node 4
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in bonds:
        m[i][j] = m[j][i] = -1
    # The one multiple bond: entry (i, j), node j the shorter root.
    multiple = {"B": (n - 2, n - 1, -2), "C": (n - 1, n - 2, -2), "F": (1, 2, -2), "G": (1, 0, -3)}
    if s in multiple:
        i, j, entry = multiple[s]
        m[i][j] = entry
    return tuple(tuple(row) for row in m)


def _enumerate_positive_roots(
    cartan: Sequence[Sequence[int]], node_order: Sequence[int] | None = None
) -> dict[RootVector, RootVector]:
    """Every positive root, sorted by height, mapped to its coroot.

    Each root carries its pairing vector ``(<alpha, a_1^v>, ...)``.  Where
    entry j is c < 0, ``s_j(alpha) = alpha - c a_j`` is a higher positive
    root, its pairing vector is alpha's minus c times Cartan row j, and
    its coroot is ``alpha^v - <a_j, alpha^v> a_j^v``.  This reaches every
    positive root: a non-simple one beta has some j with
    ``<beta, a_j^v> > 0``, and ``s_j(beta)`` is a lower positive root.
    """
    rank = len(cartan)
    order = list(node_order) if node_order is not None else list(range(rank))
    rows = [tuple(row) for row in cartan]
    units = [tuple(1 if i == k else 0 for i in range(rank)) for k in range(rank)]
    known = {unit: (row, unit) for unit, row in zip(units, rows)}  # root: (pairing, coroot)
    todo = units
    for alpha in todo:  # the list grows while it is read
        pairing, coroot = known[alpha]
        for j in order:
            c = pairing[j]
            if c < 0:
                beta = alpha[:j] + (alpha[j] - c,) + alpha[j + 1 :]
                if beta not in known:
                    d = sum(map(mul, coroot, rows[j]))  # <a_j, alpha^v>
                    known[beta] = (tuple(p - c * a for p, a in zip(pairing, rows[j])),
                                   coroot[:j] + (coroot[j] - d,) + coroot[j + 1 :])
                    todo.append(beta)
    return {r: known[r][1] for r in sorted(known, key=lambda r: (sum(r), r))}


def positive_roots(dtype: DynkinType) -> tuple[RootVector, ...]:
    """All positive roots as coefficient vectors, sorted by height."""
    return root_system(dtype).positive_roots


RootSystem = namedtuple("RootSystem", "dynkin cartan positive_roots coroots rho")
RootSystem.__doc__ = """Positive roots, Cartan matrix and coroots of one simple type.

``positive_roots`` are coefficient vectors sorted by height,
``coroots[k]`` holds the simple-coroot coefficients of the coroot of
``positive_roots[k]``, and ``rho`` is the all-ones ``Weight``.
"""


@_type_memo
def root_system(dtype: DynkinType) -> RootSystem:
    cartan = cartan_matrix(dtype)
    coroots = _enumerate_positive_roots(cartan)
    return RootSystem(
        dynkin=dtype,
        cartan=cartan,
        positive_roots=tuple(coroots),
        coroots=tuple(coroots.values()),
        rho=Weight(dtype, (1,) * dtype.rank),
    )


def group_dimension(dtype: DynkinType) -> int:
    """Dimension of the simple group: rank plus twice the positive roots."""
    return 2 * len(positive_roots(dtype)) + dtype.rank  # .rank once the type is checked

