"""Parabolic subgroups of a simple type and the geometry of G/P.

A parabolic is encoded by its set of marked (crossed) Dynkin nodes, the
nodes removed from the Levi factor.  The dimension of G/P is the number
of positive roots whose support meets the marking; this count is the
definition used throughout.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import lru_cache
from operator import index, mul

from .errors import ArityMismatch, EmptyMarking, NodeOutOfRange, NotMaximalParabolic, shown
from .roots import (
    DynkinType,
    Weight,
    _check_type,
    _make_validated,
    _type_memo,
    positive_roots,
    root_system,
)


class ParabolicMarking(namedtuple("ParabolicMarking", "dynkin marked")):
    """Marked-node subset defining a proper parabolic subgroup."""

    __slots__ = ()
    _make = _make_validated

    def __new__(cls, dynkin: DynkinType, marked: Iterable[int]) -> "ParabolicMarking":
        _check_type(dynkin, "marking type")
        try:
            nodes = frozenset(map(index, marked))
        except TypeError:
            raise NodeOutOfRange(f"marked nodes must be integers, got {shown(marked)}") from None
        if not nodes:
            raise EmptyMarking("a parabolic marking needs at least one node")
        if min(nodes) < 1 or max(nodes) > dynkin.rank:
            bad = [i for i in nodes if not 1 <= i <= dynkin.rank]
            raise NodeOutOfRange(
                f"node {shown(min(bad))} out of range 1..{dynkin.rank} for {dynkin}"
            )
        return tuple.__new__(cls, (dynkin, nodes))

    @property
    def is_maximal(self) -> bool:
        return len(self.marked) == 1

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.marked))


def marking(dtype: DynkinType, nodes: Iterable[int]) -> ParabolicMarking:
    return ParabolicMarking(dtype, nodes)


@lru_cache(maxsize=None)
def _supports(dtype: DynkinType) -> tuple[int, ...]:
    """Per node (entry i - 1 for node i), the bitmask of the positive roots
    whose support holds that node (bit k for ``positive_roots[k]``)."""
    roots = positive_roots(dtype)
    return tuple(
        sum(1 << k for k, alpha in enumerate(roots) if alpha[i]) for i in range(dtype.rank)
    )


def _check_marking(value) -> None:
    """Refuse a ``value`` that is not a ``ParabolicMarking`` with ``NodeOutOfRange``."""
    if not isinstance(value, ParabolicMarking):
        raise NodeOutOfRange(f"marking must be a ParabolicMarking, got {shown(value)}")


def codim_parabolic(mk: ParabolicMarking) -> int:
    """dim G/P: positive roots supported on at least one marked node."""
    _check_marking(mk)
    masks = _supports(mk.dynkin)
    roots = 0
    for i in mk.marked:
        roots |= masks[i - 1]
    count = roots.bit_count()
    assert count >= len(mk.marked)
    return count


RMin = namedtuple("RMin", "value nodes")


@_type_memo
def r_min(dtype: DynkinType) -> RMin:
    """Minimal codimension of a proper parabolic, with every attaining node.

    The minimum over all nonempty markings is attained at a single node;
    this is asserted exhaustively in the test suite rather than assumed.
    """
    codims = [m.bit_count() for m in _supports(dtype)]
    best = min(codims)
    return RMin(best, tuple(i for i, c in enumerate(codims, 1) if c == best))


_LABELS = {
    "projective_space": "P^{}",
    "quadric": "Q^{}",
    "grassmannian_2_4": "Gr(2,4)",
    "full_flag_sl3": "FlagSL3",
}

# The named flag varieties, in Bourbaki numbering: (series, rank or None
# for every rank, marked nodes with -1 for the last node, kind).  Their
# dimension is codim_parabolic of the marking.  The first row that names
# a marking gives its label; a later row for the same marking is an
# alias that only the reverse lookup reads.
_NAMED = (
    ("A", None, (1,), "projective_space"),
    ("A", None, (-1,), "projective_space"),
    ("A", 2, (1, 2), "full_flag_sl3"),
    ("A", 3, (2,), "grassmannian_2_4"),
    ("A", 3, (2,), "quadric"),  # Gr(2,4) is the Klein quadric Q^4
    ("B", None, (1,), "quadric"),
    ("C", None, (1,), "projective_space"),
    ("C", 2, (2,), "quadric"),
    ("D", None, (1,), "quadric"),
    ("D", 4, (3,), "quadric"),
    ("D", 4, (4,), "quadric"),
    ("G", 2, (1,), "quadric"),
)


class VarietyClass(namedtuple("VarietyClass", "kind dim")):
    """Named isomorphism class of a flag variety, with its dimension."""

    __slots__ = ()

    def label(self) -> str:
        return _LABELS[self.kind].format(self.dim)


def _named(dtype: DynkinType) -> tuple[dict, dict]:
    """The table's rows for one type, indexed by marked nodes and by label."""
    by_nodes: dict[frozenset[int], VarietyClass] = {}
    by_label: dict[str, ParabolicMarking] = {}
    for series, rank, nodes, kind in _NAMED:
        if series == dtype.series and rank in (None, dtype.rank):
            mk = marking(dtype, (i if i > 0 else dtype.rank + 1 + i for i in nodes))
            named = VarietyClass(kind, codim_parabolic(mk))
            by_nodes.setdefault(mk.marked, named)
            by_label.setdefault(named.label(), mk)
    return by_nodes, by_label


def identify_marking(mk: ParabolicMarking) -> VarietyClass | None:
    """The named flag variety of a marking, else None."""
    _check_marking(mk)
    return _named(mk.dynkin)[0].get(mk.marked)


def named_marking(dtype: DynkinType, label: str) -> ParabolicMarking | None:
    """The marking of dtype whose flag variety has this label, else None."""
    return _named(dtype)[1].get(label)


class HomogeneousVariety(
    namedtuple("HomogeneousVariety", "marking dim picard_rank identification")
):
    """G/P of a marking, with its VarietyClass as ``identification``, or None if unnamed."""

    __slots__ = ()

    def label(self) -> str:
        if self.identification is not None:
            return self.identification.label()
        nodes = ",".join(str(i) for i in self.marking.nodes)
        return f"{self.marking.dynkin}/P({nodes})"


def homogeneous_variety(mk: ParabolicMarking) -> HomogeneousVariety:
    return HomogeneousVariety(
        mk, codim_parabolic(mk), len(mk.marked), identify_marking(mk)
    )


def minimal_homogeneous_varieties(dtype: DynkinType) -> tuple[HomogeneousVariety, ...]:
    """One variety per single node attaining the minimal codimension."""
    best = r_min(dtype)
    return tuple(homogeneous_variety(marking(dtype, (i,))) for i in best.nodes)


def fano_index(mk: ParabolicMarking) -> int:
    """Index of G/P for a single marked node.

    Equals the pairing of the marked simple coroot with the sum of all
    positive roots supported on the marked node (the nilradical roots).
    """
    _check_marking(mk)
    if not mk.is_maximal:
        raise NotMaximalParabolic(
            f"fano_index needs exactly one marked node, got {sorted(mk.marked)}"
        )
    (node,) = mk.marked
    rs = root_system(mk.dynkin)
    column = [row[node - 1] for row in rs.cartan]
    index = sum(sum(map(mul, alpha, column)) for alpha in rs.positive_roots if alpha[node - 1])
    assert index >= 2
    return index


def admissible_conormal_range(mk: ParabolicMarking) -> tuple[int, int]:
    """Twists O(k) a point-contracted divisor G/P can carry: 1..index-1."""
    return (1, fano_index(mk) - 1)


def character_weight(mk: ParabolicMarking, coefficients: Sequence[int]) -> Weight:
    """Embed a character of P as a weight supported on the marked nodes.

    Coefficients are taken in increasing node order.  The result may be
    non-dominant; callers check ``is_dominant`` where it matters.
    """
    _check_marking(mk)
    nodes = mk.nodes
    try:
        count = len(coefficients)
    except TypeError:
        raise ArityMismatch(f"coefficients must be a sequence, got {shown(coefficients)}") from None
    if count != len(nodes):
        raise ArityMismatch(
            f"{len(nodes)} marked nodes but {count} coefficients"
        )
    coords = [0] * mk.dynkin.rank
    for node, c in zip(nodes, coefficients):
        coords[node - 1] = c
    return Weight(mk.dynkin, tuple(coords))
