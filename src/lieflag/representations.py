"""Irreducible-representation dimensions in exact integer arithmetic.

The dimension of the irreducible with highest weight w is the product
over positive roots of <w + rho, a^v> / <rho, a^v>, evaluated as one big
integer quotient.  Every positive coroot of height > 1 is a smaller
positive coroot plus one simple coroot, so, visited in coroot-height
order, each numerator factor is an earlier factor plus <w + rho, a_j^v> =
w_j + 1: one addition per positive root.  The chain of (earlier coroot,
simple node) steps, the heights <rho, a^v> and the constant denominator
are built once per type from the coroots of ``root_system``; no rounding
can occur.  The powers k*w share one walk: <k w + rho, a^v> is
<(k - 1) w + rho, a^v> plus <w, a^v>, so each further power adds the
fixed vector ``factors - heights`` to the factors and takes one product.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import add, sub
from typing import NamedTuple

from .errors import InvalidDimension, NonDominantWeight, UnsupportedWeight, shown
from .parabolic import ParabolicMarking, r_min
from .roots import DynkinType, Weight, _check_type, fundamental_weight, root_system


@lru_cache(maxsize=None)
def _coroot_chain(dtype: DynkinType) -> tuple[tuple, tuple[int, ...], int]:
    """(parent, node) steps for the non-simple coroots, the height <rho, a^v>
    of every coroot in chain order, and the product of the heights.

    Coroot k >= rank is coroot ``parent`` plus simple coroot ``node``;
    coroots 0..rank-1 are the simple coroots in node order.
    """
    rank = dtype.rank
    coroots = root_system(dtype).coroots
    chain = [tuple(1 if i == k else 0 for i in range(rank)) for k in range(rank)]
    chain += sorted((cv for cv in coroots if sum(cv) > 1), key=sum)
    index = {cv: k for k, cv in enumerate(chain)}
    steps = []
    for cv in chain[rank:]:
        for node, c in enumerate(cv):
            parent = index.get(cv[:node] + (c - 1,) + cv[node + 1 :]) if c else None
            if parent is not None:
                steps.append((parent, node))
                break
        else:
            raise AssertionError(f"coroot {cv} has no parent coroot")
    heights = tuple(map(sum, chain))
    return tuple(steps), heights, prod(heights)


def _weyl_dims(w: Weight, k_max: int) -> list[int]:
    """Dimensions of the irreducibles with highest weights w, 2w, ..., k_max*w."""
    if not isinstance(w, Weight):
        raise UnsupportedWeight(f"weight must be a Weight, got {shown(w)}")
    if not w.is_dominant:
        raise NonDominantWeight(f"weight {w} has a negative coordinate")
    steps, heights, den = _coroot_chain(w.dynkin)
    factors = [c + 1 for c in w.coords]
    for parent, node in steps:
        factors.append(factors[parent] + factors[node])
    step = list(map(sub, factors, heights)) if k_max > 1 else None  # <w, a^v>
    dims = []
    while True:
        q, r = divmod(prod(factors), den)
        assert r == 0, "Weyl product must clear to an integer"
        dims.append(q)
        if len(dims) == k_max:
            return dims
        factors = list(map(add, factors, step))


def weyl_dim(w: Weight) -> int:
    """Dimension of the irreducible with highest weight w."""
    return _weyl_dims(w, 1)[0]


class MinimalIrrep(NamedTuple):
    weight: Weight
    dim: int
    nodes: tuple[int, ...]


def min_nontrivial_irrep(dtype: DynkinType) -> MinimalIrrep:
    """Smallest nontrivial irreducible, scanned over fundamental weights.

    weyl_dim is strictly increasing in every coordinate (unit-tested), so
    the minimum over all nonzero dominant weights is fundamental; ties
    break to the lowest node, with the full tied node set reported.
    """
    _check_type(dtype, "type")
    dims = {
        i: weyl_dim(fundamental_weight(dtype, i)) for i in range(1, dtype.rank + 1)
    }
    best = min(dims.values())
    nodes = tuple(i for i, d in sorted(dims.items()) if d == best)
    return MinimalIrrep(fundamental_weight(dtype, nodes[0]), best, nodes)


def check_rg_plus_one(dtype: DynkinType) -> bool:
    """Whether the smallest nontrivial irreducible has dimension r + 1."""
    return min_nontrivial_irrep(dtype).dim == r_min(dtype).value + 1


def _check_line_bundle(mk: ParabolicMarking, w: Weight) -> None:
    """Refuse a weight that is not of the marking's type, has mass off it or is not dominant."""
    if not isinstance(mk, ParabolicMarking):
        raise UnsupportedWeight(f"marking must be a ParabolicMarking, got {shown(mk)}")
    if not isinstance(w, Weight):
        raise UnsupportedWeight(f"weight must be a Weight, got {shown(w)}")
    if w.dynkin != mk.dynkin:
        raise UnsupportedWeight(f"weight type {w.dynkin} != marking type {mk.dynkin}")
    off = [i + 1 for i, c in enumerate(w.coords) if c and (i + 1) not in mk.marked]
    if off:
        raise UnsupportedWeight(f"weight {w} has mass at unmarked node {off[0]}")
    if not w.is_dominant:  # the caller's weight, before any power scales it
        raise NonDominantWeight(f"weight {w} has a negative coordinate")


def bwb_section_dim(mk: ParabolicMarking, w: Weight, power: int) -> int:
    """Sections of the k-th power of the line bundle given by w on G/P.

    For dominant w supported on the marked nodes this is the dimension of
    the irreducible with highest weight k*w.
    """
    _check_line_bundle(mk, w)
    if not isinstance(power, int) or power < 1:
        raise InvalidDimension(f"power must be an integer >= 1, got {shown(power)}")
    return weyl_dim(w.scaled(power))
