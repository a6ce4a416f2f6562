"""Irreducible-representation dimensions in exact integer arithmetic.

The dimension of the irreducible with highest weight w is the product
over positive roots of <w + rho, a^v> / <rho, a^v>, evaluated as one big
integer quotient.  Every positive coroot of height > 1 is a smaller
positive coroot plus one simple coroot, so, visited in coroot-height
order, each numerator factor is an earlier factor plus <w + rho, a_j^v> =
w_j + 1: one addition per positive root.  Those additions and the product
of all factors, taken as a balanced tree of pairwise products, are
compiled as one function per type from the coroots of ``root_system``,
next to the constant denominator; no rounding can occur.  Every factor is
linear in the simple ones, so the powers k*w go through the same function:
their simple factors are <k w + rho, a_j^v> = k w_j + 1.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache
from math import prod

from .errors import InvalidDimension, NonDominantWeight, UnsupportedWeight, shown
from .parabolic import ParabolicMarking, r_min
from .roots import DynkinType, Weight, _check_type, fundamental_weight, root_system


@lru_cache(maxsize=None)
def _coroot_chain(dtype: DynkinType) -> tuple[Callable, int]:
    """The compiled Weyl numerator of the type and its denominator, the
    product of the heights <rho, a^v> of the positive coroots.

    The numerator takes the factors of the simple coroots, in node order;
    coroot k >= rank, an earlier coroot plus a simple one, gets the line
    ``fk = fparent + fnode``, and the product of all factors is a balanced
    tree of pairwise products, so each product's operands are alike in size.
    Straight-line code runs 1.5-2x as fast as a loop over the pairs.
    """
    rank = dtype.rank
    coroots = root_system(dtype).coroots
    chain = [tuple(1 if i == k else 0 for i in range(rank)) for k in range(rank)]
    chain += sorted((cv for cv in coroots if sum(cv) > 1), key=sum)
    index = {cv: k for k, cv in enumerate(chain)}
    lines = [f"def numerator({', '.join(f'f{k}' for k in range(rank))}):"]
    for k, cv in enumerate(chain[rank:], rank):
        for node, c in enumerate(cv):
            parent = index.get(cv[:node] + (c - 1,) + cv[node + 1 :]) if c else None
            if parent is not None:
                lines.append(f"    f{k} = f{parent} + f{node}")
                break
        else:
            raise AssertionError(f"coroot {cv} has no parent coroot")
    terms = [f"f{k}" for k in range(len(chain))]
    while len(terms) > 1:  # pair neighbours; an odd last term waits a level
        terms = [f"({a} * {b})" for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1 :]
    lines.append(f"    return {terms[0]}")
    namespace = {}  # the source holds only the names f0, f1, ...
    exec("\n".join(lines), namespace)
    return namespace["numerator"], prod(map(sum, chain))


def _weyl_dims(w: Weight, k_max: int) -> list[int]:
    """Dimensions of the irreducibles with highest weights w, 2w, ..., k_max*w."""
    if not isinstance(w, Weight):
        raise UnsupportedWeight(f"weight must be a Weight, got {shown(w)}")
    if not w.is_dominant:
        raise NonDominantWeight(f"weight {w} has a negative coordinate")
    numerator, den = _coroot_chain(w.dynkin)
    dims = []
    for k in range(1, k_max + 1):  # <k w + rho, a_j^v> = k w_j + 1
        q, r = divmod(numerator(*[k * c + 1 for c in w.coords]), den)
        assert r == 0, "Weyl product must clear to an integer"
        dims.append(q)
    return dims


def weyl_dim(w: Weight) -> int:
    """Dimension of the irreducible with highest weight w."""
    return _weyl_dims(w, 1)[0]


MinimalIrrep = namedtuple("MinimalIrrep", "weight dim nodes")


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
    off = list(w.coords)
    for i in mk.marked:
        off[i - 1] = 0
    if any(off):
        node = next(i for i, c in enumerate(off, 1) if c)
        raise UnsupportedWeight(f"weight {w} has mass at unmarked node {node}")
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
