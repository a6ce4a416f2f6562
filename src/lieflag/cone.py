"""Invariants of the affine cone over a polarized flag variety.

The fundamental group of the punctured total space of a line bundle L on
a simply connected base is cyclic of order equal to the divisibility of
c1(L); on G/P that class is just the character's coefficient vector on
the marked nodes, so the order is a gcd.  The cone's coordinate ring is
graded by the section spaces of the powers of L, which gives its Hilbert
function directly: by Borel-Weil-Bott the k-th piece has dimension
dim V(k w).  All powers go through one compiled Weyl numerator: each
factor <k w + rho, a^v> is linear in k w, and the simple ones are k w_j + 1.
The values of a small k_max are memoised by (weight, k_max), since
callers repeat those inputs, and the marking, which they do not depend
on, is checked on every call instead.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import index
from typing import Iterable

from .errors import InvalidDimension, UnsupportedWeight, ZeroClass, shown
from .parabolic import ParabolicMarking
from .representations import _check_line_bundle, _weyl_dims
from .roots import Weight

# The largest k_max answered: every value is built before any is written.
MAX_K_MAX = 10_000
# Only a k_max up to this enters the memo, so each of its entries holds at
# most 16 values; a k_max of MAX_K_MAX on E8 alone is about 1 MB of integers.
_MEMO_K_MAX = 16


def cone_cover_order(c1: Iterable[int]) -> int:
    """Order of the cyclic fundamental group of L* from c1's divisibility."""
    try:
        coeffs = tuple(map(index, c1))
    except TypeError:
        raise UnsupportedWeight(f"c1 entries must be integers, got {shown(c1)}") from None
    if not coeffs or not any(coeffs):
        raise ZeroClass("c1 must have a nonzero entry")
    return gcd(*(abs(c) for c in coeffs))


def cone_hilbert_function(
    mk: ParabolicMarking, w: Weight, k_max: int
) -> list[int]:
    """Hilbert function of the cone ring, entries k = 0..k_max for k_max <= MAX_K_MAX."""
    if not isinstance(k_max, int) or k_max < 1:
        raise InvalidDimension(f"k_max must be an integer >= 1, got {shown(k_max)}")
    if k_max > MAX_K_MAX:
        raise InvalidDimension(f"k_max must be at most {MAX_K_MAX}, got {shown(k_max)}")
    _check_line_bundle(mk, w)
    values = _hilbert_values(w, k_max) if k_max <= _MEMO_K_MAX else _weyl_dims(w, k_max)
    return [1, *values]


@lru_cache(maxsize=8192)
def _hilbert_values(w: Weight, k_max: int) -> tuple[int, ...]:
    """dim V(k w) for k = 1..k_max, for a weight its caller has checked."""
    return tuple(_weyl_dims(w, k_max))
