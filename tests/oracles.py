"""Independent cross-check machinery for the test suite.

Nothing here touches the package's Cartan-matrix pairing code.  Root
systems are written down in the classical epsilon-coordinates, inner
products are plain integer dot products (all vectors pre-scaled to clear
denominators), and irreducible dimensions come from summing Freudenthal
multiplicities over the full weight system.  Simple roots and fundamental
weights are numbered the Bourbaki way so coordinate vectors can be
compared with the package directly.  The valid arguments of the public
callables, for the wrong-type walk, are the one part built from the
package's own constructors.  ``load_script`` runs a script of
scripts/ as a module, for the tests of the scripts and of the goldens;
``fresh_python`` runs a child interpreter in the session's environment
(see conftest.py), ``time_bound`` turns a call that runs too long into a
failure, and ``SHIPPED_DB`` is the database the package ships.
``INJECTED_FAULTS`` holds one fault per rule of ``validate_records`` with
its exact findings, and ``clear_memos`` is the one cold reset of the
package's memos.
"""

from __future__ import annotations

import contextlib
import importlib.resources
import importlib.util
import os
import pkgutil
import signal
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import lieflag
from lieflag import DynkinType, GroupSpec, Violation, load_database, marking, records, weight

Vec = tuple[int, ...]


def dot(u: Vec, v: Vec) -> int:
    return sum(a * b for a, b in zip(u, v))


def add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def scale(u: Vec, k: int) -> Vec:
    return tuple(k * a for a in u)


@dataclass(frozen=True)
class EuclideanType:
    name: str
    simple_roots: tuple[Vec, ...]
    fundamental_weights: tuple[Vec, ...]
    positive_roots: tuple[Vec, ...]


def _unit(dim: int, i: int, value: int = 1) -> Vec:
    return tuple(value if k == i else 0 for k in range(dim))


def type_A(n: int) -> EuclideanType:
    # R^{n+1}; every vector multiplied by n+1 to clear the weight denominators
    d = n + 1
    simple = tuple(
        tuple(d * (1 if k == i else -1 if k == i + 1 else 0) for k in range(d))
        for i in range(n)
    )
    ones = (1,) * d
    weights = tuple(
        tuple(
            d * (1 if j <= i else 0) - (i + 1) * ones[j] for j in range(d)
        )
        for i in range(n)
    )
    roots = tuple(
        tuple(d * ((1 if k == i else 0) - (1 if k == j else 0)) for k in range(d))
        for i in range(d)
        for j in range(d)
        if i < j
    )
    return EuclideanType(f"A{n}", simple, weights, roots)


def type_B(n: int) -> EuclideanType:
    # R^n scaled by 2 for the half-integral spin weight
    simple = tuple(
        add(_unit(n, i, 2), _unit(n, i + 1, -2)) for i in range(n - 1)
    ) + (_unit(n, n - 1, 2),)
    weights = tuple(
        tuple(2 if j <= i else 0 for j in range(n)) for i in range(n - 1)
    ) + ((1,) * n,)
    roots = []
    for i in range(n):
        roots.append(_unit(n, i, 2))
        for j in range(i + 1, n):
            roots.append(add(_unit(n, i, 2), _unit(n, j, -2)))
            roots.append(add(_unit(n, i, 2), _unit(n, j, 2)))
    return EuclideanType(f"B{n}", simple, weights, tuple(roots))


def type_C(n: int) -> EuclideanType:
    simple = tuple(
        add(_unit(n, i), _unit(n, i + 1, -1)) for i in range(n - 1)
    ) + (_unit(n, n - 1, 2),)
    weights = tuple(
        tuple(1 if j <= i else 0 for j in range(n)) for i in range(n)
    )
    roots = []
    for i in range(n):
        roots.append(_unit(n, i, 2))
        for j in range(i + 1, n):
            roots.append(add(_unit(n, i), _unit(n, j, -1)))
            roots.append(add(_unit(n, i), _unit(n, j)))
    return EuclideanType(f"C{n}", simple, weights, tuple(roots))


def type_D(n: int) -> EuclideanType:
    simple = tuple(
        add(_unit(n, i, 2), _unit(n, i + 1, -2)) for i in range(n - 1)
    ) + (add(_unit(n, n - 2, 2), _unit(n, n - 1, 2)),)
    weights = tuple(
        tuple(2 if j <= i else 0 for j in range(n)) for i in range(n - 2)
    ) + (
        tuple(1 if j < n - 1 else -1 for j in range(n)),
        (1,) * n,
    )
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            roots.append(add(_unit(n, i, 2), _unit(n, j, -2)))
            roots.append(add(_unit(n, i, 2), _unit(n, j, 2)))
    return EuclideanType(f"D{n}", simple, weights, tuple(roots))


def type_G2() -> EuclideanType:
    simple = ((1, -1, 0), (-2, 1, 1))
    weights = ((0, -1, 1), (-1, -1, 2))
    roots = ((1, -1, 0), (-2, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -2, 1), (-1, -1, 2))
    return EuclideanType("G2", simple, weights, roots)


@lru_cache(maxsize=None)
def exceptional_model(name: str) -> tuple[tuple[Vec, ...], frozenset[Vec]]:
    """Bourbaki simple roots and all roots of E6, E7, E8 or F4 in doubled
    epsilon coordinates, so every coordinate is an integer.  E8's roots are
    +-2e_i +- 2e_j and (+-1, ..., +-1) with an even number of minus signs;
    E7 and E6 take the first 7 and 6 of its simple roots.  F4's roots are
    +-2e_i, +-2e_i +- 2e_j and (+-1, +-1, +-1, +-1)."""
    dim = 4 if name == "F4" else 8
    roots = {
        add(_unit(dim, i, 2 * s), _unit(dim, j, 2 * t))
        for i in range(dim) for j in range(i + 1, dim) for s in (1, -1) for t in (1, -1)
    }
    signs = set(product((1, -1), repeat=dim))
    if name == "F4":
        roots |= signs | {_unit(dim, i, v) for i in range(dim) for v in (2, -2)}
        simple = ((0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1))
    else:
        roots |= {v for v in signs if v.count(-1) % 2 == 0}
        simple = ((1, -1, -1, -1, -1, -1, -1, 1), (2, 2, 0, 0, 0, 0, 0, 0)) + tuple(
            add(_unit(dim, k - 2, 2), _unit(dim, k - 3, -2)) for k in range(3, 9)
        )
        simple = simple[: int(name[1:])]
    return simple, frozenset(roots)


def _inverse(m) -> list[list[Fraction]]:
    """Inverse of an invertible square integer matrix, by Gauss-Jordan elimination."""
    n = len(m)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


@lru_cache(maxsize=None)
def _model_positive_roots(name: str) -> frozenset[tuple[int, ...]]:
    """The positive roots of an exceptional model as simple-root coefficient
    vectors: each model root in the span of the simple roots, solved for its
    coefficients through the inverse Gram matrix, kept when none is negative."""
    simple, roots = exceptional_model(name)
    gram_inverse = _inverse([[dot(a, b) for b in simple] for a in simple])
    out = set()
    for v in roots:
        pairings = [dot(a, v) for a in simple]
        coeffs = [dot(row, pairings) for row in gram_inverse]
        if root_vector(simple, coeffs) == v and min(coeffs) >= 0:
            assert all(c.denominator == 1 for c in coeffs), "non-integral root"
            out.add(tuple(map(int, coeffs)))
    return frozenset(out)


# Types the Euclidean oracles cover, up to rank 16 (above the default
# classical rank cap, which the tests using them raise).
ORACLE_MAX_RANK = 16
ORACLE_TYPES = tuple(
    f"{series}{n}"
    for series, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
    for n in range(lo, ORACLE_MAX_RANK + 1)
) + ("E6", "E7", "E8", "F4", "G2")

# Valid arguments, in order, of every callable of ``lieflag.__all__`` that
# checks its input; the wrong-type walk swaps one of them at a time.
_A2 = DynkinType("A", 2)
_MARKING, _WEIGHT = marking(_A2, (1,)), weight(_A2, (1, 0))
VALID_CALLS = {
    "DynkinType": ("A", 2),
    "GroupSpec": ("SL", 3),
    "ParabolicMarking": (_A2, (1,)),
    "Weight": (_A2, (1, 0)),
    "admissible_conormal_range": (_MARKING,),
    "bwb_section_dim": (_MARKING, _WEIGHT, 2),
    "cartan_matrix": (_A2,),
    "character_weight": (_MARKING, (1,)),
    "check_rg_plus_one": (_A2,),
    "classify": (GroupSpec("SL", 3), 3, False, None),
    "codim_parabolic": (_MARKING,),
    "cone_cover_order": ((1, 2),),
    "cone_hilbert_function": (_MARKING, _WEIGHT, 3),
    "dynkin_type": ("A2",),
    "fano_index": (_MARKING,),
    "fundamental_weight": (_A2, 1),
    "group_dimension": (_A2,),
    "group_spec": ("SL", 3),
    "identify_marking": (_MARKING,),
    "load_database": (None,),
    "marking": (_A2, (1,)),
    "min_nontrivial_irrep": (_A2,),
    "minimal_homogeneous_varieties": (_A2,),
    "orbit_structure": ("P^n", {"n": 3}, "SL", None),
    "positive_roots": (_A2,),
    "r_min": (_A2,),
    "relations": ("P^n", None),
    "root_system": (_A2,),
    "validate_database": (None,),
    "weight": (_A2, (1, 0)),
    "weyl_dim": (_WEIGHT,),
}
class OnlyIndex:
    """An integer to ``operator.index`` alone: it has no other number method."""

    def __index__(self) -> int:
        return 4


# The public names the walk leaves out: the error base class and the
# result types, which hold what they are given and check nothing.
UNCHECKED = (
    "ClassificationResult", "DomainError", "HomogeneousVariety", "MinimalIrrep", "Orbit",
    "RMin", "RootSystem", "VarietyClass", "VarietyDescriptor", "Violation",
)


SHIPPED_DB = importlib.resources.files("lieflag") / "data" / "classification.db"


def fresh_python(*args, stdout=subprocess.PIPE, timeout=60, **environ):
    """``python args`` in a fresh interpreter, in the session's environment
    with the given variables set."""
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True,
        env=os.environ | environ, timeout=timeout,
    )


HAS_ALARM = hasattr(signal, "setitimer")  # time_bound needs SIGALRM


@contextlib.contextmanager
def time_bound(seconds: float):
    """Raise TimeoutError in the body once it has run ``seconds``."""
    def too_slow(signum, frame):
        raise TimeoutError(f"ran over {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def load_script(name: str):
    """scripts/<name>.py executed afresh, as a module, with ``sys.path`` left
    as it was: the script's own insert of src/ is for running it directly."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.path[:]
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def memos() -> dict:
    """Every lru_cache of lieflag by its name, ``module.qualname``: the
    functions of each module of the package and the methods of its classes
    (importing ``__main__`` would run the CLI)."""
    found = {}
    for info in pkgutil.iter_modules(lieflag.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"lieflag.{info.name}")
        defined = [
            v for v in vars(module).values() if getattr(v, "__module__", "") == module.__name__
        ]
        for cls in [v for v in defined if isinstance(v, type)]:
            defined += vars(cls).values()
        found |= {f"{info.name}.{fn.__qualname__}": fn for fn in defined
                  if hasattr(fn, "cache_clear")}
    return found


def clear_memos() -> None:
    """Empty every memo of lieflag: each lru_cache and the two dict memos of records."""
    for memo in memos().values():
        memo.cache_clear()
    records._TEXTS.clear()
    records._CHECKED.clear()


_SPIN_BLOCK = (
    "record = Q^{n-1} x R\ncase = Spin\nsource = Thm4.1\nitem = 3\n"
    "requires = n >= 6\ndim = n\npicard = 2"
)
# One fault per rule of validate_records, by rule: (old text, new text, the
# exact findings), the first old text of the serialized shipped database
# replaced by the new one.  A new rule adds its row.
INJECTED_FAULTS = {
    "R1": (
        'orbit = closed dim=2 ident=P^2 note="diagonal"',
        'orbit = closed dim=1 note="diagonal"',
        [Violation("R1", "P2xP2", "SL3Q", "orbit of dim 1 below r=2 of A2 at n=4")],
    ),
    "R2": (
        'orbit = closed dim=2 ident=P^2 note="first plane component"',
        "orbit = fixed dim=0",
        [Violation("R2", "Q^4", "SL3Q", "fixed point in an unflagged record")],
    ),
    "R3": (
        "orbit = closed dim=3 ident=Q^3\norbit = open dim=4",
        "orbit = closed dim=4 ident=Q^3\norbit = open dim=4",
        [
            Violation("shape", "Q^4", "Sp", "closed orbit of dim 4 not below 4"),
            Violation("R3", "Q^4", "Sp", "identification Q^3 has dim 3 but orbit recorded at 4"),
        ],
    ),
    "R4": (
        'orbit = closed dim=3 ident=FlagSL3 note="locus of square tensors"\norbit = open dim=4',
        'orbit = closed dim=3 ident=FlagSL3 note="locus of square tensors"',
        [Violation("R4", "P(S2T P2)", "SL3Q", "0 open orbits in a quasihomogeneous record")],
    ),
    "R5": (
        _SPIN_BLOCK,
        _SPIN_BLOCK.replace("picard = 2", "picard = 1"),
        [Violation("R5", "Q^{n-1} x R", "Spin", "Picard-rank-one Spin entry 'Q^{n-1} x R'")],
    ),
}


def inject(old: str, new: str) -> str:
    """The serialized shipped database with its first ``old`` replaced by ``new``."""
    text = records.serialize_records(load_database())
    assert old in text, f"fault target {old!r} not found"
    return text.replace(old, new, 1)


@lru_cache(maxsize=None)
def euclidean_type(series: str, n: int) -> EuclideanType:
    """Epsilon-coordinate data of A_n, B_n, C_n, D_n (any rank) or G2, and
    the doubled coordinates of E6, E7, E8 and F4."""
    if series == "G":
        return type_G2()
    if series in "EF":
        return _exceptional_type(f"{series}{n}")
    return {"A": type_A, "B": type_B, "C": type_C, "D": type_D}[series](n)


def _exceptional_type(name: str) -> EuclideanType:
    """An exceptional model with its positive roots and fundamental weights.
    Weight i is sum_k c_ik a_k with (w_i, a_j) = delta_ij (a_j, a_j) / 2, so
    c_ik = (a_i, a_i) / 2 * (Gram^-1)_ik: its coordinates are Fractions."""
    simple, _ = exceptional_model(name)
    gram_inverse = _inverse([[dot(a, b) for b in simple] for a in simple])
    weights = tuple(
        root_vector(simple, [Fraction(dot(a, a), 2) * c for c in row])
        for a, row in zip(simple, gram_inverse)
    )
    roots = tuple(root_vector(simple, root) for root in sorted(_model_positive_roots(name)))
    return EuclideanType(name, simple, weights, roots)


def _to_vector(etype: EuclideanType, coords) -> Vec:
    dim = len(etype.simple_roots[0])
    out = (0,) * dim
    for c, w in zip(coords, etype.fundamental_weights):
        out = add(out, scale(w, c))
    return out


def weight_vector(series: str, n: int, coords) -> Vec:
    """A weight given by fundamental-weight coordinates, in epsilon coordinates."""
    return _to_vector(euclidean_type(series, n), coords)


def diagram_edges(series: str, n: int) -> set[frozenset[int]]:
    """Edges of the Dynkin diagram on Bourbaki-numbered nodes, drawn by hand:
    a chain for A, B, C, F and G; D forks at node n-2; E hangs node 2 off node 4."""
    if series == "D":
        pairs = [(k, k + 1) for k in range(1, n - 1)] + [(n - 2, n)]
    elif series == "E":
        pairs = [(1, 3), (2, 4)] + [(k, k + 1) for k in range(3, n)]
    else:
        pairs = [(k, k + 1) for k in range(1, n)]
    return {frozenset(p) for p in pairs}


def _coroot_pairing(mu: Vec, alpha: Vec) -> int:
    num = 2 * dot(mu, alpha)
    den = dot(alpha, alpha)
    q, r = divmod(num, den)
    assert r == 0, "weight off the lattice"
    return q


def _weight_system(etype: EuclideanType, lam: Vec) -> list[list[Vec]]:
    """Weights of the irreducible with highest weight lam, by level.

    A level-l weight mu descends along a simple root a_i exactly when the
    a_i-string through mu reaches below it, i.e. when the number of
    upward string members plus the coroot pairing is positive.
    """
    levels: list[list[Vec]] = [[lam]]
    seen: dict[Vec, int] = {lam: 0}
    level = 0
    while levels[level]:
        nxt: list[Vec] = []
        for mu in levels[level]:
            for alpha in etype.simple_roots:
                p = 0
                up = add(mu, alpha)
                while up in seen:
                    p += 1
                    up = add(up, alpha)
                if p + _coroot_pairing(mu, alpha) >= 1:
                    down = add(mu, scale(alpha, -1))
                    if down not in seen:
                        seen[down] = level + 1
                        nxt.append(down)
        levels.append(nxt)
        level += 1
    return levels[:-1]


def weyl_product_dim(etype: EuclideanType, coords) -> int:
    """prod (lam + rho, a) / (rho, a) over the Euclidean positive roots."""
    lam = _to_vector(etype, coords)
    rho = _to_vector(etype, (1,) * len(coords))
    num = den = 1
    for alpha in etype.positive_roots:
        num *= dot(add(lam, rho), alpha)
        den *= dot(rho, alpha)
    q, r = divmod(num, den)
    assert r == 0, "Weyl product must be integral"
    return q


def root_vector(simple_roots, root) -> Vec:
    """A root given by its coefficients over ``simple_roots``, in the
    coordinates those simple roots are written in."""
    alpha = (0,) * len(simple_roots[0])
    for c, simple in zip(root, simple_roots):
        alpha = add(alpha, scale(simple, c))
    return alpha


def coroot_coefficients(etype: EuclideanType, root) -> Vec:
    """Simple-coroot coefficients 2 (w_i, a) / (a, a) of the coroot of a
    root given by its simple-root coefficients."""
    alpha = root_vector(etype.simple_roots, root)
    return tuple(_coroot_pairing(w, alpha) for w in etype.fundamental_weights)


def fano_index_oracle(series: str, n: int, node: int) -> int:
    """Index of G/P at one node: the sum of 2 (a, a_node) / (a_node, a_node)
    over the positive roots a whose coefficient at the node is positive,
    with the roots from ``roots_in_simple_coords`` and the pairing taken
    in (doubled, for E and F) epsilon coordinates."""
    simple_roots = euclidean_type(series, n).simple_roots
    return sum(
        _coroot_pairing(root_vector(simple_roots, root), simple_roots[node - 1])
        for root in roots_in_simple_coords(series, n)
        if root[node - 1] > 0
    )


def _shape_root_count(cartan, nodes) -> int:
    """N, the number of positive roots, of the connected diagram on ``nodes``,
    read off its shape: A_k k(k+1)/2, B_k and C_k k^2, D_k k(k-1),
    E6/E7/E8 36/63/120, F4 24 and G2 6."""
    k = len(nodes)
    bonds = {  # pair: 1, 2 or 3 lines
        (i, j): m for i in nodes for j in nodes if i < j and (m := cartan[i][j] * cartan[j][i])
    }
    degree = {i: sum(i in pair for pair in bonds) for i in nodes}
    multiple = [pair for pair, m in bonds.items() if m > 1]
    if multiple:
        ((i, j),) = multiple
        if bonds[i, j] == 3:
            return 6
        return 24 if degree[i] == degree[j] == 2 else k * k  # F4 bonds two inner nodes
    fork = [i for i in nodes if degree[i] == 3]
    if not fork:
        return k * (k + 1) // 2
    ends = sum(degree[j] == 1 for pair in bonds if fork[0] in pair for j in pair)
    return k * (k - 1) if ends >= 2 else {6: 36, 7: 63, 8: 120}[k]  # D forks by two ends


def levi_codim(series: str, n: int, marked) -> int:
    """dim G/P as N(G) minus N of each component of the unmarked diagram.

    The diagram is the Cartan matrix <a_i, a_j^v> of the simple roots, and each
    N is read off a component's shape by ``_shape_root_count``: no other root
    is used."""
    simple = euclidean_type(series, n).simple_roots
    cartan = [[_coroot_pairing(a, b) for b in simple] for a in simple]
    left = set(range(n)) - {i - 1 for i in marked}
    dim = _shape_root_count(cartan, range(n))
    while left:
        component, todo = [], [left.pop()]
        while todo:
            i = todo.pop()
            component.append(i)
            near = {j for j in left if cartan[i][j]}
            left -= near
            todo += near
        dim -= _shape_root_count(cartan, component)
    return dim


def freudenthal_dim(name: str, coords) -> int:
    """Dimension by Freudenthal's multiplicity recursion, summed over weights."""
    etype = euclidean_type(name[0], int(name[1:]))
    assert len(coords) == len(etype.fundamental_weights)
    assert all(c >= 0 for c in coords)
    lam = _to_vector(etype, coords)
    rho = (0,) * len(lam)
    for w in etype.fundamental_weights:
        rho = add(rho, w)
    levels = _weight_system(etype, lam)
    lam_rho = add(lam, rho)
    c_top = dot(lam_rho, lam_rho)
    mult: dict[Vec, int] = {lam: 1}
    for level in levels[1:]:
        for mu in level:
            total = 0
            for alpha in etype.positive_roots:
                nu = add(mu, alpha)
                while nu in mult:
                    total += mult[nu] * dot(nu, alpha)
                    nu = add(nu, alpha)
            mu_rho = add(mu, rho)
            den = c_top - dot(mu_rho, mu_rho)
            assert den > 0
            num = 2 * total
            q, r = divmod(num, den)
            assert r == 0, "Freudenthal quotient must be integral"
            mult[mu] = q
    return sum(mult.values())


def roots_in_simple_coords(series: str, n: int) -> set[tuple[int, ...]]:
    """Positive roots as simple-root coefficient vectors, per-series formulas.

    Derived from the epsilon-coordinate shapes independently of any
    closure algorithm: intervals for A, interval-plus-doubled-tail for B
    and C, the fork bookkeeping for D, the six G2 vectors, and for E and F
    the doubled models of ``exceptional_model`` solved for coefficients.
    """

    def vec(pairs) -> tuple[int, ...]:
        out = [0] * n
        for i, c in pairs:
            out[i - 1] += c
        return tuple(out)

    roots: set[tuple[int, ...]] = set()
    if series == "A":
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                roots.add(vec((k, 1) for k in range(i, j + 1)))
    elif series == "B":
        for i in range(1, n + 1):
            roots.add(vec((k, 1) for k in range(i, n + 1)))  # e_i
            for j in range(i + 1, n + 1):
                roots.add(vec((k, 1) for k in range(i, j)))  # e_i - e_j
                roots.add(  # e_i + e_j
                    vec(
                        [(k, 1) for k in range(i, j)]
                        + [(k, 2) for k in range(j, n + 1)]
                    )
                )
    elif series == "C":
        for i in range(1, n + 1):
            roots.add(  # 2 e_i
                vec([(k, 2) for k in range(i, n)] + [(n, 1)])
            )
            for j in range(i + 1, n + 1):
                roots.add(vec((k, 1) for k in range(i, j)))  # e_i - e_j
                roots.add(  # e_i + e_j
                    vec(
                        [(k, 1) for k in range(i, j)]
                        + [(k, 2) for k in range(j, n)]
                        + [(n, 1)]
                    )
                )
    elif series == "D":
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                roots.add(vec((k, 1) for k in range(i, j)))  # e_i - e_j
        for i in range(1, n):  # e_i + e_n
            roots.add(vec([(k, 1) for k in range(i, n - 1)] + [(n, 1)]))
        for i in range(1, n - 1):  # e_i + e_j, j < n
            for j in range(i + 1, n):
                roots.add(
                    vec(
                        [(k, 1) for k in range(i, j)]
                        + [(k, 2) for k in range(j, n - 1)]
                        + [(n - 1, 1), (n, 1)]
                    )
                )
    elif series == "G":
        roots = {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
    elif series in "EF":
        roots = set(_model_positive_roots(f"{series}{n}"))
    else:
        raise ValueError(f"no independent construction for series {series}")
    return roots


def naive_gcd(values) -> int:
    """Largest positive integer dividing every entry, by trial division."""
    mags = sorted(abs(v) for v in values if v)
    best = 1
    for d in range(1, mags[0] + 1):
        if all(m % d == 0 for m in mags):
            best = d
    return best


def named_flag_varieties(series: str, r: int) -> dict[tuple[int, ...], tuple[str, int]]:
    """Classical names and dimensions of the named flag varieties of one type.

    Keyed by marked nodes in Bourbaki numbering: P^r at either end of A_r,
    the quadric Q^(2r-1) at node 1 of B_r, P^(2r-1) at node 1 of C_r and
    Q^3 at node 2 of C2, Q^(2r-2) at node 1 of D_r and at the spinor nodes
    3, 4 of D4 (triality), Q^5 at node 1 of G2, the Grassmannian Gr(2,4)
    at node 2 of A3 and the full flag threefold of SL(3).
    """
    named: dict[tuple[int, ...], tuple[str, int]] = {}
    if series == "A":
        named[(1,)] = named[(r,)] = (f"P^{r}", r)
        if r == 2:
            named[(1, 2)] = ("FlagSL3", 3)
        if r == 3:
            named[(2,)] = ("Gr(2,4)", 4)
    elif series == "B":
        named[(1,)] = (f"Q^{2 * r - 1}", 2 * r - 1)
    elif series == "C":
        named[(1,)] = (f"P^{2 * r - 1}", 2 * r - 1)
        if r == 2:
            named[(2,)] = ("Q^3", 3)
    elif series == "D":
        named[(1,)] = (f"Q^{2 * r - 2}", 2 * r - 2)
        if r == 4:
            named[(3,)] = named[(4,)] = ("Q^6", 6)
    elif series == "G":
        named[(1,)] = ("Q^5", 5)
    return named
