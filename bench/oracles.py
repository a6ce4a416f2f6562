"""Closed forms the benchmark checks answers against.

Nothing here imports lieflag: every expected value comes from the Dynkin
diagram written out below (Bourbaki numbering) and the textbook counts of
positive roots per simple type.
"""

from __future__ import annotations

from math import comb

_EXCEPTIONAL_ROOTS = {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}


def positive_root_count(series: str, rank: int) -> int:
    """|Phi+| of a simple type."""
    if series == "A":
        return rank * (rank + 1) // 2
    if series in ("B", "C"):
        return rank * rank
    if series == "D":
        return rank * (rank - 1)
    return _EXCEPTIONAL_ROOTS[(series, rank)]


def diagram_edges(series: str, rank: int) -> dict[tuple[int, int], int]:
    """Edges of the Dynkin diagram on 1-based nodes, valued by bond multiplicity."""
    n = rank
    if series in ("A", "B", "C"):
        edges = {(i, i + 1): 1 for i in range(1, n)}
        if series != "A":
            edges[(n - 1, n)] = 2
    elif series == "D":
        edges = {(i, i + 1): 1 for i in range(1, n - 1)}
        edges[(n - 2, n)] = 1
    elif series == "E":
        edges = {(1, 3): 1, (2, 4): 1}
        edges.update({(i, i + 1): 1 for i in range(3, n)})
    elif series == "F":
        edges = {(1, 2): 1, (2, 3): 2, (3, 4): 1}
    else:
        edges = {(1, 2): 3}
    return edges


def _component_roots(nodes: set[int], edges: dict[tuple[int, int], int]) -> int:
    """|Phi+| of the connected subdiagram on ``nodes``, read off its shape."""
    k = len(nodes)
    sub = {e: m for e, m in edges.items() if e[0] in nodes and e[1] in nodes}
    degree = {v: 0 for v in nodes}
    for a, b in sub:
        degree[a] += 1
        degree[b] += 1
    mults = set(sub.values())
    if 3 in mults:
        return 6
    if 2 in mults:
        (a, b), = [e for e, m in sub.items() if m == 2]
        if k == 4 and degree[a] == 2 and degree[b] == 2:
            return 24
        return k * k
    branch = [v for v in nodes if degree[v] == 3]
    if not branch:
        return k * (k + 1) // 2
    arms = sorted(_arm_length(branch[0], nb, sub) for nb in _neighbours(branch[0], sub))
    if arms[1] == 1:
        return k * (k - 1)
    return _EXCEPTIONAL_ROOTS[("E", k)]


def _neighbours(v: int, edges) -> list[int]:
    return [b if a == v else a for a, b in edges if v in (a, b)]


def _arm_length(root: int, start: int, edges) -> int:
    length, prev, cur = 1, root, start
    while True:
        nxt = [u for u in _neighbours(cur, edges) if u != prev]
        if not nxt:
            return length
        prev, cur = cur, nxt[0]
        length += 1


def _components(nodes: set[int], edges) -> list[set[int]]:
    left, out = set(nodes), []
    while left:
        stack = [left.pop()]
        comp = set(stack)
        while stack:
            for u in _neighbours(stack.pop(), edges):
                if u in left:
                    left.discard(u)
                    comp.add(u)
                    stack.append(u)
        out.append(comp)
    return out


def flag_dimension(series: str, rank: int, marked: set[int]) -> int:
    """dim G/P = |Phi+| minus the positive roots of the Levi factor."""
    edges = diagram_edges(series, rank)
    unmarked = set(range(1, rank + 1)) - set(marked)
    inner = {e: m for e, m in edges.items() if e[0] in unmarked and e[1] in unmarked}
    levi = sum(_component_roots(c, edges) for c in _components(unmarked, inner))
    return positive_root_count(series, rank) - levi


def minimal_flag_dimension(series: str, rank: int) -> int:
    """r of a simple type: the smallest dim G/P over single marked nodes."""
    return min(flag_dimension(series, rank, {i}) for i in range(1, rank + 1))


def group_type(family: str, parameter: int) -> tuple[str, int]:
    """Dynkin type of SL(k), Sp(2m), Spin(m) and G2, low-rank aliases included."""
    if family == "SL":
        return "A", parameter - 1
    if family == "Sp":
        return "C", parameter // 2
    if family == "G2":
        return "G", 2
    if parameter == 5:
        return "C", 2
    if parameter == 6:
        return "A", 3
    return ("B" if parameter % 2 else "D"), parameter // 2


def a_fundamental_dim(rank: int, node: int) -> int:
    """The k-th fundamental representation of A_n is the k-th wedge power of C^(n+1)."""
    return comb(rank + 1, node)


def projective_hilbert(n: int, k_max: int) -> list[int]:
    """Hilbert function of the cone over P^n in O(1): C(n + k, k)."""
    return [comb(n + k, k) for k in range(k_max + 1)]
