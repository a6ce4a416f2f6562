import warnings
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lieflag.errors import InvalidRank
from lieflag.roots import (
    DynkinType,
    Weight,
    cartan_matrix,
    dynkin_type,
    fundamental_weight,
    group_dimension,
    positive_roots,
    root_system,
    weight,
    _enumerate_positive_roots,
)
import lieflag.roots as rs_mod

from oracles import (
    ORACLE_TYPES,
    coroot_coefficients,
    diagram_edges,
    dot,
    euclidean_type,
    exceptional_model,
    root_vector,
    roots_in_simple_coords,
    weight_vector,
)

CLOSED_FORM = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def all_types(max_rank=8):
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for series, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
            out += [DynkinType(series, n) for n in range(lo, max_rank + 1)]
        out += [DynkinType("E", n) for n in (6, 7, 8) if n <= max_rank]
        if max_rank >= 4:
            out.append(DynkinType("F", 4))
        out.append(DynkinType("G", 2))
    return out


def test_cartan_examples():
    assert cartan_matrix(dynkin_type("A1")) == ((2,),)
    assert cartan_matrix(dynkin_type("A2")) == ((2, -1), (-1, 2))
    g2 = cartan_matrix(dynkin_type("G2"))
    assert g2 == ((2, -1), (-3, 2))
    assert g2[0][0] * g2[1][1] - g2[0][1] * g2[1][0] == 1
    # Bourbaki F4: nodes 3 and 4 short, so the double bond gives -2 in row 2
    assert cartan_matrix(dynkin_type("F4")) == (
        (2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)
    )


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_cartan_entries_match_euclidean_simple_roots(oracle_rank_cap, name):
    t = dynkin_type(name)
    simple = euclidean_type(t.series, t.rank).simple_roots
    assert cartan_matrix(t) == tuple(
        tuple(Fraction(2 * dot(a, b), dot(b, b)) for b in simple) for a in simple
    )


@pytest.mark.parametrize("dtype", all_types(), ids=str)
def test_cartan_axioms(dtype):
    c = cartan_matrix(dtype)
    n = dtype.rank
    for i in range(n):
        assert c[i][i] == 2
        for j in range(n):
            if i != j:
                assert c[i][j] in (0, -1, -2, -3)
                assert (c[i][j] == 0) == (c[j][i] == 0)


def test_positive_root_examples():
    assert positive_roots(dynkin_type("A1")) == ((1,),)
    assert set(positive_roots(dynkin_type("A2"))) == {(1, 0), (0, 1), (1, 1)}
    assert set(positive_roots(dynkin_type("C2"))) == {(1, 0), (0, 1), (1, 1), (2, 1)}


@pytest.mark.parametrize("dtype", all_types(), ids=str)
def test_root_count_closed_form(dtype):
    assert len(positive_roots(dtype)) == CLOSED_FORM[dtype.series](dtype.rank)


@pytest.mark.parametrize("dtype", all_types(), ids=str)
def test_simple_roots_included_and_distinct(dtype):
    roots = positive_roots(dtype)
    assert len(set(roots)) == len(roots)
    for k in range(dtype.rank):
        unit = tuple(1 if i == k else 0 for i in range(dtype.rank))
        assert unit in roots


@pytest.mark.parametrize("dtype", all_types(), ids=str)
def test_root_support_connected(dtype):
    edges = diagram_edges(dtype.series, dtype.rank)
    cartan = cartan_matrix(dtype)
    n = dtype.rank
    assert edges == {frozenset((i + 1, j + 1)) for i in range(n) for j in range(n)
                     if i != j and cartan[i][j] != 0}
    adj = {node: {k for e in edges if node in e for k in e} - {node} for node in range(1, n + 1)}
    for root in positive_roots(dtype):
        support = {i + 1 for i, c in enumerate(root) if c}
        reached = {min(support)}
        frontier = [min(support)]
        while frontier:
            node = frontier.pop()
            for other in adj[node] & support:
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
        assert reached == support, (dtype, root)


@pytest.mark.parametrize(
    "series,rank",
    [(s, n) for s, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 29)]
    + [("G", 2)],
)
def test_matches_independent_series_construction(monkeypatch, series, rank):
    monkeypatch.setattr(rs_mod, "MAX_CLASSICAL_RANK", 28)  # the ranks lie_sweep meets cold
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the D3 notice
        dtype = DynkinType(series, rank)
    roots = set(positive_roots(dtype))
    assert roots == roots_in_simple_coords(series, rank)
    assert len(roots) == CLOSED_FORM[series](rank)


@pytest.mark.parametrize("name", ["E6", "E7", "E8", "F4"])
def test_exceptional_types_match_the_doubled_epsilon_model(name):
    t = dynkin_type(name)
    rs = root_system(t)
    simple, model_roots = exceptional_model(name)
    vectors = [root_vector(simple, alpha) for alpha in rs.positive_roots]
    assert len(set(vectors)) == len(vectors) == CLOSED_FORM[t.series](t.rank)
    assert set(vectors) <= model_roots
    assert set(rs.positive_roots) == roots_in_simple_coords(t.series, t.rank)
    assert rs.cartan == tuple(
        tuple(Fraction(2 * dot(a, b), dot(b, b)) for b in simple) for a in simple
    )
    for alpha, v, coroot in zip(rs.positive_roots, vectors, rs.coroots):
        assert coroot == tuple(
            Fraction(c * dot(a, a), dot(v, v)) for c, a in zip(alpha, simple)
        ), alpha


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_coroots_match_euclidean_formula(oracle_rank_cap, name):
    t = dynkin_type(name)
    rs = root_system(t)
    etype = euclidean_type(t.series, t.rank)
    for alpha, coroot in zip(rs.positive_roots, rs.coroots):
        assert coroot == coroot_coefficients(etype, alpha), alpha


def _assert_order_independent(name, order):
    """The closure in any node order gives the same roots with the same coroots."""
    cartan = cartan_matrix(dynkin_type(name))
    assert _enumerate_positive_roots(cartan, order) == _enumerate_positive_roots(cartan)


@given(st.permutations(list(range(4))))
def test_closure_order_independent_d4(order):
    _assert_order_independent("D4", order)


@given(st.permutations(list(range(4))))
def test_closure_order_independent_f4(order):
    _assert_order_independent("F4", order)


@pytest.mark.parametrize("name", ["B3", "C3", "G2"])
@given(data=st.data())
def test_closure_order_independent_where_a_reflection_jumps_levels(name, data):
    # one reflection raises the height by 2 in B3 and C3, and by up to 3 in G2
    order = data.draw(st.permutations(list(range(int(name[1:])))))
    _assert_order_independent(name, order)


@pytest.mark.parametrize(
    "dtype",
    [t for t in all_types(rs_mod.MAX_CLASSICAL_RANK) if t.series in "ADE"],
    ids=str,
)
def test_simply_laced_coroots_are_the_roots(dtype):
    rs = root_system(dtype)
    assert rs.coroots == rs.positive_roots


def test_group_dimension_examples():
    assert group_dimension(dynkin_type("A1")) == 3
    assert group_dimension(dynkin_type("A3")) == 15
    assert group_dimension(dynkin_type("G2")) == 14
    assert group_dimension(dynkin_type("E8")) == 248


@pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D2", "E9", "E5", "F3", "G3", "H4"])
def test_rank_bounds_rejected(bad):
    with pytest.raises(InvalidRank):
        dynkin_type(bad)


def test_rank_must_be_an_integer():
    # refused at construction, so root_system never meets a fractional rank
    for rank in (2.5, 2.0, "2", None):
        with pytest.raises(InvalidRank, match="must be an integer"):
            DynkinType("A", rank)
    assert type(DynkinType("A", True).rank) is int


def test_classical_rank_cap_configurable():
    with pytest.raises(InvalidRank):
        DynkinType("A", 13)
    old = rs_mod.MAX_CLASSICAL_RANK
    try:
        rs_mod.MAX_CLASSICAL_RANK = 13
        assert DynkinType("A", 13).rank == 13
    finally:
        rs_mod.MAX_CLASSICAL_RANK = old


def test_parse_rejects_garbage():
    for bad in ("", "A", "3A", "AA", "a-1"):
        with pytest.raises(InvalidRank):
            dynkin_type(bad)
    assert dynkin_type("a3") == DynkinType("A", 3)


def test_d3_warns_about_a3_alias():
    with pytest.warns(UserWarning, match="A3"):
        DynkinType("D", 3)


def test_b2_and_c2_are_distinct_inputs():
    b2 = dynkin_type("B2")
    c2 = dynkin_type("C2")
    assert b2 != c2
    assert set(positive_roots(b2)) == {(1, 0), (0, 1), (1, 1), (1, 2)}
    assert set(positive_roots(c2)) == {(1, 0), (0, 1), (1, 1), (2, 1)}


def test_weight_validation_and_flags():
    t = dynkin_type("A2")
    with pytest.raises(InvalidRank):
        Weight(t, (1,))
    # fractional coordinates are refused, not truncated
    for coords in [(1.5, 0), (0, 2.0), ("1", 0)]:
        with pytest.raises(InvalidRank):
            Weight(t, coords)
    assert not any(weight_vector("A", 2, Weight(t, (0, 0)).coords))
    assert Weight(t, (1, 0)).is_dominant
    assert not Weight(t, (-1, 2)).is_dominant
    assert Weight(t, (1, 2)).scaled(3).coords == (3, 6)


def test_fundamental_weight_validates_node():
    t = dynkin_type("A2")
    assert fundamental_weight(t, 2).coords == (0, 1)
    # a fractional node is refused, not read as the zero weight
    for node in [0, 3, 1.5, 2.0, "1"]:
        with pytest.raises(InvalidRank):
            fundamental_weight(t, node)


def test_weight_refuses_a_type_that_is_not_a_dynkin_type():
    with pytest.raises(InvalidRank) as exc:
        weight("A2", (1, 0))
    assert str(exc.value) == "weight type must be a DynkinType, got 'A2'"


def test_weight_refuses_coordinates_that_are_not_a_sequence():
    with pytest.raises(InvalidRank) as exc:
        weight(dynkin_type("A2"), None)
    assert str(exc.value) == "weight coordinates must be integers, got None"


def test_fundamental_weight_refuses_a_type_that_is_not_a_dynkin_type():
    with pytest.raises(InvalidRank) as exc:
        fundamental_weight("A2", 1)
    assert str(exc.value) == "type must be a DynkinType, got 'A2'"


def test_root_system_bundle():
    rs = root_system(dynkin_type("G2"))
    assert rs.rho.coords == (1, 1)
    assert len(rs.coroots) == len(rs.positive_roots)
    # highest root (3, 2) has coroot a1^v + 2 a2^v
    idx = rs.positive_roots.index((3, 2))
    assert rs.coroots[idx] == (1, 2)
    # every listed coroot pairs integrally with rho by construction
    for cv in rs.coroots:
        assert sum(cv) >= 1
