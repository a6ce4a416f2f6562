from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lieflag.roots
from lieflag.errors import (
    ArityMismatch,
    EmptyMarking,
    InvalidRank,
    NodeOutOfRange,
    NotMaximalParabolic,
)
from lieflag.parabolic import (
    ParabolicMarking,
    admissible_conormal_range,
    character_weight,
    codim_parabolic,
    fano_index,
    homogeneous_variety,
    identify_marking,
    marking,
    minimal_homogeneous_varieties,
    named_marking,
    r_min,
)
from lieflag.roots import DynkinType, dynkin_type, positive_roots

from oracles import (
    ORACLE_TYPES,
    dynkin_types,
    fano_index_oracle,
    levi_codim,
    named_flag_varieties,
    roots_in_simple_coords,
    weight_vector,
)


@pytest.mark.parametrize("name", ORACLE_TYPES)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_codim_is_roots_minus_levi_roots(oracle_rank_cap, name, data):
    t = dynkin_type(name)
    nodes = data.draw(st.sets(st.integers(1, t.rank), min_size=1))
    roots = roots_in_simple_coords(t.series, t.rank)
    levi = [a for a in roots if not any(a[i - 1] for i in nodes)]
    mk = marking(t, nodes)
    assert codim_parabolic(mk) == len(roots) - len(levi)


@pytest.mark.parametrize("name", ORACLE_TYPES)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_codim_is_the_levi_count(oracle_rank_cap, name, data):
    t = dynkin_type(name)
    nodes = data.draw(st.sets(st.integers(1, t.rank), min_size=1))
    assert codim_parabolic(marking(t, nodes)) == levi_codim(t.series, t.rank, nodes)


def test_codim_projective_space_series():
    for m in range(3, 9):
        assert codim_parabolic(marking(DynkinType("A", m - 1), (1,))) == m - 1


def test_codim_examples():
    c2 = dynkin_type("C2")
    assert codim_parabolic(marking(c2, (1,))) == 3
    assert codim_parabolic(marking(c2, (2,))) == 3
    assert codim_parabolic(marking(dynkin_type("A2"), (1, 2))) == 3
    assert codim_parabolic(marking(dynkin_type("D4"), (2,))) == 9


# Single-node dim G/P in Bourbaki numbering: |Phi+| minus the positive
# roots of the Levi, whose diagram is the type's with that node removed.
#   E6, 36: D5 20, A5 15, A1+A4 11, A2+A1+A2 7, A4+A1 11, D5 20
#   E7, 63: D6 30, A6 21, A1+A5 16, A2+A1+A3 10, A4+A2 13, D5+A1 21, E6 36
#   E8, 120: D7 42, A7 28, A1+A6 22, A2+A1+A4 14, A4+A3 16, D5+A2 23,
#            E6+A1 37, E7 63
#   F4, 24: C3 9, A1+A2 4, A2+A1 4, B3 9
EXCEPTIONAL_SINGLE_NODE_DIMS = {
    "E6": (16, 21, 25, 29, 25, 16),
    "E7": (33, 42, 47, 53, 50, 42, 27),
    "E8": (78, 92, 98, 106, 104, 97, 83, 57),
    "F4": (15, 20, 20, 15),
}


@pytest.mark.parametrize("name", sorted(EXCEPTIONAL_SINGLE_NODE_DIMS))
def test_exceptional_single_node_dims(name):
    t = dynkin_type(name)
    dims = tuple(codim_parabolic(marking(t, (i,))) for i in range(1, t.rank + 1))
    assert dims == EXCEPTIONAL_SINGLE_NODE_DIMS[name]


@pytest.mark.parametrize("name", sorted(EXCEPTIONAL_SINGLE_NODE_DIMS))
def test_the_levi_count_gives_the_exceptional_single_node_dims(name):
    t = dynkin_type(name)
    dims = tuple(levi_codim(t.series, t.rank, (i,)) for i in range(1, t.rank + 1))
    assert dims == EXCEPTIONAL_SINGLE_NODE_DIMS[name]


def test_codim_d4_node2_against_independent_roots():
    assert sum(1 for r in roots_in_simple_coords("D", 4) if r[1]) == 9


def test_marking_validation():
    with pytest.raises(EmptyMarking):
        marking(dynkin_type("A2"), ())
    with pytest.raises(NodeOutOfRange):
        marking(dynkin_type("A2"), (3,))
    with pytest.raises(NodeOutOfRange):
        marking(dynkin_type("A2"), (0,))
    with pytest.raises(NodeOutOfRange):
        marking(dynkin_type("A2"), (1.7,))


def test_marking_constructor_checks_and_normalises_nodes():
    a2 = dynkin_type("A2")
    with pytest.raises(NodeOutOfRange, match="must be integers"):
        ParabolicMarking(a2, frozenset({1.5}))
    with pytest.raises(NodeOutOfRange, match="must be integers"):
        ParabolicMarking(a2, 1)
    mk = ParabolicMarking(a2, {2, 1})
    assert mk.marked == frozenset({1, 2}) and type(mk.marked) is frozenset
    assert hash(mk) == hash(marking(a2, (1, 2))) and mk == marking(a2, (1, 2))
    assert codim_parabolic(mk) == 3


def test_r_min_values_and_argmins():
    assert r_min(dynkin_type("A1")) == (1, (1,))
    for m in range(3, 10):
        assert r_min(DynkinType("A", m - 1)) == (m - 1, (1, m - 1))
    assert r_min(dynkin_type("B3")) == (5, (1,))
    assert r_min(dynkin_type("C2")) == (3, (1, 2))
    assert r_min(dynkin_type("D4")) == (6, (1, 3, 4))
    # both maximal parabolics of G2 have codimension five
    assert r_min(dynkin_type("G2")) == (5, (1, 2))


def test_spin_series_r_is_m_minus_2():
    for m in range(7, 13):
        dtype = DynkinType("B", m // 2) if m % 2 else DynkinType("D", m // 2)
        assert r_min(dtype).value == m - 2


@pytest.mark.parametrize("dtype", dynkin_types(6), ids=str)
def test_single_node_minimum_beats_all_markings(dtype):
    best = r_min(dtype).value
    nodes = range(1, dtype.rank + 1)
    full_min = min(
        codim_parabolic(marking(dtype, sub))
        for size in nodes
        for sub in combinations(nodes, size)
    )
    assert full_min == best
    singles = [i for i in nodes if codim_parabolic(marking(dtype, (i,))) == best]
    assert r_min(dtype).nodes == tuple(singles)


@pytest.mark.parametrize("dtype", dynkin_types(5), ids=str)
def test_codim_monotone_in_marking(dtype):
    nodes = range(1, dtype.rank + 1)
    singles = {i: codim_parabolic(marking(dtype, (i,))) for i in nodes}
    for size in nodes:
        for sub in combinations(nodes, size):
            value = codim_parabolic(marking(dtype, sub))
            assert value >= max(singles[i] for i in sub)
            assert value <= len(positive_roots(dtype))


def test_picard_rank_is_marking_size():
    d4 = dynkin_type("D4")
    for nodes in ((1,), (1, 2), (1, 3, 4), (1, 2, 3, 4)):
        assert homogeneous_variety(marking(d4, nodes)).picard_rank == len(nodes)


def test_minimal_varieties_c2_has_both_spaces():
    varieties = minimal_homogeneous_varieties(dynkin_type("C2"))
    assert [hv.label() for hv in varieties] == ["P^3", "Q^3"]
    assert all(hv.dim == 3 for hv in varieties)


def test_minimal_varieties_examples():
    assert [hv.label() for hv in minimal_homogeneous_varieties(dynkin_type("B3"))] == ["Q^5"]
    assert [hv.label() for hv in minimal_homogeneous_varieties(dynkin_type("A3"))] == ["P^3", "P^3"]
    d4 = minimal_homogeneous_varieties(dynkin_type("D4"))
    assert [hv.label() for hv in d4] == ["Q^6", "Q^6", "Q^6"]
    assert [hv.marking.nodes for hv in d4] == [(1,), (3,), (4,)]
    g2 = minimal_homogeneous_varieties(dynkin_type("G2"))
    assert [hv.label() for hv in g2] == ["Q^5", "G2/P(2)"]


def test_identification_table_spot_checks():
    assert identify_marking(marking(dynkin_type("A3"), (2,))).label() == "Gr(2,4)"
    assert identify_marking(marking(dynkin_type("A2"), (1, 2))).label() == "FlagSL3"
    assert identify_marking(marking(dynkin_type("C3"), (1,))).label() == "P^5"
    assert identify_marking(marking(dynkin_type("B4"), (1,))).label() == "Q^7"
    assert identify_marking(marking(dynkin_type("D5"), (1,))).label() == "Q^8"
    assert identify_marking(marking(dynkin_type("C3"), (2,))) is None


def _all_markings(dtype):
    nodes = range(1, dtype.rank + 1)
    return [sub for size in nodes for sub in combinations(nodes, size)]


@pytest.mark.parametrize("dtype", dynkin_types(4), ids=str)
def test_named_markings_resolve_back_to_their_dimension(dtype):
    # name -> marking -> dimension gives back the original marking's
    # codim_parabolic, for every marking the table names
    for nodes in _all_markings(dtype):
        mk = marking(dtype, nodes)
        ident = identify_marking(mk)
        if ident is not None:
            back = named_marking(dtype, ident.label())
            assert back is not None, (dtype, nodes, ident)
            assert codim_parabolic(back) == codim_parabolic(mk) == ident.dim


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_identifications_match_classical_closed_forms(oracle_rank_cap, name):
    t = dynkin_type(name)
    expected = named_flag_varieties(t.series, t.rank)
    if t.rank <= 4:
        candidates = _all_markings(t)
    else:
        candidates = [(i,) for i in range(1, t.rank + 1)] + list(expected)
    for nodes in candidates:
        ident = identify_marking(marking(t, nodes))
        if nodes not in expected:
            assert ident is None, (name, nodes, ident)
            continue
        label, dim = expected[nodes]
        assert ident is not None and ident.label() == label, (name, nodes)
        assert ident.dim == dim == codim_parabolic(marking(t, nodes))


def test_reverse_lookup_aliases_and_unknown_names():
    a3 = dynkin_type("A3")
    # Gr(2,4) is the Klein quadric: both names reach node 2, the label stays Gr(2,4)
    assert named_marking(a3, "Gr(2,4)").nodes == (2,)
    assert named_marking(a3, "Q^4").nodes == (2,)
    assert identify_marking(marking(a3, (2,))).label() == "Gr(2,4)"
    # the first row naming a label wins: P^3 is node 1, Q^6 of D4 is node 1
    assert named_marking(a3, "P^3").nodes == (1,)
    assert named_marking(dynkin_type("D4"), "Q^6").nodes == (1,)
    assert named_marking(dynkin_type("G2"), "Q^5").nodes == (1,)
    assert named_marking(dynkin_type("C2"), "Q^3").nodes == (2,)
    for name, label in (
        ("A3", "Q^5"),
        ("A4", "Gr(2,4)"),
        ("A2", "Gr(2,5)"),
        ("B3", "P^5"),
        ("F4", "Q^15"),
        ("E6", "P^16"),
    ):
        assert named_marking(dynkin_type(name), label) is None


def test_fano_index_projective_spaces():
    for n in range(2, 9):
        assert fano_index(marking(DynkinType("A", n - 1), (1,))) == n


def test_fano_index_quadrics_and_flags():
    assert fano_index(marking(dynkin_type("B2"), (1,))) == 3
    assert fano_index(marking(dynkin_type("A2"), (1,))) == 3
    # index of the quadric Q^d equals d
    for rank in range(2, 5):
        assert fano_index(marking(DynkinType("B", rank), (1,))) == 2 * rank - 1
    for rank in range(4, 6):
        assert fano_index(marking(DynkinType("D", rank), (1,))) == 2 * rank - 2
    assert fano_index(marking(dynkin_type("A3"), (2,))) == 4


@pytest.mark.parametrize(
    "name",
    [t for t in ORACLE_TYPES if int(t[1:]) <= lieflag.roots.MAX_CLASSICAL_RANK]
    + ["E6", "E7", "E8", "F4"],  # doubled epsilon coordinates
)
def test_fano_index_matches_the_epsilon_oracle_at_every_node(name):
    dtype = dynkin_type(name)
    for node in range(1, dtype.rank + 1):
        expected = fano_index_oracle(dtype.series, dtype.rank, node)
        assert fano_index(marking(dtype, (node,))) == expected, node


@pytest.mark.parametrize(
    "name, indices",
    [
        ("E6", (12, 11, 9, 7, 9, 12)),
        ("E7", (17, 14, 11, 8, 10, 13, 18)),
        ("E8", (23, 17, 13, 9, 11, 14, 19, 29)),
        ("F4", (8, 5, 7, 11)),
    ],
)
def test_fano_index_of_the_exceptional_types(name, indices):
    dtype = dynkin_type(name)
    assert tuple(fano_index(marking(dtype, (i,))) for i in range(1, dtype.rank + 1)) == indices


def test_fano_index_needs_single_node():
    with pytest.raises(NotMaximalParabolic):
        fano_index(marking(dynkin_type("A2"), (1, 2)))


def test_conormal_ranges():
    assert admissible_conormal_range(marking(dynkin_type("A1"), (1,))) == (1, 1)
    for n in range(2, 9):
        assert admissible_conormal_range(marking(DynkinType("A", n - 1), (1,))) == (1, n - 1)
    assert admissible_conormal_range(marking(dynkin_type("B3"), (1,))) == (1, 4)


def test_character_weight_examples():
    a2 = dynkin_type("A2")
    w = character_weight(marking(a2, (1, 2)), (1, 1))
    assert w.coords == (1, 1) and w.is_dominant
    w = character_weight(marking(a2, (1,)), (4,))
    assert w.coords == (4, 0)
    w = character_weight(marking(a2, (1, 2)), (0, 0))
    assert not any(weight_vector("A", 2, w.coords))
    w = character_weight(marking(a2, (2,)), (-3,))
    assert w.coords == (0, -3) and not w.is_dominant


def test_character_weight_arity():
    with pytest.raises(ArityMismatch):
        character_weight(marking(dynkin_type("A2"), (1, 2)), (1,))


def test_character_weight_refuses_fractions():
    with pytest.raises(InvalidRank):
        character_weight(marking(dynkin_type("A2"), (1,)), (2.9,))


def test_character_weight_refuses_a_marking_that_is_not_a_marking():
    with pytest.raises(NodeOutOfRange) as exc:
        character_weight("x", (1,))
    assert str(exc.value) == "marking must be a ParabolicMarking, got 'x'"


def test_character_weight_refuses_coefficients_that_are_not_a_sequence():
    with pytest.raises(ArityMismatch) as exc:
        character_weight(marking(dynkin_type("A2"), (1,)), None)
    assert str(exc.value) == "coefficients must be a sequence, got None"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: fano_index("x"), NodeOutOfRange, "marking must be a ParabolicMarking, got 'x'"),
        (lambda: admissible_conormal_range(None), NodeOutOfRange,
         "marking must be a ParabolicMarking, got None"),
        (lambda: identify_marking(()), NodeOutOfRange,
         "marking must be a ParabolicMarking, got ()"),
        (lambda: r_min("A2"), InvalidRank, "type must be a DynkinType, got 'A2'"),
        (lambda: minimal_homogeneous_varieties([1]), InvalidRank,
         "type must be a DynkinType, got [1]"),
    ],
)
def test_a_value_of_the_wrong_type_is_refused_by_name(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_marking_refuses_a_type_that_is_not_a_dynkin_type():
    with pytest.raises(InvalidRank) as exc:
        marking("A2", (1,))
    assert str(exc.value) == "marking type must be a DynkinType, got 'A2'"
