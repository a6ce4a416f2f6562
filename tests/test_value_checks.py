"""The edges of the value-type checks, each pinned to its literal message.

The constructors of ``DynkinType``, ``Weight``, ``ParabolicMarking`` and
``GroupSpec``, the marking's node range, ``Weight.is_dominant`` and the
line-bundle check are all written for speed; these tests hold every
refusal to the text it gives, so a faster check cannot change an answer.
One table, ``test_a_wrong_typed_or_over_long_argument_gives_its_named_error``,
holds the refusals of an argument of the wrong type and of an integer too
long for ``str`` (see test_overlong_integers.py), each with its whole message.
"""

from fractions import Fraction

import pytest

from lieflag.classifier import (
    GroupSpec,
    classify,
    load_database,
    orbit_structure,
    relations,
    validate_records,
)
from lieflag.cone import cone_cover_order, cone_hilbert_function
from lieflag.errors import (
    DatabaseFormatError,
    EmptyMarking,
    InvalidDimension,
    InvalidGroup,
    InvalidRank,
    NodeOutOfRange,
    NonDominantWeight,
    ParameterViolation,
    UnknownVariety,
    UnsupportedWeight,
)
from lieflag.parabolic import codim_parabolic, marking, minimal_homogeneous_varieties, r_min
from lieflag.records import eval_expr, parse_records, serialize_records
from lieflag.representations import bwb_section_dim, weyl_dim
from lieflag.roots import (
    DynkinType,
    Weight,
    dynkin_type,
    fundamental_weight,
    positive_roots,
    root_system,
    weight,
)

from oracles import SHIPPED_DB, clear_memos

A2 = DynkinType("A", 2)
B2 = DynkinType("B", 2)
H = 10**5000  # more digits than str converts
TYPES = [DynkinType(s, n) for s, n in (("A", 1), ("A", 3), ("B", 4), ("E", 8), ("G", 2))]


@pytest.mark.parametrize("dtype", TYPES, ids=str)
def test_a_marking_names_its_smallest_node_out_of_range(dtype):
    rank = dtype.rank
    for nodes, named in [((0,), 0), ((rank + 1,), rank + 1), ((0, rank + 2, 3), 0),
                         ((rank, rank + 3, rank + 1), rank + 1), ((-5, 1), -5)]:
        with pytest.raises(NodeOutOfRange) as exc:
            marking(dtype, nodes)
        assert str(exc.value) == f"node {named} out of range 1..{rank} for {dtype}"
    assert marking(dtype, (1, rank)).marked == frozenset({1, rank})


def test_a_marking_takes_true_as_node_1():
    mk = marking(A2, (True,))
    assert mk == marking(A2, (1,)) and type(next(iter(mk.marked))) is int


def test_mass_at_two_unmarked_nodes_names_the_lower_one():
    b4 = DynkinType("B", 4)
    mk = marking(b4, (3,))
    for coords in ((0, 1, 1, 1), (0, 1, 0, 1), (0, 1, 0, -1)):
        with pytest.raises(UnsupportedWeight) as exc:
            bwb_section_dim(mk, Weight(b4, coords), 1)
        assert str(exc.value) == f"weight ({','.join(map(str, coords))}) has mass at unmarked node 2"
    with pytest.raises(UnsupportedWeight) as exc:
        cone_hilbert_function(marking(b4, (1, 2)), Weight(b4, (1, 0, 2, 3)), 3)
    assert str(exc.value) == "weight (1,0,2,3) has mass at unmarked node 3"


@pytest.mark.parametrize("dtype", TYPES, ids=str)
def test_a_weight_negative_only_in_its_last_coordinate_is_refused(dtype):
    w = Weight(dtype, (2,) * (dtype.rank - 1) + (-1,))
    assert not w.is_dominant
    assert Weight(dtype, (0,) * dtype.rank).is_dominant
    mk = marking(dtype, range(1, dtype.rank + 1))
    message = f"weight {w} has a negative coordinate"
    for call in (lambda: weyl_dim(w), lambda: bwb_section_dim(mk, w, 2),
                 lambda: cone_hilbert_function(mk, w, 3)):
        with pytest.raises(NonDominantWeight) as exc:
            call()
        assert str(exc.value) == message


GOOD = {
    "DynkinType": A2,
    "Weight": Weight(A2, (1, 0)),
    "ParabolicMarking": marking(A2, (1,)),
    "GroupSpec": GroupSpec("SL", 3),
}


@pytest.mark.parametrize(
    "name, call, error, message",
    [
        ("DynkinType", lambda v: v._replace(rank=0), InvalidRank, "series A needs rank >= 1"),
        ("DynkinType", lambda v: type(v)._make(("Q", 4)), InvalidRank, "unknown series 'Q'"),
        ("DynkinType", lambda v: v._replace(rank=99), InvalidRank,
         "rank 99 above the configured cap 12 for series A"),
        ("DynkinType", lambda v: type(v)._make(("A", 99)), InvalidRank,
         "rank 99 above the configured cap 12 for series A"),
        ("Weight", lambda v: v._replace(coords=(1,)), InvalidRank,
         "weight needs 2 coordinates, got 1"),
        ("Weight", lambda v: type(v)._make((A2, (1.5, 0))), InvalidRank,
         "weight coordinates must be integers, got (1.5, 0)"),
        ("Weight", lambda v: v._replace(coords=(1.5, 0)), InvalidRank,
         "weight coordinates must be integers, got (1.5, 0)"),
        ("ParabolicMarking", lambda v: v._replace(marked=(3,)), NodeOutOfRange,
         "node 3 out of range 1..2 for A2"),
        ("ParabolicMarking", lambda v: v._replace(marked=frozenset({7})), NodeOutOfRange,
         "node 7 out of range 1..2 for A2"),
        ("ParabolicMarking", lambda v: type(v)._make((A2, ())), EmptyMarking,
         "a parabolic marking needs at least one node"),
        ("GroupSpec", lambda v: v._replace(parameter=1), InvalidGroup,
         "SL needs parameter >= 2, got 1"),
        ("GroupSpec", lambda v: type(v)._make(("Spin", 4)), InvalidGroup,
         "Spin needs parameter >= 5, got 4"),
        ("GroupSpec", lambda v: type(v)._make(("SU", 3)), InvalidGroup, "unknown family 'SU'"),
    ],
)
def test_replace_and_make_still_validate(name, call, error, message):
    with pytest.raises(error) as exc:
        call(GOOD[name])
    assert str(exc.value) == message


def test_a_valid_replace_or_make_keeps_the_type():
    for value in GOOD.values():
        for copy in (value._replace(), type(value)._make(value)):
            assert copy == value and type(copy) is type(value)
    assert A2._replace(rank=3) == DynkinType("A", 3)
    # a valid replacement normalises as the constructor does
    assert GOOD["Weight"]._replace(coords=[True, 0]).coords == (1, 0)
    assert GOOD["ParabolicMarking"]._replace(marked=[2, 2]).marked == frozenset({2})


@pytest.mark.parametrize(
    "name, call, error, message",
    [
        ("DynkinType", root_system, InvalidRank, "type must be a DynkinType, got ('A', 2)"),
        ("DynkinType", positive_roots, InvalidRank, "type must be a DynkinType, got ('A', 2)"),
        ("DynkinType", r_min, InvalidRank, "type must be a DynkinType, got ('A', 2)"),
        ("DynkinType", minimal_homogeneous_varieties, InvalidRank,
         "type must be a DynkinType, got ('A', 2)"),
        ("Weight", weyl_dim, UnsupportedWeight,
         "weight must be a Weight, got (DynkinType(series='A', rank=2), (1, 0))"),
        ("ParabolicMarking", codim_parabolic, NodeOutOfRange,
         "marking must be a ParabolicMarking, got "
         "(DynkinType(series='A', rank=2), frozenset({1}))"),
        ("GroupSpec", lambda g: classify(g, 3), InvalidGroup,
         "group must be a GroupSpec, got ('SL', 3)"),
    ],
)
def test_a_plain_tuple_equal_to_a_value_is_refused_cold_and_warm(name, call, error, message):
    plain = tuple(GOOD[name])
    assert plain == GOOD[name] and hash(plain) == hash(GOOD[name])
    clear_memos()
    for state in ("cold", "warm"):
        with pytest.raises(error) as exc:
            call(plain)
        assert str(exc.value) == message, state
        call(GOOD[name])  # the plain tuple now equals a key of the memos and hashes alike


_LONG_TYPE = "A" + "9" * 5000


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: classify(None, 4), InvalidGroup, "group must be a GroupSpec, got None"),
        (lambda: classify(("SL", 4), 4), InvalidGroup,
         "group must be a GroupSpec, got ('SL', 4)"),
        (lambda: parse_records(5), DatabaseFormatError, "database text must be a str, got int"),
        (lambda: parse_records(SHIPPED_DB.read_bytes()), DatabaseFormatError,
         "database text must be a str, got bytes"),
        (lambda: serialize_records(5), DatabaseFormatError,
         "records must be an iterable, got int"),
        (lambda: validate_records(5), DatabaseFormatError,
         "records must be an iterable, got int"),
        (lambda: validate_records(None), DatabaseFormatError,
         "records must be an iterable, got NoneType"),
        (lambda: orbit_structure("P^n", None, "SL"), ParameterViolation,
         "params must be a mapping, got NoneType"),
        (lambda: orbit_structure("P^n", [("n", 4)], "SL"), ParameterViolation,
         "params must be a mapping, got list"),
        (lambda: load_database()[0].check_params(None), ParameterViolation,
         "params must be a mapping, got NoneType"),
        (lambda: eval_expr(5, {}), DatabaseFormatError, "expression must be a string, got int"),
        (lambda: eval_expr("n", None), DatabaseFormatError,
         "env must be a mapping, got NoneType"),
        (lambda: load_database()[0].applies("3"), InvalidDimension,
         "dimension must be an integer, got '3'"),
        (lambda: load_database()[0].applies(None), InvalidDimension,
         "dimension must be an integer, got None"),
        # a string argument that is not a string, checked before a memo key or
        # a set lookup, which could not hash a list
        (lambda: eval_expr(["n"], {"n": 1}), DatabaseFormatError,
         "expression must be a string, got list"),
        (lambda: relations(["x"]), UnknownVariety, "no record or instance named ['x']"),
        (lambda: relations(H), UnknownVariety,
         "no record or instance named <integer of ~5000 digits>"),
        (lambda: orbit_structure(H, {"n": 3}), UnknownVariety,
         "no record named <integer of ~5000 digits>"),
        (lambda: dynkin_type(5), InvalidRank, "cannot parse Dynkin type 5: not a string"),
        (lambda: dynkin_type(None), InvalidRank, "cannot parse Dynkin type None: not a string"),
        (lambda: DynkinType(["A"], 2), InvalidRank, "unknown series ['A']"),
        (lambda: DynkinType(H, 2), InvalidRank, "unknown series <integer of ~5000 digits>"),
        # an integer too long for str, named by its size
        (lambda: DynkinType("A", H), InvalidRank,
         "rank <integer of ~5000 digits> above the configured cap 12 for series A"),
        (lambda: DynkinType("E", H), InvalidRank, "E<integer of ~5000 digits> is not a simple type"),
        (lambda: GroupSpec("SL", -H), InvalidGroup,
         "SL needs parameter >= 2, got <negative integer of ~5000 digits>"),
        (lambda: GroupSpec("Sp", H + 1), InvalidGroup,
         "Sp needs an even parameter >= 4, got <integer of ~5000 digits>"),
        (lambda: GroupSpec("Spin", -H), InvalidGroup,
         "Spin needs parameter >= 5, got <negative integer of ~5000 digits>"),
        (lambda: GroupSpec(H), InvalidGroup, "unknown family <integer of ~5000 digits>"),
        (lambda: GroupSpec("SL", (H,)), InvalidGroup,
         "group parameter must be an integer, got <tuple holding an over-long integer>"),
        (lambda: fundamental_weight(A2, H), InvalidRank,
         "node <integer of ~5000 digits> out of range for A2"),
        (lambda: marking(A2, (H,)), NodeOutOfRange,
         "node <integer of ~5000 digits> out of range 1..2 for A2"),
        (lambda: marking(A2, (H, 1.5)), NodeOutOfRange,
         "marked nodes must be integers, got <tuple holding an over-long integer>"),
        (lambda: weight(A2, (H, 1.5)), InvalidRank,
         "weight coordinates must be integers, got <tuple holding an over-long integer>"),
        (lambda: weyl_dim(weight(A2, (-H, 0))), NonDominantWeight,
         "weight (<negative integer of ~5000 digits>,0) has a negative coordinate"),
        (lambda: bwb_section_dim(marking(B2, (1,)), fundamental_weight(B2, 1), -H),
         InvalidDimension, "power must be an integer >= 1, got <negative integer of ~5000 digits>"),
        (lambda: bwb_section_dim(marking(B2, (1,)), weight(B2, (0, H)), 1), UnsupportedWeight,
         "weight (0,<integer of ~5000 digits>) has mass at unmarked node 2"),
        (lambda: cone_hilbert_function(marking(B2, (1,)), fundamental_weight(B2, 1), -H),
         InvalidDimension, "k_max must be an integer >= 1, got <negative integer of ~5000 digits>"),
        (lambda: cone_cover_order((H, 1.5)), UnsupportedWeight,
         "c1 entries must be integers, got <tuple holding an over-long integer>"),
        (lambda: classify(GroupSpec("SL", 4), -H), InvalidDimension,
         "dimension must be positive, got <negative integer of ~5000 digits>"),
        (lambda: classify(GroupSpec("SL", 4), Fraction(H, 3)), InvalidDimension,
         "dimension must be an integer, got <Fraction holding an over-long integer>"),
        (lambda: orbit_structure("P^n", {"n": H}, case="SL"), ParameterViolation,
         "P^{n-1} at n=<integer of ~5000 digits> has an exponent too long to write"),
        (lambda: orbit_structure("Gr(2,4)", {"n": H}, case="SL"), ParameterViolation,
         "'Gr(2,4)' requires 'n == 4', violated at n=<integer of ~5000 digits>"),
        (lambda: orbit_structure("P^n", {"n": Fraction(H, 3)}, case="SL"), ParameterViolation,
         "parameter 'n' must be an integer, got <Fraction holding an over-long integer>"),
        (lambda: orbit_structure("P^n", {"n": 3}, case=H), UnknownVariety,
         "no record named 'P^n' in case <integer of ~5000 digits>"),
        # a string is shown whole, however long; the row's id leaves it out
        pytest.param(lambda: dynkin_type(_LONG_TYPE), InvalidRank,
                     f"cannot parse Dynkin type {_LONG_TYPE!r}", id="over-long type text"),
        (lambda: dynkin_type("A²"), InvalidRank, "cannot parse Dynkin type 'A²'"),
    ],
)
def test_a_wrong_typed_or_over_long_argument_gives_its_named_error(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
