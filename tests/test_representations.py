from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lieflag.cone import cone_hilbert_function
from lieflag.errors import (
    InvalidDimension,
    InvalidRank,
    NodeOutOfRange,
    NonDominantWeight,
    UnsupportedWeight,
)
from lieflag.parabolic import codim_parabolic, marking, r_min
from lieflag.representations import (
    bwb_section_dim,
    check_rg_plus_one,
    min_nontrivial_irrep,
    weyl_dim,
)
from lieflag.roots import (
    DynkinType,
    Weight,
    dynkin_type,
    fundamental_weight,
    root_system,
    weight,
)

from oracles import ORACLE_TYPES, dynkin_types, euclidean_type, freudenthal_dim, weyl_product_dim


def test_weyl_dim_examples():
    assert weyl_dim(weight(dynkin_type("A1"), (2,))) == 3
    assert weyl_dim(weight(dynkin_type("A2"), (1, 0))) == 3
    # second wedge power of C^4: count the basis e_i ^ e_j directly
    assert weyl_dim(weight(dynkin_type("A3"), (0, 1, 0))) == len(
        list(combinations(range(4), 2))
    )
    assert weyl_dim(weight(dynkin_type("G2"), (1, 0))) == freudenthal_dim("G2", (1, 0))
    # a fractional weight is an error, not the dimension of its truncation (1, 0)
    with pytest.raises(InvalidRank):
        weyl_dim(weight(dynkin_type("A2"), (1.5, 0)))


def test_weyl_dim_trivial_and_rho():
    for name in ("A2", "B3", "G2"):
        t = dynkin_type(name)
        assert weyl_dim(Weight(t, (0,) * t.rank)) == 1
    for t in dynkin_types(4):
        rs = root_system(t)
        assert weyl_dim(rs.rho) == 2 ** len(rs.positive_roots)


@pytest.mark.parametrize("name", ORACLE_TYPES)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_weyl_dim_matches_euclidean_product(oracle_rank_cap, name, data):
    t = dynkin_type(name)
    coords = data.draw(st.tuples(*[st.integers(0, 3)] * t.rank))
    expected = weyl_product_dim(euclidean_type(t.series, t.rank), coords)
    assert weyl_dim(Weight(t, coords)) == expected


# |Phi+| = 1, 3, 4, 6, 9, 10, 12, 16, 21, 63.  The Weyl product pairs its
# factors level by level and an odd last term waits a level, so these give a
# lone factor, whole trees (4, 16) and an odd leftover at each of the first
# four levels: 3, 9, 21, 63 at the factors; 6, 9, 10, 21 one level up;
# 9, 10, 12 two up; 21 three up.
BLOCK_TYPES = ("A1", "A2", "B2", "G2", "B3", "A4", "D4", "B4", "A6", "E7")
_COORD = st.one_of(st.integers(0, 3), st.integers(0, 10**30))  # big ones overflow a word


@pytest.mark.parametrize("name", BLOCK_TYPES)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_the_weyl_product_tree_is_exact_beyond_the_machine_word(name, data):
    t = dynkin_type(name)
    etype = euclidean_type(t.series, t.rank)
    coords = data.draw(st.tuples(*[_COORD] * t.rank))
    w = Weight(t, coords)
    assert weyl_dim(w) == weyl_product_dim(etype, coords)
    k_max = data.draw(st.integers(1, 16))
    values = cone_hilbert_function(marking(t, range(1, t.rank + 1)), w, k_max)
    assert values[1:] == [weyl_dim(w.scaled(k)) for k in range(1, k_max + 1)]
    assert values[k_max] == weyl_product_dim(etype, [k_max * c for c in coords])


# Bourbaki numbering; the standard tables of fundamental representations.
EXCEPTIONAL_FUNDAMENTAL_DIMS = {
    "E6": (27, 78, 351, 2925, 351, 27),
    "E7": (133, 912, 8645, 365750, 27664, 1539, 56),
    "E8": (3875, 147250, 6696000, 6899079264, 146325270, 2450240, 30380, 248),
    "F4": (52, 1274, 273, 26),
}


@pytest.mark.parametrize("name", sorted(EXCEPTIONAL_FUNDAMENTAL_DIMS))
def test_exceptional_fundamental_dims(name):
    t = dynkin_type(name)
    dims = tuple(weyl_dim(fundamental_weight(t, i)) for i in range(1, t.rank + 1))
    assert dims == EXCEPTIONAL_FUNDAMENTAL_DIMS[name]


def test_weyl_dim_rejects_nondominant():
    with pytest.raises(NonDominantWeight):
        weyl_dim(weight(dynkin_type("A2"), (-1, 0)))


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"])
def test_weyl_dim_strictly_monotone(name):
    t = dynkin_type(name)
    for coords in product(range(3), repeat=t.rank):
        base = weyl_dim(Weight(t, coords))
        for i in range(t.rank):
            bumped = tuple(c + 1 if k == i else c for k, c in enumerate(coords))
            assert weyl_dim(Weight(t, bumped)) > base


@pytest.mark.parametrize("dtype", dynkin_types(6), ids=str)
def test_every_nontrivial_irrep_exceeds_r(dtype):
    r = r_min(dtype).value
    for coords in product(range(4), repeat=dtype.rank):
        if not any(coords):
            continue
        assert weyl_dim(Weight(dtype, coords)) > r


def test_min_irrep_examples():
    for m in range(2, 8):
        best = min_nontrivial_irrep(DynkinType("A", m - 1))
        assert best.dim == m
        assert best.nodes == ((1,) if m == 2 else (1, m - 1))
    for s in range(2, 6):
        assert min_nontrivial_irrep(DynkinType("C", s)).dim == 2 * s
    b3 = min_nontrivial_irrep(dynkin_type("B3"))
    assert (b3.dim, b3.nodes) == (7, (1,))
    d4 = min_nontrivial_irrep(dynkin_type("D4"))
    assert (d4.dim, d4.nodes) == (8, (1, 3, 4))
    g2 = min_nontrivial_irrep(dynkin_type("G2"))
    assert (g2.dim, g2.nodes) == (7, (1,))


@pytest.mark.parametrize("dtype", dynkin_types(6), ids=str)
def test_min_dim_equals_r_plus_one_only_for_standard_series(dtype):
    # true for SL and Sp standard representations; B2 and D3 are the
    # C2 / A3 relabelings, so they satisfy it as well
    expected = dtype.series in ("A", "C") or (dtype.series, dtype.rank) in (
        ("B", 2),
        ("D", 3),
    )
    assert check_rg_plus_one(dtype) is expected


def test_bwb_projective_plane_binomial():
    a2 = dynkin_type("A2")
    mk = marking(a2, (1,))
    w = weight(a2, (1, 0))
    for k in range(1, 7):
        assert bwb_section_dim(mk, w, k) == comb(k + 2, 2)


def test_bwb_examples():
    a1 = dynkin_type("A1")
    assert bwb_section_dim(marking(a1, (1,)), weight(a1, (1,)), 1) == 2
    b2 = dynkin_type("B2")
    assert bwb_section_dim(marking(b2, (1,)), weight(b2, (1, 0)), 1) == 5
    assert bwb_section_dim(marking(b2, (1,)), weight(b2, (1, 0)), 1) == freudenthal_dim(
        "B2", (1, 0)
    )


def test_bwb_nondecreasing_in_power():
    b3 = dynkin_type("B3")
    mk = marking(b3, (3,))
    w = weight(b3, (0, 0, 1))
    dims = [bwb_section_dim(mk, w, k) for k in range(1, 6)]
    assert dims == sorted(dims)


def test_bwb_rejects_off_marking_weight():
    a2 = dynkin_type("A2")
    with pytest.raises(UnsupportedWeight):
        bwb_section_dim(marking(a2, (1,)), weight(a2, (0, 1)), 2)
    with pytest.raises(UnsupportedWeight):
        bwb_section_dim(marking(a2, (1,)), weight(dynkin_type("A3"), (1, 0, 0)), 2)
    for power in [0, 1.5, 2.0, "2"]:
        with pytest.raises(InvalidDimension):
            bwb_section_dim(marking(a2, (1,)), weight(a2, (1, 0)), power)


def test_a_nondominant_line_bundle_quotes_the_callers_weight():
    a2 = dynkin_type("A2")
    mk, w = marking(a2, (1,)), weight(a2, (-1, 0))
    # the weight is checked before the power, so a bad power does not hide it
    for call in (lambda: bwb_section_dim(mk, w, 3), lambda: bwb_section_dim(mk, w, 0),
                 lambda: cone_hilbert_function(mk, w, 3)):
        with pytest.raises(NonDominantWeight) as exc:
            call()
        assert str(exc.value) == "weight (-1,0) has a negative coordinate"


def test_weyl_dim_threadsafe_memo():
    t = dynkin_type("B3")
    jobs = [Weight(t, coords) for coords in product(range(3), repeat=3)] * 4
    with ThreadPoolExecutor(max_workers=8) as pool:
        dims = list(pool.map(weyl_dim, jobs))
    serial = [weyl_dim(w) for w in jobs]
    assert dims == serial


A1_W = weight(DynkinType("A", 1), (1,))
A1_MK = marking(DynkinType("A", 1), (1,))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: weyl_dim((1, 0)), UnsupportedWeight, "weight must be a Weight, got (1, 0)"),
        (lambda: weyl_dim(None), UnsupportedWeight, "weight must be a Weight, got None"),
        (lambda: weyl_dim(10**5000), UnsupportedWeight,
         "weight must be a Weight, got <integer of ~5000 digits>"),
        (lambda: bwb_section_dim("x", A1_W, 1), UnsupportedWeight,
         "marking must be a ParabolicMarking, got 'x'"),
        (lambda: bwb_section_dim(A1_MK, (1,), 1), UnsupportedWeight,
         "weight must be a Weight, got (1,)"),
        (lambda: cone_hilbert_function(None, A1_W, 2), UnsupportedWeight,
         "marking must be a ParabolicMarking, got None"),
        (lambda: cone_hilbert_function(A1_MK, "w", 2), UnsupportedWeight,
         "weight must be a Weight, got 'w'"),
        (lambda: codim_parabolic("x"), NodeOutOfRange,
         "marking must be a ParabolicMarking, got 'x'"),
        (lambda: codim_parabolic((DynkinType("A", 1), frozenset({1}))), NodeOutOfRange,
         "marking must be a ParabolicMarking, got (DynkinType(series='A', rank=1), "
         "frozenset({1}))"),
    ],
)
def test_a_value_of_the_wrong_type_gives_the_named_error(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
