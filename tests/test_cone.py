import time
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lieflag import cone
from lieflag.cone import cone_cover_order, cone_hilbert_function
from lieflag.errors import (
    InvalidDimension,
    NonDominantWeight,
    UnsupportedWeight,
    ZeroClass,
)
from lieflag.parabolic import character_weight, marking
from lieflag.representations import weyl_dim
from lieflag.roots import DynkinType, dynkin_type, weight

from oracles import ORACLE_TYPES, euclidean_type, freudenthal_dim, naive_gcd, weyl_product_dim

nonzero_vectors = st.lists(
    st.integers(min_value=-40, max_value=40), min_size=1, max_size=6
).filter(lambda v: any(v))


def test_cover_order_examples():
    assert cone_cover_order((1,)) == 1
    assert cone_cover_order((3,)) == 3
    assert cone_cover_order((2, 4)) == 2


def test_cover_order_rejects_zero_class():
    with pytest.raises(ZeroClass):
        cone_cover_order((0, 0))
    with pytest.raises(ZeroClass):
        cone_cover_order(())


def test_cover_order_refuses_fractional_class():
    # c1 is a coefficient vector: 2.5 is refused, not truncated to 2
    for c1 in [(2.5, 4), (2, 4.0), ("2", 4)]:
        with pytest.raises(UnsupportedWeight):
            cone_cover_order(c1)


@given(nonzero_vectors)
def test_cover_order_matches_trial_division(v):
    assert cone_cover_order(v) == naive_gcd(v)


@given(st.data())
def test_cover_order_sign_and_permutation_invariant(data):
    v = data.draw(nonzero_vectors)
    shuffled = data.draw(st.permutations(v))
    assert cone_cover_order([-x for x in v]) == cone_cover_order(v)
    assert cone_cover_order(shuffled) == cone_cover_order(v)


@given(nonzero_vectors, st.integers(min_value=1, max_value=9))
def test_cover_order_scaling_law(v, m):
    assert cone_cover_order([m * x for x in v]) == m * cone_cover_order(v)


def test_hilbert_polynomial_ring():
    a2 = dynkin_type("A2")
    assert cone_hilbert_function(marking(a2, (1,)), weight(a2, (1, 0)), 3) == [1, 3, 6, 10]


def test_hilbert_veronese_curve_cone():
    a1 = dynkin_type("A1")
    values = cone_hilbert_function(marking(a1, (1,)), weight(a1, (2,)), 2)
    assert values == [1, 3, 5]
    assert values[1] == freudenthal_dim("A1", (2,))


def test_hilbert_full_flag_adjoint_entry():
    a2 = dynkin_type("A2")
    values = cone_hilbert_function(marking(a2, (1, 2)), weight(a2, (1, 1)), 1)
    assert values == [1, 8]


def test_hilbert_binomial_closed_form():
    for n in range(2, 6):
        t = DynkinType("A", n - 1)
        mk = marking(t, (1,))
        w = weight(t, (1,) + (0,) * (n - 2))
        values = cone_hilbert_function(mk, w, 6)
        assert values == [comb(k + n - 1, n - 1) for k in range(7)]


def test_hilbert_strictly_increasing_small_rank():
    cases = [
        ("A1", (1,), (1,)),
        ("A2", (2,), (0, 1)),
        ("B2", (1,), (1, 0)),
        ("B2", (2,), (0, 1)),
        ("C3", (1,), (1, 0, 0)),
        ("G2", (1,), (1, 0)),
        ("A3", (2,), (0, 1, 0)),
    ]
    for name, nodes, coords in cases:
        t = dynkin_type(name)
        values = cone_hilbert_function(marking(t, nodes), weight(t, coords), 5)
        assert all(a < b for a, b in zip(values, values[1:])), (name, values)


def test_hilbert_rejects_bad_kmax():
    a1 = dynkin_type("A1")
    for k_max in [0, 2.5, 2.0, "2"]:
        with pytest.raises(InvalidDimension):
            cone_hilbert_function(marking(a1, (1,)), weight(a1, (1,)), k_max)


def test_hilbert_refuses_kmax_above_10000_before_building_any_value():
    a1 = dynkin_type("A1")
    mk, w = marking(a1, (1,)), weight(a1, (1,))
    assert cone_hilbert_function(mk, w, 10_000)[-1] == 10_001
    start = time.perf_counter()
    for k_max, message in ((10_001, "at most 10000, got 10001"),
                           (10**8, "at most 10000, got 100000000"),
                           (0, "an integer >= 1, got 0")):
        with pytest.raises(InvalidDimension) as exc:
            cone_hilbert_function(mk, w, k_max)
        assert str(exc.value) == f"k_max must be {message}"
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("name", ORACLE_TYPES)
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_hilbert_matches_euclidean_weyl_product(oracle_rank_cap, name, data):
    t = dynkin_type(name)
    nodes = data.draw(st.sets(st.integers(1, t.rank), min_size=1, max_size=2))
    mk = marking(t, nodes)
    coeffs = data.draw(st.lists(st.integers(1, 3), min_size=len(nodes), max_size=len(nodes)))
    w = character_weight(mk, coeffs)
    k_max = data.draw(st.integers(1, 4))
    values = cone_hilbert_function(mk, w, k_max)
    etype = euclidean_type(t.series, t.rank)
    assert len(values) == k_max + 1 and values[0] == 1
    for k in range(1, k_max + 1):
        assert values[k] == weyl_product_dim(etype, w.scaled(k).coords)


@pytest.mark.parametrize("name", ORACLE_TYPES)
@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_hilbert_above_the_memo_bound_matches_euclidean_weyl_product(oracle_rank_cap, name, data):
    t = dynkin_type(name)
    nodes = data.draw(st.sets(st.integers(1, t.rank), min_size=1, max_size=2))
    mk = marking(t, nodes)
    coeffs = data.draw(st.lists(st.integers(1, 3), min_size=len(nodes), max_size=len(nodes)))
    w = character_weight(mk, coeffs)
    k_max = data.draw(st.integers(cone._MEMO_K_MAX + 1, 40))
    size = cone._hilbert_values.cache_info().currsize
    values = cone_hilbert_function(mk, w, k_max)
    assert cone._hilbert_values.cache_info().currsize == size  # no memo entry is made
    etype = euclidean_type(t.series, t.rank)
    powers = range(1, k_max + 1)
    assert values == [1] + [weyl_product_dim(etype, w.scaled(k).coords) for k in powers]


@pytest.mark.parametrize("name", ["E6", "E7", "E8", "F4"])
def test_exceptional_hilbert_is_weyl_dim_of_each_power(name):
    # no Euclidean oracle covers these types: each power is checked
    # against its own Weyl product, walked afresh for k*w
    t = dynkin_type(name)
    for nodes in [(i,) for i in range(1, t.rank + 1)] + [(1, t.rank), (2, 3)]:
        mk = marking(t, nodes)
        w = character_weight(mk, [1 + i for i in range(len(nodes))])
        values = cone_hilbert_function(mk, w, 4)
        assert values[0] == 1
        assert values[1:] == [weyl_dim(w.scaled(k)) for k in range(1, 5)]


def test_a_mutated_answer_does_not_change_the_next():
    a2 = dynkin_type("A2")
    mk, w = marking(a2, (1,)), weight(a2, (1, 0))
    first = cone_hilbert_function(mk, w, 3)
    first[1] = 99
    first.append(0)
    assert cone_hilbert_function(mk, w, 3) == [1, 3, 6, 10]


def test_a_weight_cached_under_one_marking_is_refused_under_another():
    a2 = dynkin_type("A2")
    w = weight(a2, (1, 0))
    assert cone_hilbert_function(marking(a2, (1,)), w, 3) == [1, 3, 6, 10]
    for _ in range(2):  # the check runs before the memo on every call
        with pytest.raises(UnsupportedWeight, match="mass at unmarked node 1"):
            cone_hilbert_function(marking(a2, (2,)), w, 3)


def test_a_non_dominant_weight_is_refused_every_time_and_not_memoised():
    a2 = dynkin_type("A2")
    mk, w = marking(a2, (1,)), weight(a2, (-1, 0))
    size = cone._hilbert_values.cache_info().currsize
    for _ in range(2):
        with pytest.raises(NonDominantWeight, match=r"weight \(-1,0\) has a negative coordinate"):
            cone_hilbert_function(mk, w, 3)
    assert cone._hilbert_values.cache_info().currsize == size


def test_a_kmax_above_16_bypasses_the_memo():
    b3 = dynkin_type("B3")
    mk = marking(b3, (1, 3))
    w = character_weight(mk, (1, 2))
    size = cone._hilbert_values.cache_info().currsize
    long = cone_hilbert_function(mk, w, 17)
    assert cone._hilbert_values.cache_info().currsize == size
    assert long[:17] == cone_hilbert_function(mk, w, 16)
    assert len(long) == 18 and long[17] == weyl_dim(w.scaled(17))


def test_a_memo_hit_still_matches_the_oracle_at_every_power():
    c3 = dynkin_type("C3")
    mk = marking(c3, (2,))
    w = character_weight(mk, (3,))
    etype = euclidean_type("C", 3)
    cone_hilbert_function(mk, w, 5)
    hits = cone._hilbert_values.cache_info().hits
    values = cone_hilbert_function(mk, w, 5)
    assert cone._hilbert_values.cache_info().hits == hits + 1
    assert values == [1] + [weyl_product_dim(etype, w.scaled(k).coords) for k in range(1, 6)]
