"""Acceptance suite: one test per shipped criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion; any assertion failure marks the criterion FAILED.
"""

import random
import time
import warnings
from itertools import product
from math import comb
from pathlib import Path

from lieflag.classifier import load_database, validate_records
from lieflag.cone import cone_cover_order, cone_hilbert_function
from lieflag.parabolic import (
    admissible_conormal_range,
    marking,
    minimal_homogeneous_varieties,
    r_min,
)
from lieflag.records import parse_records
from lieflag.representations import min_nontrivial_irrep, weyl_dim
from lieflag.roots import DynkinType, Weight, dynkin_type

from oracles import INJECTED_FAULTS, freudenthal_dim, inject, load_script, naive_gcd

GOLDEN = Path(__file__).parent / "golden"


def _report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_r_table():
    start = time.perf_counter()
    for m in range(2, 10):
        assert r_min(DynkinType("A", m - 1)).value == m - 1
    for s in range(2, 6):
        assert r_min(DynkinType("C", s)).value == 2 * s - 1
    for m in range(7, 13):
        dtype = DynkinType("B", m // 2) if m % 2 else DynkinType("D", m // 2)
        assert r_min(dtype).value == m - 2
    assert r_min(dynkin_type("G2")).value == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"r table took {elapsed:.2f}s"
    _report(1, "minimal flag dimensions across all covered groups")


def test_criterion_2_sp4_duplicity():
    best = r_min(dynkin_type("C2"))
    assert len(best.nodes) == 2
    for node in best.nodes:
        from lieflag.parabolic import codim_parabolic

        assert codim_parabolic(marking(dynkin_type("C2"), (node,))) == 3
    labels = sorted(hv.label() for hv in minimal_homogeneous_varieties(dynkin_type("C2")))
    assert labels == ["P^3", "Q^3"]
    _report(2, "two minimal flag varieties for Sp(4)")


def test_criterion_3_spin8_triality():
    best = r_min(dynkin_type("D4"))
    assert best == (6, (1, 3, 4))
    varieties = minimal_homogeneous_varieties(dynkin_type("D4"))
    assert [hv.label() for hv in varieties] == ["Q^6", "Q^6", "Q^6"]
    _report(3, "Spin(8) minimal varieties are three six-dimensional quadrics")


def _covered_types(max_rank):
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for series, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
            out += [DynkinType(series, n) for n in range(lo, max_rank + 1)]
        if max_rank >= 4:
            out.append(DynkinType("F", 4))
        if max_rank >= 6:
            out.append(DynkinType("E", 6))
        out.append(DynkinType("G", 2))
    return out


def test_criterion_4_minimal_representation_bound():
    for dtype in _covered_types(6):
        r = r_min(dtype).value
        best = min_nontrivial_irrep(dtype)
        assert best.dim > r, dtype
        matches = best.dim == r + 1
        expected = dtype.series in ("A", "C") or (dtype.series, dtype.rank) in (
            ("B", 2),
            ("D", 3),  # the A3 relabeling keeps the SL(4) standard rep
        )
        assert matches is expected, dtype
    _report(4, "smallest nontrivial irreducible exceeds r, equality pattern exact")


def test_criterion_5_weyl_versus_freudenthal():
    start = time.perf_counter()
    cases = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        names = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"]
        types = {name: dynkin_type(name) for name in names}
    for name, dtype in types.items():
        for coords in product(range(3), repeat=dtype.rank):
            assert weyl_dim(Weight(dtype, coords)) == freudenthal_dim(name, coords)
            cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 147
    assert elapsed < 30.0, f"oracle comparison took {elapsed:.1f}s"
    _report(5, f"Weyl product equals Freudenthal recursion on {cases} cases")


def test_criterion_6_cone_hilbert_function():
    for n in range(2, 6):
        dtype = DynkinType("A", n - 1)
        w = Weight(dtype, (1,) + (0,) * (n - 2))
        values = cone_hilbert_function(marking(dtype, (1,)), w, 6)
        assert values == [comb(k + n - 1, n - 1) for k in range(7)]
    a2 = dynkin_type("A2")
    flag_cone = cone_hilbert_function(marking(a2, (1, 2)), Weight(a2, (1, 1)), 1)
    assert flag_cone == [1, 8]
    _report(6, "cone Hilbert functions: polynomial ring and adjoint cone")


def test_criterion_7_cover_order_is_divisibility():
    rng = random.Random(20240817)
    for _ in range(50):
        size = rng.randint(1, 6)
        vec = [rng.randint(-60, 60) for _ in range(size)]
        if not any(vec):
            vec[0] = rng.randint(1, 60)
        assert cone_cover_order(vec) == naive_gcd(vec)
        m = rng.randint(1, 9)
        assert cone_cover_order([m * x for x in vec]) == m * cone_cover_order(vec)
    _report(7, "cyclic cover order matches trial-division gcd and scales linearly")


CLASSIFY_GOLDENS = [
    "classify_SL2_n2",
    "classify_SL3_n3",
    "classify_SL4_n4",
    "classify_Sp4_n3",
    "classify_Sp4_n4",
    "classify_Sp6_n6",
    "classify_Spin8_n7",
    "classify_Spin9_n8",
    "classify_SL3_n4_quasi",
]

EXPECTED_NAMES = {
    "classify_SL2_n2": ["P^n", "P^{n-1} x R", "P(O(m)+O)/P^{n-1}", "P1xP1", "P^2"],
    "classify_SL3_n3": ["P^n", "P^{n-1} x R", "P(O(m)+O)/P^{n-1}", "P(T P2)"],
    "classify_SL4_n4": ["P^n", "P^{n-1} x R", "P(O(m)+O)/P^{n-1}", "Gr(2,4)"],
    "classify_Sp4_n3": ["P^3", "Q^3"],
    "classify_Sp4_n4": [
        "P^n",
        "P^{n-1} x R",
        "P(O(m)+O)/P^{n-1}",
        "P(O(m)+O)/Q^3",
        "Q^3 x R",
        "Q^4",
        "Sp4/B",
    ],
    "classify_Sp6_n6": ["P^n", "P^{n-1} x R", "P(O(m)+O)/P^{n-1}"],
    "classify_Spin8_n7": ["P^n", "Q^n", "Q^{n-1} x R", "P(O(m)+O)/Q^{n-1}"],
    "classify_Spin9_n8": ["P^n", "Q^n", "Q^{n-1} x R", "P(O(m)+O)/Q^{n-1}"],
    "classify_SL3_n4_quasi": [
        "X_{p,q}",
        "Y_a",
        "P(S2T P2)",
        "Bl_diag(P2xP2)",
        "P2xP2",
        "Q^4",
    ],
}


def test_criterion_8_classification_golden_files(capsys):
    from lieflag.cli import run

    cases = load_script("regen_golden").cases()
    for name in CLASSIFY_GOLDENS:
        code = run(cases[name])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN / f"{name}.txt").read_text(), name
        listed = [
            line.split(" source=", 1)[0].removeprefix("name=")
            for line in out.splitlines()[1:]
            if line.startswith("name=")
        ]
        assert sorted(listed) == sorted(EXPECTED_NAMES[name]), name
        body = out.split("\n", 1)[1]
        assert "source=" in body and "item=" in body
    with capsys.disabled():
        _report(8, "classification lists reproduce the golden records exactly")


def test_criterion_9_database_self_validation():
    assert validate_records(load_database()) == []
    for old, new, found in INJECTED_FAULTS.values():
        assert validate_records(parse_records(inject(old, new))) == found
    _report(9, "shipped database clean, every rule fires on injected faults")


def test_criterion_10_conormal_ranges():
    for n in range(2, 9):
        assert admissible_conormal_range(marking(DynkinType("A", n - 1), (1,))) == (
            1,
            n - 1,
        )
    # quadric markings: acting group Spin(n + 1) on an n-fold, n <= 8
    for rank in range(2, 5):  # B series, n = 2 * rank
        n = 2 * rank
        assert admissible_conormal_range(marking(DynkinType("B", rank), (1,))) == (
            1,
            n - 2,
        )
    for rank in range(4, 5):  # D series, n = 2 * rank - 1
        n = 2 * rank - 1
        assert admissible_conormal_range(marking(DynkinType("D", rank), (1,))) == (
            1,
            n - 2,
        )
    _report(10, "conormal twist ranges for projective spaces and quadrics")
