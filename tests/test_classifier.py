import functools
import importlib
import itertools
import os
import pkgutil
import re
import shutil
import sys
from pathlib import Path
from unittest import mock

import pytest

import lieflag
from lieflag import classifier, parabolic, records, roots
from lieflag.classifier import (
    GroupSpec,
    Violation,
    classify,
    load_database,
    orbit_structure,
    relations,
    validate_database,
    validate_records,
)
from lieflag.errors import (
    DatabaseFormatError,
    DomainError,
    InvalidDimension,
    InvalidGroup,
    InvalidRank,
    ParameterViolation,
    UnknownVariety,
)
from lieflag.parabolic import codim_parabolic
from lieflag.records import parse_records, serialize_records
from lieflag.roots import DynkinType

from oracles import SHIPPED_DB, OnlyIndex, load_script

ROOT = Path(__file__).resolve().parent.parent


def test_group_spec_validation():
    for family, param in (("SL", 1), ("Sp", 2), ("Sp", 5), ("Spin", 4), ("SU", 3)):
        with pytest.raises(InvalidGroup):
            GroupSpec(family, param)
    # a non-integer parameter is refused, not carried into the type as A2.0
    for family, param in (("SL", 3.0), ("SL", 2.5), ("Sp", 4.0), ("Spin", "8"), ("G2", 0.5)):
        with pytest.raises(InvalidGroup, match="must be an integer"):
            GroupSpec(family, param)


def test_group_spec_keeps_the_integer_it_checked():
    spec = GroupSpec("SL", OnlyIndex())  # an integer to operator.index alone
    assert repr(spec) == "GroupSpec(family='SL', parameter=4)"
    assert type(spec.parameter) is int
    assert classify(spec, 4) == classify(GroupSpec("SL", 4), 4)


def test_group_spec_resolution_and_aliases():
    assert GroupSpec("SL", 4).dynkin() == DynkinType("A", 3)
    assert GroupSpec("Sp", 6).dynkin() == DynkinType("C", 3)
    assert GroupSpec("Spin", 7).dynkin() == DynkinType("B", 3)
    assert GroupSpec("Spin", 8).dynkin() == DynkinType("D", 4)
    assert GroupSpec("G2").dynkin() == DynkinType("G", 2)
    assert GroupSpec("Spin", 5).resolve() == ("Sp", GroupSpec("Sp", 4))
    assert GroupSpec("Spin", 6).resolve() == ("SL", GroupSpec("SL", 4))


def test_classify_rejects_bad_dimension():
    with pytest.raises(InvalidDimension):
        classify(GroupSpec("SL", 3), 0)
    # a string or fractional n is refused, not compared or answered out of range
    for n in ("4", 2.5, 4.0, None):
        with pytest.raises(InvalidDimension, match="must be an integer"):
            classify(GroupSpec("SL", 3), n)


def _r_of(group):
    from lieflag.parabolic import r_min

    return r_min(group.dynkin()).value


@pytest.mark.parametrize(
    "group",
    [GroupSpec("SL", m) for m in range(3, 9)]
    + [GroupSpec("Sp", m) for m in range(4, 11, 2)]
    + [GroupSpec("Spin", m) for m in range(7, 13)]
    + [GroupSpec("G2")],
    ids=lambda g: g.label(),
)
def test_verdict_boundaries(group):
    r = _r_of(group)
    for n in range(1, r + 2):
        result = classify(group, n)
        if n < r:
            assert result.verdict == "only_trivial_action"
        elif n == r:
            assert result.verdict == "homogeneous"
            assert result.entries
        else:
            expected = "out_of_covered_range" if group.family == "G2" else "full_list"
            assert result.verdict == expected


def test_homogeneous_case_sp4():
    result = classify(GroupSpec("Sp", 4), 3)
    assert result.verdict == "homogeneous"
    assert [d.name for d in result.entries] == ["P^3", "Q^3"]


def test_homogeneous_case_spin8():
    result = classify(GroupSpec("Spin", 8), 6)
    assert [d.name for d in result.entries] == ["Q^6", "Q^6", "Q^6"]


def test_full_list_contents_by_case():
    base_sl = ["P^n", "P^{n-1} x R", "P(O(m)+O)/P^{n-1}"]
    assert [d.name for d in classify(GroupSpec("SL", 2), 2).entries] == base_sl + [
        "P1xP1",
        "P^2",
    ]
    assert [d.name for d in classify(GroupSpec("SL", 3), 3).entries] == base_sl + [
        "P(T P2)"
    ]
    assert [d.name for d in classify(GroupSpec("SL", 4), 4).entries] == base_sl + [
        "Gr(2,4)"
    ]
    assert [d.name for d in classify(GroupSpec("SL", 5), 5).entries] == base_sl
    assert [d.name for d in classify(GroupSpec("Sp", 6), 6).entries] == base_sl
    assert [d.name for d in classify(GroupSpec("Spin", 8), 7).entries] == [
        "P^n",
        "Q^n",
        "Q^{n-1} x R",
        "P(O(m)+O)/Q^{n-1}",
    ]


def test_sp4_list_strictly_contains_generic_sp_list():
    generic = {d.name for d in classify(GroupSpec("Sp", 6), 6).entries}
    sp4 = {d.name for d in classify(GroupSpec("Sp", 4), 4).entries}
    assert generic < sp4
    assert sp4 - generic == {"Q^4", "Sp4/B", "Q^3 x R", "P(O(m)+O)/Q^3"}


def test_spin6_alias_gives_sl4_list():
    assert [d.name for d in classify(GroupSpec("Spin", 6), 4).entries] == [
        d.name for d in classify(GroupSpec("SL", 4), 4).entries
    ]


def test_sl2_extras_carry_action_multiplicity():
    entries = {d.name: d for d in classify(GroupSpec("SL", 2), 2).entries}
    assert entries["P1xP1"].actions == 2
    assert entries["P^2"].actions == 2
    assert "distinct" in entries["P^2"].note


def test_quasihomogeneous_fourfolds():
    result = classify(GroupSpec("SL", 3), 4, quasihomogeneous_only=True)
    assert result.verdict == "full_list"
    assert [(d.item, d.name) for d in result.entries] == [
        (1, "X_{p,q}"),
        (2, "Y_a"),
        (3, "P(S2T P2)"),
        (4, "Bl_diag(P2xP2)"),
        (4, "P2xP2"),
        (5, "Q^4"),
    ]
    assert all(
        sum(1 for o in d.orbits if o.kind == "open") == 1 for d in result.entries
    )


def test_sl3_dim4_needs_the_dense_orbit_flag():
    result = classify(GroupSpec("SL", 3), 4)
    assert result.verdict == "out_of_covered_range"
    assert "quasihomogeneous" in result.reason


def test_uncovered_ranges():
    assert classify(GroupSpec("SL", 2), 3, quasihomogeneous_only=True).verdict == (
        "out_of_covered_range"
    )
    assert classify(GroupSpec("Spin", 9), 9).verdict == "out_of_covered_range"
    assert classify(GroupSpec("G2"), 6).verdict == "out_of_covered_range"


def test_orbit_structure_examples():
    orbits = orbit_structure("P(O(m)+O)/P^{n-1}", {"n": 4, "m": 2}, case="SL")
    assert [(o.kind, o.dim, o.identification) for o in orbits] == [
        ("closed", 3, "P^3"),
        ("closed", 3, "P^3"),
        ("open", 4, ""),
    ]
    orbits = orbit_structure("P^n", {"n": 3}, case="SL")
    assert [(o.kind, o.dim) for o in orbits] == [("fixed", 0), ("closed", 2), ("open", 3)]
    orbits = orbit_structure("Q^4", {"n": 4}, case="SL3Q")
    assert [(o.kind, o.dim, o.identification) for o in orbits] == [
        ("closed", 2, "P^2"),
        ("closed", 2, "P^2"),
        ("open", 4, ""),
    ]
    orbits = orbit_structure("Q^n", {"n": 7}, case="Spin")
    assert [(o.kind, o.dim, o.identification) for o in orbits] == [
        ("closed", 6, "Q^6"),
        ("open", 7, ""),
    ]


def test_orbit_structure_parameter_checks():
    with pytest.raises(ParameterViolation):
        orbit_structure("P(O(m)+O)/P^{n-1}", {"n": 4, "m": 0}, case="SL")
    with pytest.raises(ParameterViolation):
        orbit_structure("P(O(m)+O)/P^{n-1}", {"n": 4}, case="SL")
    with pytest.raises(ParameterViolation):
        orbit_structure("X_{p,q}", {"n": 4, "p": 0, "q": 0})
    with pytest.raises(ParameterViolation):
        orbit_structure("Gr(2,4)", {"n": 5}, case="SL")
    with pytest.raises(UnknownVariety):
        orbit_structure("W^9", {"n": 4})
    with pytest.raises(UnknownVariety, match=r"^no record named 'P\^n' in case 5$"):
        orbit_structure("P^n", {"n": 3}, case=5)
    with pytest.raises(UnknownVariety):
        orbit_structure("Q^4", {"n": 4})  # ambiguous between Sp and SL3Q


@pytest.mark.parametrize("name", ["Y_{(-1)}", "X_{(0,1)}", ["P^n"]])
def test_orbit_structure_knows_record_names_only(name):
    # an edge endpoint has edges but no record, and a list is no name
    with pytest.raises(UnknownVariety) as exc:
        orbit_structure(name, {"n": 4})
    assert str(exc.value) == f"no record named {name!r}"


def test_orbit_structure_needs_n():
    with pytest.raises(ParameterViolation) as exc:
        orbit_structure("P^n", {}, case="SL")
    assert str(exc.value) == "params must bind n"


@pytest.mark.parametrize(
    "params, name",
    [
        ({"n": 4.7, "m": 2}, "n"),
        ({"n": 4, "m": 1.9}, "m"),
        ({"n": 4, "m": 0.5}, "m"),
        ({"n": 4, "m": "2"}, "m"),
    ],
)
def test_orbit_structure_refuses_fractional_parameters(params, name):
    # refused and named, not truncated to the orbits of n = 4 or m = 1
    value = params[name]
    with pytest.raises(ParameterViolation) as exc:
        orbit_structure("P(O(m)+O)/P^{n-1}", params, case="SL")
    assert str(exc.value) == f"parameter {name!r} must be an integer, got {value!r}"
    with pytest.raises(ParameterViolation, match="'n' must be an integer, got 4.7"):
        orbit_structure("P^n", {"n": 4.7}, case="SL")


def test_relations_edges():
    assert relations("Q^4") == (("blow-up one plane orbit", "Y_{(-1)}"),)
    assert relations("Y_{(-1)}") == (
        ("blow-up strict transform of the second plane orbit", "X_{(0,1)}"),
        ("blow-down", "Q^4"),
    )
    assert relations("P2xP2") == (("blow-up diagonal", "Bl_diag(P2xP2)"),)
    assert relations("X_{(0,1)}") == (("blow-down", "Y_{(-1)}"),)
    assert relations("Y_a") == ()
    with pytest.raises(UnknownVariety):
        relations("W^9")


def test_blow_up_graph_is_acyclic():
    edges = []
    for rec in load_database():
        for rel in rec.relations:
            if rel.op.startswith("blow-up"):
                edges.append((rel.label or rec.name, rel.to))
    nodes = {a for e in edges for a in e}
    state: dict[str, int] = {}

    def visit(node):
        if state.get(node) == 1:
            raise AssertionError("cycle through " + node)
        if state.get(node) == 2:
            return
        state[node] = 1
        for a, b in edges:
            if a == node:
                visit(b)
        state[node] = 2

    for node in nodes:
        visit(node)


def test_shipped_database_validates_clean():
    assert validate_records(load_database()) == []


def test_closed_orbits_match_flag_dimensions():
    # every identified closed orbit equals the flag-variety dimension the
    # identification resolves to; validate_records rule R3 checks exactly
    # this, so an empty report plus a spot check pins the wiring
    violations = [v for v in validate_records(load_database()) if v.rule == "R3"]
    assert violations == []
    from lieflag.parabolic import marking

    assert codim_parabolic(marking(DynkinType("C", 2), (2,))) == 3


def _mutated_db(old: str, new: str) -> str:
    text = serialize_records(load_database())
    assert old in text, f"mutation target {old!r} not found"
    return text.replace(old, new, 1)


def _rules_fired(text: str) -> set[str]:
    return {v.rule for v in validate_records(parse_records(text))}


def test_rule_r1_fires_on_low_dimensional_orbit():
    text = _mutated_db(
        'orbit = closed dim=2 ident=P^2 note="diagonal"',
        'orbit = closed dim=1 note="diagonal"',
    )
    assert "R1" in _rules_fired(text)


def test_rule_r2_fires_on_unflagged_fixed_point():
    text = _mutated_db(
        'orbit = closed dim=2 ident=P^2 note="first plane component"',
        "orbit = fixed dim=0",
    )
    assert "R2" in _rules_fired(text)


def test_rule_r3_fires_on_wrong_identified_dimension():
    text = _mutated_db(
        "orbit = closed dim=3 ident=Q^3\norbit = open dim=4",
        "orbit = closed dim=4 ident=Q^3\norbit = open dim=4",
    )
    assert "R3" in _rules_fired(text)


_SL4_RECORD = """
record = X
case = SL
source = Thm4.1
item = 1
requires = n == 4
dim = n + 2
picard = 2
orbit = closed dim={dim} ident={ident}
orbit = open dim=n+2
"""


def _r3(dim: int, ident: str) -> list:
    text = _SL4_RECORD.format(dim=dim, ident=ident)
    return [v.message for v in validate_records(parse_records(text)) if v.rule == "R3"]


def test_rule_r3_accepts_the_klein_quadric_under_sl4():
    # Gr(2,4) is the quadric Q^4, so SL(4) reaches both names at node 2
    assert _r3(4, "Gr(2,4)") == []
    assert _r3(4, "Q^4") == []
    assert _r3(4, "Q^{n}") == []
    assert _r3(3, "P^3") == []


def test_rule_r3_messages():
    assert _r3(5, "Q^5") == ["identification Q^5 has no flag variety under A3 at n=4"]
    assert _r3(5, "Gr(2,5)") == [
        "identification Gr(2,5) has no flag variety under A3 at n=4"
    ]
    assert _r3(3, "Q^{n}") == ["identification Q^4 has dim 4 but orbit recorded at 3"]


def test_rule_r3_checks_identified_open_orbits():
    text = _mutated_db("orbit = open dim=4 ident=Gr(2,4)", "orbit = open dim=4 ident=Q^9")
    assert validate_records(parse_records(text)) == [
        Violation("R3", "Gr(2,4)", "SL", "identification Q^9 has no flag variety under A3 at n=4")
    ]


_SPIN_RECORD = """
record = Y
case = Spin
source = Thm4.1
item = 9
requires = {requires}
dim = n
picard = 2
orbit = open dim=n
"""


def test_a_fixed_orbit_of_positive_dimension_is_reported():
    text = _SPIN_RECORD.format(requires="n == 8") + "orbit = fixed dim=1\n"
    found = [
        Violation("shape", "Y", "Spin", "fixed orbit with positive dimension"),
        Violation("R2", "Y", "Spin", "fixed point in an unflagged record"),
        Violation("R1", "Y", "Spin", "orbit of dim 1 below r=7 of B4 at n=8"),
    ]
    assert validate_records(parse_records(text)) == found
    # findings are listed orbit by orbit, not rule by rule: the closed orbit's
    # shape finding follows the fixed orbit's R2 and R1
    closed = Violation("shape", "Y", "Spin", "closed orbit of dim 8 not below 8")
    assert validate_records(parse_records(text + "orbit = closed dim=n\n")) == [*found, closed]


def test_a_second_open_orbit_is_reported():
    text = _SPIN_RECORD.format(requires="n == 8") + "orbit = open dim=n\n"
    assert validate_records(parse_records(text)) == [
        Violation("shape", "Y", "Spin", "more than one open orbit")
    ]


def test_a_record_no_probe_reaches_is_reported():
    text = serialize_records(load_database()) + _SPIN_RECORD.format(requires="n == 9")
    assert validate_records(parse_records(text)) == [
        Violation("reach", "Y", "Spin", "requires 'n == 9' holds at no probe n in [6, 7, 8]")
    ]
    assert validate_records(parse_records(_SPIN_RECORD.format(requires="n == 8"))) == []


@pytest.mark.parametrize("kind", ["open", "fixed"])
def test_validation_labels_each_identification_as_classify_does(kind):
    exponent = "9" * 4300 + "+" + "9" * 4300  # a sum with more digits than str converts
    text = _SPIN_RECORD.format(requires="n == 8") + f"orbit = {kind} dim=0 ident=P^{{{exponent}}}"
    with pytest.raises(ParameterViolation, match="exponent too long to write"):
        validate_records(parse_records(text))


def test_raising_a_shipped_lower_bound_by_one_keeps_every_record_reached():
    # the benchmark's database variants raise `requires = n >= k` to k + 1
    text = serialize_records(load_database())
    raised = re.sub(r"requires = n >= (\d+)", lambda m: f"requires = n >= {int(m[1]) + 1}", text)
    assert raised != text
    assert validate_records(parse_records(raised)) == []


def test_rule_r4_fires_on_missing_open_orbit():
    text = _mutated_db(
        'orbit = closed dim=3 ident=FlagSL3 note="locus of square tensors"\norbit = open dim=4',
        'orbit = closed dim=3 ident=FlagSL3 note="locus of square tensors"',
    )
    assert validate_records(parse_records(text)) == [
        Violation("R4", "P(S2T P2)", "SL3Q", "0 open orbits in a quasihomogeneous record")
    ]


def test_rule_r5_fires_on_rank_one_spin_extra():
    records = load_database()
    text = serialize_records(records)
    spin_block = (
        "record = Q^{n-1} x R\ncase = Spin\nsource = Thm4.1\nitem = 3\n"
        "requires = n >= 6\ndim = n\npicard = 2"
    )
    assert spin_block in text
    text = text.replace(spin_block, spin_block.replace("picard = 2", "picard = 1"), 1)
    assert validate_records(parse_records(text)) == [
        Violation("R5", "Q^{n-1} x R", "Spin", "Picard-rank-one Spin entry 'Q^{n-1} x R'")
    ]


def test_database_override_by_path(tmp_path):
    db = tmp_path / "tiny.db"
    db.write_text(
        "record = P^n\ncase = SL\nsource = Thm4.1\nitem = 1\n"
        "requires = n >= 2\ndim = n\npicard = 1\nallows_fixed_point = yes\n"
        "orbit = fixed dim=0\norbit = closed dim=n-1 ident=P^{n-1}\norbit = open dim=n\n"
    )
    result = classify(GroupSpec("SL", 4), 4, db_path=str(db))
    assert [d.name for d in result.entries] == ["P^n"]


def test_repeated_classify_compiles_nothing_and_reuses_r():
    group = GroupSpec("SL", 4)
    for n in (3, 4, 5):
        classify(group, n)
    entries = classify(group, 4).entries  # r = 3, so n = 4 is the full list
    compiled = records._compile.cache_info()
    rmin = parabolic.r_min.cache_info()
    ladder = classifier._ladder.cache_info()
    loads = classifier._load.cache_info()
    instantiated = classifier._instantiate.cache_info()
    for _ in range(100):
        classify(group, 3)
        assert classify(group, 4).entries is entries  # the case list the database holds
        classify(group, 5)
    assert records._compile.cache_info().misses == compiled.misses
    # r is read from the group's ladder memo, so r_min is not even looked up
    assert parabolic.r_min.cache_info() == rmin
    assert classifier._ladder.cache_info().misses == ladder.misses
    assert classifier._ladder.cache_info().hits == ladder.hits + 300
    # one database lookup per answer beyond r (n = 4 and 5), none at or below it
    assert classifier._load.cache_info().misses == loads.misses
    assert classifier._load.cache_info().hits == loads.hits + 200
    assert classifier._instantiate.cache_info() == instantiated


def _reference_descriptor(rec, n):
    """The record at n with every descriptor field passed by name."""
    env = {"n": n}
    orbits = tuple(
        classifier.Orbit(o.kind, int(records.eval_expr(o.dim, env)),
                         classifier._ident_label(o.ident, n) if o.ident else "", o.note)
        for o in rec.orbits
    )
    return classifier.VarietyDescriptor(
        name=rec.name, case=rec.case, source=rec.source, item=rec.item, n=n,
        dim=int(records.eval_expr(rec.dim, env)), picard=rec.picard, orbits=orbits,
        param_names=rec.param_names, param_constraint=rec.param_constraint,
        actions=rec.actions, note=rec.note, allows_fixed_point=rec.allows_fixed_point,
    )


def test_memoised_instantiate_equals_a_fresh_build():
    checked = 0
    for rec in load_database():
        for n in range(1, 13):
            assert rec.applies(n) == bool(records.eval_expr(rec.requires or "True", {"n": n}))
            memo = classifier._instantiate(rec, n)
            assert (memo is None) == (not rec.applies(n))
            if memo is not None:
                # a reference built field by field, so a field copied from the wrong one fails
                assert memo == _reference_descriptor(rec, n)
                assert classifier._instantiate(rec, n) is memo
                checked += 1
    assert checked > 100


def test_memoised_homogeneous_entries_equal_a_fresh_build():
    cap = roots.MAX_CLASSICAL_RANK
    for group in (GroupSpec("SL", 4), GroupSpec("Sp", 4), GroupSpec("Spin", 8), GroupSpec("G2")):
        memo = classifier._ladder(group, cap)
        assert memo == classifier._ladder.__wrapped__(group, cap)
        case, r, sl3, entries = memo
        assert (case, sl3) == (group.resolve()[0], False)
        assert r == parabolic.r_min(group.dynkin()).value
        assert classify(group, r).entries == entries
    assert classifier._ladder(GroupSpec("SL", 3), cap)[2] is True


def test_an_edited_database_file_changes_the_classify_answer(tmp_path):
    db = tmp_path / "edited.db"
    shipped = load_database()
    db.write_text(serialize_records(shipped))
    group = GroupSpec("SL", 4)
    before = classify(group, 4, db_path=str(db))
    assert before == classify(group, 4)
    edited = [r._replace(dim="n + 1") if r.name == "Gr(2,4)" else r for r in shipped]
    db.write_text(serialize_records(edited))
    after = classify(group, 4, db_path=str(db))
    dims = {d.name: d.dim for d in after.entries}
    assert dims["Gr(2,4)"] == 5
    assert {d.name: d.dim for d in before.entries} == {**dims, "Gr(2,4)": 4}
    assert classify(group, 4).entries == before.entries


def test_an_error_is_raised_again_not_cached():
    huge = 10**5000
    misses = classifier._instantiate.cache_info().misses
    for _ in range(2):
        with pytest.raises(ParameterViolation, match="too long to write"):
            orbit_structure("P^n", {"n": huge}, case="SL")
    assert classifier._instantiate.cache_info().misses == misses + 2
    for _ in range(2):
        with pytest.raises(InvalidDimension, match="got <negative integer of ~5000 digits>"):
            classify(GroupSpec("SL", 4), -huge)


def test_the_rank_cap_holds_before_and_after_a_warm_call(monkeypatch):
    group = GroupSpec("SL", 14)  # A13
    default = roots.MAX_CLASSICAL_RANK
    for _ in ("cold", "warm"):
        with pytest.raises(InvalidRank, match="above the configured cap"):
            classify(group, 15)
        monkeypatch.setattr(roots, "MAX_CLASSICAL_RANK", 14)
        assert classify(group, 15).verdict == "out_of_covered_range"
        assert classify(group, 13).verdict == "homogeneous"
        monkeypatch.setattr(roots, "MAX_CLASSICAL_RANK", default)
    with pytest.raises(InvalidRank, match="above the configured cap"):
        classify(group, 13)


def _clear_classifier_memos():
    for fn in vars(classifier).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def _answer(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc).__name__, str(exc)


def _edges_by_scan(records, name):
    """relations(name) as a scan of every record computes it, or None for an unknown name."""
    known = {rec.name for rec in records}
    edges = []
    for rec in records:
        for rel in rec.relations:
            known |= {rel.label or rec.name, rel.to}
            if (rel.label or rec.name) == name:
                edges.append((rel.op, rel.to))
    return tuple(edges) if name in known else None


@pytest.mark.parametrize("where", ["shipped", "db_path"])
def test_warm_answers_equal_cold_ones(where, tmp_path):
    db_path = None
    if where == "db_path":
        db_path = str(tmp_path / "copy.db")
        shutil.copyfile(SHIPPED_DB, db_path)
    cap = roots.MAX_CLASSICAL_RANK
    groups = (
        [GroupSpec("SL", m) for m in range(2, cap + 2)]
        + [GroupSpec("Sp", m) for m in range(4, 2 * cap + 1, 2)]
        + [GroupSpec("Spin", m) for m in range(5, 2 * cap + 2)]
        + [GroupSpec("G2")]
    )
    queries = []
    for group in groups:
        r = parabolic.r_min(group.dynkin()).value
        queries += [(classify, group, n, quasi, db_path)
                    for n in range(r - 1, r + 3) for quasi in (False, True)]
    records = load_database(db_path)
    names = {rec.name for rec in records}
    for rec in records:
        names |= {x for rel in rec.relations for x in (rel.label or rec.name, rel.to)}
    for name in sorted(names) + ["no such", ["P^n"]]:
        queries += [(relations, name, db_path), (orbit_structure, name, {"n": 4}, None, db_path)]
    for query in queries:
        _answer(*query)
    warm = [_answer(*query) for query in queries]
    cold = []
    for query in queries:
        _clear_classifier_memos()
        cold.append(_answer(*query))
    assert warm == cold
    verdicts = [a.verdict for a in warm if isinstance(a, classifier.ClassificationResult)]
    assert verdicts.count("full_list") > 40
    for name in names:
        assert relations(name, db_path) == _edges_by_scan(records, name), name


def test_switching_the_database_variable_switches_the_answer(tmp_path, monkeypatch):
    shipped = load_database()
    first, second, bad = tmp_path / "first.db", tmp_path / "second.db", tmp_path / "bad.db"
    first.write_text(serialize_records(shipped))
    second.write_text(serialize_records([
        r._replace(dim="n + 1") if r.name == "Gr(2,4)" else
        r._replace(relations=()) if r.name == "P2xP2" else r
        for r in shipped
    ]))
    bad.write_text("record = P^n\nnot a key line\n")
    group = GroupSpec("SL", 4)
    seen = {}
    for _ in ("cold", "warm"):
        for db in (first, second, first):
            monkeypatch.setenv(classifier.DB_ENV_VAR, str(db))
            got = classify(group, 4), relations("P2xP2")
            assert got == (classify(group, 4, db_path=str(db)), relations("P2xP2", str(db)))
            assert seen.setdefault(db.name, got) == got
        monkeypatch.setenv(classifier.DB_ENV_VAR, str(bad))
        assert classify(group, 3).verdict == "homogeneous"  # n <= r reads no database
        for query in ((classify, group, 4), (classify, group, 5), (relations, "P^n")):
            with pytest.raises(DatabaseFormatError):
                query[0](*query[1:])
    assert {d.name: d.dim for d in seen["second.db"][0].entries}["Gr(2,4)"] == 5
    assert seen["second.db"][1] == () != seen["first.db"][1]
    monkeypatch.delenv(classifier.DB_ENV_VAR)
    assert (classify(group, 4), relations("P2xP2")) == seen["first.db"]


def test_the_variable_is_read_as_os_environ_holds_it_after_every_write(tmp_path, monkeypatch):
    good, bad = tmp_path / "good.db", tmp_path / "bad.db"
    good.write_text(serialize_records(load_database()[:3]))
    bad.write_text("record = P^n\nnot a key line\n")
    var, env = classifier.DB_ENV_VAR, os.environ
    monkeypatch.setenv(var, "")  # restored after the test

    def read_as_public(expected):
        public = env.get(var) or None
        assert public == expected
        assert classifier._db_key(None) == classifier._db_key(public)
        try:
            records = load_database(public)
        except DatabaseFormatError as exc:
            with pytest.raises(DatabaseFormatError, match=f"^{re.escape(str(exc))}$"):
                load_database()
        else:
            assert load_database() == records

    read_as_public(None)
    env[var] = str(good)
    read_as_public(str(good))
    env[var] = ""
    read_as_public(None)
    env[var] = str(bad)
    read_as_public(str(bad))
    del env[var]
    read_as_public(None)
    env.update({var: str(bad)})
    read_as_public(str(bad))
    env.pop(var)
    read_as_public(None)
    env.setdefault(var, str(good))
    read_as_public(str(good))
    with mock.patch.dict(env, clear=True):
        read_as_public(None)
        env[var] = str(bad)
        read_as_public(str(bad))
    read_as_public(str(good))
    if os.name == "posix":  # a name that is not UTF-8 reads back through surrogateescape
        odd = os.path.join(os.fsencode(tmp_path), b"caf\xe9.db")
        shutil.copyfile(good, odd)
        os.environb[os.fsencode(var)] = odd
        read_as_public(os.fsdecode(odd))
        assert load_database() == load_database(str(good))


def test_each_database_is_loaded_once(tmp_path):
    db_path = str(tmp_path / "copy.db")
    shutil.copyfile(SHIPPED_DB, db_path)
    classifier._load.cache_clear()
    group = GroupSpec("SL", 4)
    for loaded, path in enumerate((None, db_path), 1):
        first = load_database(path)
        assert load_database(path) is first
        entries = classify(group, 4, db_path=path).entries  # n = r + 1
        assert classify(group, 4, db_path=path).entries is entries
        assert relations("P2xP2", path) and validate_database(path) == []
        # (hits, misses): every read of the file after the first is a hit
        assert classifier._load.cache_info()[:2] == (5 * loaded, loaded)


def test_the_name_index_equals_a_scan_and_is_built_on_first_use(tmp_path):
    db_path = str(tmp_path / "copy.db")
    shutil.copyfile(SHIPPED_DB, db_path)
    classify(GroupSpec("SL", 4), 4, db_path=db_path)
    assert validate_database(db_path) == []
    db = classifier._load(classifier._db_key(db_path))
    assert "by_name" not in vars(db)  # classified and validated only
    records = db.records
    names = {rec.name for rec in records}
    for rec in records:
        names |= {x for rel in rec.relations for x in (rel.label or rec.name, rel.to)}
    assert set(db.by_name) == names
    for name, (recs, edges) in db.by_name.items():
        assert recs == tuple(r for r in records if r.name == name), name
        assert edges == _edges_by_scan(records, name), name


# Every memo of the library, with its bound (None: one entry per Dynkin
# type).  Adding or removing a cache is an edit of this table.
CACHES = {
    "roots.root_system": None,
    "parabolic._supports": None,
    "parabolic.r_min": None,
    "representations._coroot_chain": None,
    "cone._hilbert_values": 8192,
    "records._compile": 1024,
    "records._parse_orbit": 256,
    "records._parse_block": 256,
    "classifier._load": 8,
    "classifier._instantiate": 1024,
    "classifier._ladder": 256,
    "classifier._record_violations": 256,
}


def test_the_library_memoises_exactly_the_listed_caches():
    found = {}
    # every module of the package; importing __main__ would run the CLI
    names = [m.name for m in pkgutil.iter_modules(lieflag.__path__) if m.name != "__main__"]
    assert {"cone", "cli", "errors"} <= set(names)
    for module in map(importlib.import_module, (f"lieflag.{name}" for name in names)):
        defined = [
            v for v in vars(module).values() if getattr(v, "__module__", "") == module.__name__
        ]
        for cls in [v for v in defined if isinstance(v, type)]:
            defined += vars(cls).values()
        for fn in defined:
            if hasattr(fn, "cache_info"):
                short = module.__name__.removeprefix("lieflag.")
                found[f"{short}.{fn.__qualname__}"] = fn.cache_info().maxsize
    assert found == CACHES


def test_the_readme_lists_exactly_the_memos():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([\w.]+)`:", layout, re.MULTILINE)
    assert sorted(listed) == sorted({*CACHES, "records._TEXTS", "records._CHECKED"})


def test_the_readme_lists_exactly_the_rules():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    database = readme.split("\n## The classification database\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)`:", database, re.MULTILINE)
    table = classifier._ORBIT_RULES + classifier._INSTANCE_RULES
    assert sorted(listed) == sorted({rule for rule, _ in table} | {"reach"})


def test_the_memo_traffic_script_reports_every_memo(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts bench/ in front
    monkeypatch.delitem(sys.modules, "oracles", raising=False)  # bench/ has its own
    memo_traffic = load_script("memo_traffic")
    (found,) = memo_traffic.traffic("query_mix", ops=100)
    assert set(found) == {*CACHES, "records._TEXTS", "records._CHECKED"}
    hits, misses, size = found["classifier._ladder"]  # four in five query_mix ops classify
    assert hits > 0 and size > 0
    hits, misses, size = found["classifier._load"]  # case lists and names are read from it
    assert hits > 0 and misses == 0 and size > 0
    cap = roots.MAX_CLASSICAL_RANK
    first, second = memo_traffic.traffic("lie_sweep", ops=200, windows=2)
    assert roots.MAX_CLASSICAL_RANK == cap  # lie_sweep's warm() raised it for the run only
    assert set(first) == set(second) == set(found)
    for name in CACHES:  # no memo of lieflag shrinks on this stream
        assert second[name][2] >= first[name][2] and None not in second[name], name

    # A workload whose one memo sees op i % 50: each window counts its own ops.
    seen = functools.lru_cache(maxsize=None)(lambda value: value)

    class Stream:
        def __init__(self, work):
            pass

        def warm(self):
            seen(-1)

        def ops(self, rng):
            return itertools.count()

        def run(self, op):
            return seen(op % 50)

        def check(self, op, answer, error):
            assert answer == op % 50 and error is None

    monkeypatch.setitem(memo_traffic.WORKLOADS, "stream", Stream)
    monkeypatch.setattr(memo_traffic, "memos", lambda: {"stream.seen": seen})
    first, second = memo_traffic.traffic("stream", ops=30, windows=2)
    assert first["stream.seen"] == (0, 30, 31)  # ops 0..29, all new
    assert second["stream.seen"] == (10, 20, 51)  # 30..49 new, then 0..9 again
    seen.cache_clear()
    monkeypatch.setattr(sys, "argv", ["memo_traffic.py", "stream", "--ops", "30"])
    assert memo_traffic.main() == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "window 1: ops 1-30" and "window 2: ops 31-60" in out
    assert [line.split()[1:] for line in out if line.startswith("stream.seen")] == [
        ["0", "30", "31"], ["10", "20", "51"]
    ]
    seen.cache_clear()
    monkeypatch.setattr(sys, "argv", ["memo_traffic.py", "stream"])  # 3,000 ops, one table
    assert memo_traffic.main() == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["memo", "hits", "misses", "size"]
    assert [line.split()[1:] for line in out if "window" in line or "seen" in line] == [
        ["2950", "50", "51"]
    ]
