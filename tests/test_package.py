"""The package surface: lazy re-exports, import footprint and value types."""

import inspect
import json
from pathlib import Path

import pytest

import lieflag
from lieflag import (
    DynkinType,
    GroupSpec,
    HomogeneousVariety,
    ParabolicMarking,
    RootSystem,
    VarietyClass,
    Violation,
    Weight,
)
from lieflag.errors import DomainError, InvalidGroup, InvalidRank, NodeOutOfRange
from lieflag.records import parse_records

from oracles import UNCHECKED, VALID_CALLS, OnlyIndex, fresh_python, load_script

GOLDEN = Path(__file__).parent / "golden"

PUBLIC_NAMES = [
    "ClassificationResult", "DomainError", "DynkinType", "GroupSpec", "HomogeneousVariety",
    "MinimalIrrep", "Orbit", "ParabolicMarking", "RMin", "RootSystem", "VarietyClass",
    "VarietyDescriptor", "Violation", "Weight", "admissible_conormal_range", "bwb_section_dim",
    "cartan_matrix", "character_weight", "check_rg_plus_one", "classify", "codim_parabolic",
    "cone_cover_order", "cone_hilbert_function", "dynkin_type", "fano_index",
    "fundamental_weight", "group_dimension", "group_spec", "identify_marking",
    "load_database", "marking", "min_nontrivial_irrep", "minimal_homogeneous_varieties",
    "orbit_structure", "positive_roots", "r_min", "relations", "root_system",
    "validate_database", "weight", "weyl_dim",
]


# Prints, as JSON on the last stdout line, the modules a step loaded that the
# interpreter had not loaded before lieflag was first imported.
_FOOTPRINT = """
import json, sys
before = set(sys.modules)
{step}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _footprints(step: str):
    """(stdout, modules loaded) of a step in a fresh interpreter, with site and under -S,
    which leaves out whatever site imports first."""
    for flags in ((), ("-S",)):
        done = fresh_python(*flags, "-c", _FOOTPRINT.format(step=step))
        assert done.returncode == 0, done.stderr
        *out, modules = done.stdout.splitlines()
        yield "\n".join(out) + "\n", set(json.loads(modules))


def test_bare_import_loads_no_submodule():
    for _, loaded in _footprints("import lieflag"):
        assert "lieflag" in loaded
        assert [m for m in loaded if m.startswith("lieflag.")] == []


def test_type_command_skips_database_modules():
    for out, loaded in _footprints("from lieflag import cli\ncli.run(['rmin', 'G2'])"):
        assert out == (GOLDEN / "rmin_G2.txt").read_text()
        assert {"lieflag.cli", "lieflag.roots", "lieflag.parabolic"} <= loaded
        assert not loaded & {"lieflag.classifier", "lieflag.records", "dataclasses", "ast", "json",
                             "argparse", "gettext"}


@pytest.mark.parametrize(
    "case",
    ["classify_SL4_n4.txt", "classify_SL4_n4.json", "validate_db.json",
     "orbits_bundle_over_P3.txt"],
)
def test_database_command_skips_dataclasses_and_inspect(case):
    stem, suffix = case.rsplit(".", 1)
    argv = (["--json"] if suffix == "json" else []) + load_script("regen_golden").cases()[stem]
    for out, loaded in _footprints(f"from lieflag import cli\ncli.run({argv!r})"):
        assert out == (GOLDEN / case).read_text()
        assert {"lieflag.classifier", "lieflag.records"} <= loaded
        # a plain argv is parsed from the command table, without argparse
        assert not loaded & {"dataclasses", "inspect", "argparse", "gettext"}


def test_usage_error_loads_argparse():
    for out, loaded in _footprints("from lieflag import cli\nassert cli.run(['rmin']) == 2"):
        assert out == "\n"
        assert {"argparse", "lieflag.cli"} <= loaded


def test_database_command_after_lazy_start_matches_golden():
    argv = ["classify", "--group", "SL", "--param", "4", "--dim", "4"]
    done = fresh_python("-c", f"from lieflag import cli\nraise SystemExit(cli.run({argv!r}))")
    assert (done.returncode, done.stdout, done.stderr) == (
        0, (GOLDEN / "classify_SL4_n4.txt").read_text(), "")


def test_public_names():
    assert sorted(lieflag.__all__) == PUBLIC_NAMES
    namespace: dict = {}
    exec("from lieflag import *", namespace)
    listing = dir(lieflag)
    for name in PUBLIC_NAMES:
        assert getattr(lieflag, name) is namespace[name]
        assert name in listing
    assert lieflag.roots.DynkinType is DynkinType
    assert lieflag.__version__ == "0.1.0"


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        lieflag.no_such_name
    assert not hasattr(lieflag, "classification")


def test_d3_warning_points_at_the_caller():
    with pytest.warns(UserWarning, match="A3") as record:
        DynkinType("D", 3)
    assert record[0].filename == __file__


def test_value_types_keep_repr_hash_order_and_immutability():
    c2 = DynkinType("C", 2)
    hv = lieflag.minimal_homogeneous_varieties(c2)[0]
    # reprs as the frozen dataclasses printed them
    assert repr(c2) == "DynkinType(series='C', rank=2)"
    assert repr(lieflag.weight(c2, (1, 0))) == (
        "Weight(dynkin=DynkinType(series='C', rank=2), coords=(1, 0))"
    )
    assert repr(hv) == (
        "HomogeneousVariety(marking=ParabolicMarking(dynkin=DynkinType(series='C', rank=2), "
        "marked=frozenset({1})), dim=3, picard_rank=1, "
        "identification=VarietyClass(kind='projective_space', dim=3))"
    )
    assert repr(lieflag.root_system(DynkinType("A", 1))) == (
        "RootSystem(dynkin=DynkinType(series='A', rank=1), cartan=((2,),), "
        "positive_roots=((1,),), coroots=((1,),), "
        "rho=Weight(dynkin=DynkinType(series='A', rank=1), coords=(1,)))"
    )
    assert isinstance(hv, HomogeneousVariety)
    assert isinstance(hv.marking, ParabolicMarking)
    assert isinstance(hv.identification, VarietyClass)
    assert isinstance(lieflag.root_system(c2), RootSystem)
    # hash of the field tuple, and equal to that plain tuple
    assert hash(c2) == hash(("C", 2)) and c2 == ("C", 2)
    assert hash(hv.marking) == hash((c2, frozenset({1})))
    assert sorted([DynkinType("G", 2), DynkinType("B", 3), DynkinType("B", 2)]) == [
        DynkinType("B", 2), DynkinType("B", 3), DynkinType("G", 2)
    ]
    w = Weight(c2, (1, 0))
    for obj, field in ((c2, "rank"), (w, "coords"), (hv.marking, "marked"), (hv, "dim"),
                       (hv.identification, "dim"), (lieflag.root_system(c2), "rho")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            obj.extra = 1
    coords = Weight(c2, [True, 0]).coords  # normalised to a tuple of plain ints
    assert type(coords) is tuple and [type(c) for c in coords] == [int, int]


_RECORD = """record = W
case = SL
source = Thm4.1
item = 1
dim = n
picard = 2
params = m ; m > 0
orbit = open dim=n
relation = op=up to=P^n label=W1
"""


def _database_values():
    """One value of each database type, with the repr the frozen dataclasses printed."""
    (rec,) = parse_records(_RECORD)
    result = lieflag.classify(GroupSpec("SL", 2), 1)
    (entry,) = result.entries
    orbit_repr = "Orbit(kind='open', dim=1, identification='P^1', note='')"
    entry_repr = (
        "VarietyDescriptor(name='P^1', case='SL', source='Prop3.1', item=0, n=1, dim=1, "
        f"picard=1, orbits=({orbit_repr},), param_names=(), param_constraint='', actions=1, "
        "note='homogeneous, marked node 1', allows_fixed_point=False)"
    )
    return [
        (rec.orbits[0], "OrbitSchema(kind='open', dim='n', ident='', note='')", "dim"),
        (rec.relations[0], "RelationEdge(op='up', to='P^n', label='W1')", "to"),
        (rec, "RecordSchema(name='W', case='SL', source='Thm4.1', item=1, dim='n', picard=2, "
              "requires='', param_names=('m',), param_constraint='m > 0', "
              "allows_fixed_point=False, actions=1, note='', "
              "orbits=(OrbitSchema(kind='open', dim='n', ident='', note=''),), "
              "relations=(RelationEdge(op='up', to='P^n', label='W1'),))", "item"),
        (GroupSpec("SL", 4), "GroupSpec(family='SL', parameter=4)", "parameter"),
        (entry.orbits[0], orbit_repr, "dim"),
        (entry, entry_repr, "note"),
        (result, "ClassificationResult(verdict='homogeneous', "
                 f"group=GroupSpec(family='SL', parameter=2), n=1, entries=({entry_repr},), "
                 "reason='')", "n"),
        (Violation("R1", "W", "SL", "m"),
         "Violation(rule='R1', record='W', case='SL', message='m')", "rule"),
    ]


def test_database_types_keep_repr_hash_and_immutability():
    values = _database_values()
    assert len({type(value) for value, _, _ in values}) == 8
    for value, text, field in values:
        assert repr(value) == text
        assert hash(value) == hash(tuple(value))
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.extra = 1
        other = value._replace(**{field: getattr(value, field)})
        assert other == value and type(other) is type(value)
        assert value._asdict()[field] == getattr(value, field)
    (rec,) = parse_records(_RECORD)
    assert rec._replace(item=2).item == 2 and rec._replace(item=2).applies(1)
    assert GroupSpec("SL", 4)._replace(parameter=5) == GroupSpec("SL", 5)
    assert GroupSpec("G2") == GroupSpec("G2", 0) == ("G2", 0)  # the default parameter


def test_replace_and_make_validate_like_the_constructor():
    a2 = DynkinType("A", 2)
    with pytest.raises(InvalidRank, match="rank 99 above the configured cap"):
        a2._replace(rank=99)
    with pytest.raises(InvalidRank, match="rank 99 above the configured cap"):
        DynkinType._make(("A", 99))
    with pytest.raises(NodeOutOfRange, match="node 7 out of range 1..2 for A2"):
        lieflag.marking(a2, (1,))._replace(marked=frozenset({7}))
    w = Weight(a2, (1, 0))
    with pytest.raises(InvalidRank, match="must be integers"):
        w._replace(coords=(1.5, 0))
    with pytest.raises(InvalidRank, match="needs 2 coordinates, got 1"):
        w._replace(coords=(1,))
    with pytest.raises(InvalidGroup, match="SL needs parameter >= 2, got 1"):
        GroupSpec("SL", 4)._replace(parameter=1)
    with pytest.raises(InvalidGroup, match="unknown family 'SU'"):
        GroupSpec._make(("SU", 3))
    # a valid replacement still normalises as the constructor does
    assert w._replace(coords=[True, 0]).coords == (1, 0)
    assert lieflag.marking(a2, (1,))._replace(marked=[2, 2]).marked == frozenset({2})


# Values of the wrong type, by test id; each replaces one valid argument.
_WRONG = {"None": None, "str": "x", "float": 1.5, "list": [1], "tuple": (), "index": OnlyIndex()}


def _walk():
    for name, args in VALID_CALLS.items():
        params = list(inspect.signature(getattr(lieflag, name)).parameters)
        for position, param in enumerate(params[: len(args)]):
            for label in _WRONG:
                yield pytest.param(name, position, label, id=f"{name}-{param}-{label}")


def test_the_walk_covers_every_public_callable_that_checks_its_input():
    assert sorted([*VALID_CALLS, *UNCHECKED]) == sorted(lieflag.__all__)
    for name, args in VALID_CALLS.items():
        repr(getattr(lieflag, name)(*args))


@pytest.mark.parametrize("name,position,label", _walk())
def test_a_wrong_type_returns_or_raises_a_domain_error(name, position, label):
    args = list(VALID_CALLS[name])
    args[position] = _WRONG[label]
    try:
        repr(getattr(lieflag, name)(*args))
    except DomainError:
        pass


@pytest.mark.parametrize(
    "name", ["root_system", "positive_roots", "r_min", "minimal_homogeneous_varieties"]
)
def test_a_tuple_equal_to_a_type_is_refused_cold_and_warm(name):
    lieflag.root_system.cache_clear()
    lieflag.r_min.cache_clear()
    for state in ("cold", "warm"):
        with pytest.raises(InvalidRank) as exc:
            getattr(lieflag, name)(("A", 2))
        assert str(exc.value) == "type must be a DynkinType, got ('A', 2)", state
        # ("A", 2) now equals a key of the per-type memos and hashes alike
        getattr(lieflag, name)(DynkinType("A", 2))
