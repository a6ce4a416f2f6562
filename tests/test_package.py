"""The package surface: lazy re-exports, import footprint and value types."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lieflag
from lieflag import (
    DynkinType,
    HomogeneousVariety,
    ParabolicMarking,
    RootSystem,
    VarietyClass,
    Weight,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

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


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "LIEFLAG_DB"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done


# Prints, as JSON on the last stdout line, the modules a step loaded that the
# interpreter had not loaded before lieflag was first imported.
_FOOTPRINT = """
import json, sys
before = set(sys.modules)
{step}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_bare_import_loads_no_submodule():
    done = _fresh_python(_FOOTPRINT.format(step="import lieflag"))
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert "lieflag" in loaded
    assert [m for m in loaded if m.startswith("lieflag.")] == []


def test_type_command_skips_database_modules():
    step = "from lieflag import cli\ncli.run(['rmin', 'G2'])"
    done = _fresh_python(_FOOTPRINT.format(step=step))
    *out, modules = done.stdout.splitlines()
    assert "\n".join(out) + "\n" == (GOLDEN / "rmin_G2.txt").read_text()
    loaded = set(json.loads(modules))
    assert {"lieflag.cli", "lieflag.roots", "lieflag.parabolic"} <= loaded
    assert not loaded & {"lieflag.classifier", "lieflag.records", "dataclasses", "ast", "json"}


def test_database_command_after_lazy_start_matches_golden():
    argv = ["classify", "--group", "SL", "--param", "4", "--dim", "4"]
    done = _fresh_python(f"from lieflag import cli\nraise SystemExit(cli.run({argv!r}))")
    assert done.stdout == (GOLDEN / "classify_SL4_n4.txt").read_text()


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
