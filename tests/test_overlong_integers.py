"""Integers with more digits than ``str`` converts (4,300 by default).

Such a value reaches a message only through ``errors.shown``, so each call
answers or raises its named error instead of the ``ValueError`` of the
conversion.
"""

from fractions import Fraction

import pytest

from lieflag.classifier import GroupSpec, classify, orbit_structure
from lieflag.cli import run
from lieflag.cone import cone_cover_order, cone_hilbert_function
from lieflag.errors import (
    InvalidDimension,
    InvalidGroup,
    InvalidRank,
    NodeOutOfRange,
    NonDominantWeight,
    ParameterViolation,
    UnknownVariety,
    UnsupportedWeight,
    shown,
)
from lieflag.parabolic import marking
from lieflag.representations import bwb_section_dim, weyl_dim
from lieflag.roots import DynkinType, dynkin_type, fundamental_weight, weight

H = 10**5000
A2 = DynkinType("A", 2)
B2 = DynkinType("B", 2)


def test_shown_is_repr_until_str_would_refuse():
    for value in (0, -7, 10**4299, True, 2.5, "4", (1, 2), Fraction(1, 3)):
        assert shown(value) == repr(value)
    assert shown(H) == "<integer of ~5000 digits>"
    assert shown(-H) == "<negative integer of ~5000 digits>"
    assert shown((H, 1.5)) == "<tuple holding an over-long integer>"
    assert shown(Fraction(H, 3)) == "<Fraction holding an over-long integer>"


@pytest.mark.parametrize(
    "call, error, message",
    [
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
        (lambda: dynkin_type("A" + "9" * 5000), InvalidRank, "cannot parse Dynkin type 'A999"),
        (lambda: dynkin_type("A²"), InvalidRank, "cannot parse Dynkin type 'A²'"),
    ],
)
def test_an_over_long_integer_gives_the_named_error(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value).startswith(message)


def test_classify_at_an_over_long_dimension_is_out_of_range():
    result = classify(GroupSpec("SL", 4), H)
    assert result.verdict == "out_of_covered_range"
    assert result.reason == "no record list for SL(4) in dimension <integer of ~5000 digits>"


def test_classification_result_repr_gives_an_over_long_dimension_by_size():
    assert repr(classify(GroupSpec("SL", 3), H)) == (
        "ClassificationResult(verdict='out_of_covered_range', "
        "group=GroupSpec(family='SL', parameter=3), n=<integer of ~5000 digits>, entries=(), "
        "reason='no record list for SL(3) in dimension <integer of ~5000 digits>')"
    )


def test_an_over_long_weight_still_has_its_dimension():
    # the value is computed exactly; only writing it in a message is refused
    assert weyl_dim(weight(A2, (H, 0))) == (H + 1) * (H + 2) // 2


def test_weight_repr_gives_an_over_long_coordinate_by_size():
    assert repr(weight(A2, (H, 0))) == (
        "Weight(dynkin=DynkinType(series='A', rank=2), coords=(<integer of ~5000 digits>, 0))"
    )
    assert repr(weight(DynkinType("A", 1), (-H,))) == (
        "Weight(dynkin=DynkinType(series='A', rank=1), "
        "coords=(<negative integer of ~5000 digits>,))"
    )


def test_group_spec_gives_an_over_long_parameter_by_size():
    group = GroupSpec("SL", H)
    assert group.label() == "SL(<integer of ~5000 digits>)"
    assert repr(group) == "GroupSpec(family='SL', parameter=<integer of ~5000 digits>)"
    assert repr(GroupSpec("Sp", 6)) == "GroupSpec(family='Sp', parameter=6)"
    assert GroupSpec("Spin", 7).label() == "Spin(7)" and GroupSpec("G2").label() == "G2"


_NINES = "9" * 4300  # the longest integer argument the CLI reads


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, answer",
    [
        (["weyl-dim", "A2", "--weight", _NINES + ",0"], (10**4300) * (10**4300 + 1) // 2),
        # a list of values, two of them over-long: the largest is named
        (["hilbert", "A1", "--nodes", "1", "--weight", _NINES, "--kmax", "2"], 2 * 10**4300 - 1),
    ],
    ids=["weyl-dim", "hilbert"],
)
def test_cli_refuses_an_answer_too_long_to_write(capsys, mode, argv, answer):
    assert run(mode + argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: AnswerTooLong: the answer holds {shown(answer)}, more digits than str writes\n"
    )
