"""Integers with more digits than ``str`` converts (4,300 by default).

Such a value reaches a message only through ``errors.shown``, so each call
answers or raises its named error instead of the ``ValueError`` of the
conversion.  Those named errors are rows of the refusal table of
test_value_checks.py; the tests here cover answers, reprs and the CLI.
"""

from fractions import Fraction

import pytest

from lieflag.classifier import GroupSpec, classify
from lieflag.cli import run
from lieflag.errors import shown
from lieflag.representations import weyl_dim
from lieflag.roots import DynkinType, weight

H = 10**5000
A2 = DynkinType("A", 2)


def test_shown_is_repr_until_str_would_refuse():
    for value in (0, -7, 10**4299, True, 2.5, "4", (1, 2), Fraction(1, 3)):
        assert shown(value) == repr(value)
    assert shown(H) == "<integer of ~5000 digits>"
    assert shown(-H) == "<negative integer of ~5000 digits>"
    assert shown((H, 1.5)) == "<tuple holding an over-long integer>"
    assert shown(Fraction(H, 3)) == "<Fraction holding an over-long integer>"


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
