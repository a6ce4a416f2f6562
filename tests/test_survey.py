"""The classification survey script against its committed output."""

import importlib.util
from pathlib import Path

from lieflag import classifier

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = (Path(__file__).parent / "classification_survey.txt").read_text()


def test_survey_prints_its_committed_output_cold_and_warm(capsys):
    spec = importlib.util.spec_from_file_location(
        "classification_survey", ROOT / "scripts" / "classification_survey.py"
    )
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    for memo in (classifier._instantiate, classifier._homogeneous_entries):
        memo.cache_clear()
    for run in ("cold", "warm"):
        survey.main()
        assert capsys.readouterr().out == EXPECTED, run
    assert classifier._instantiate.cache_info().hits > 0
