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
    memos = (classifier._instantiate, classifier._ladder, classifier._case_entries)
    for memo in memos:
        memo.cache_clear()
    for run in ("cold", "warm"):
        survey.main()
        assert capsys.readouterr().out == EXPECTED, run
        if run == "cold":
            misses = [memo.cache_info().misses for memo in memos]
    # the warm run is answered from the memos and builds nothing new
    assert [memo.cache_info().misses for memo in memos] == misses
    assert classifier._ladder.cache_info().hits > 0
    assert classifier._case_entries.cache_info().hits > 0
