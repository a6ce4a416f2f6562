"""The survey scripts against their committed output."""

import importlib.util
from pathlib import Path

from lieflag import classifier

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = (Path(__file__).parent / "classification_survey.txt").read_text()


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rg_table_prints_its_committed_output(capsys):
    _script("rg_table").main()
    assert capsys.readouterr().out == (Path(__file__).parent / "rg_table.txt").read_text()


def test_survey_prints_its_committed_output_cold_and_warm(capsys):
    survey = _script("classification_survey")
    memos = (classifier._instantiate, classifier._ladder, classifier._load)
    for memo in memos:
        memo.cache_clear()  # clearing _load drops the shipped database's case lists too
    for run in ("cold", "warm"):
        survey.main()
        assert capsys.readouterr().out == EXPECTED, run
        if run == "cold":
            misses = [memo.cache_info().misses for memo in memos]
            cases = dict(classifier._load(None))  # the shipped database's case lists
    # the warm run is answered from the memos and builds nothing new
    assert [memo.cache_info().misses for memo in memos] == misses
    assert classifier._ladder.cache_info().hits > 0
    # every full list of the warm run is a case list the cold run stored
    assert cases and classifier._load(None).keys() == cases.keys()
    assert all(classifier._load(None)[key] is value for key, value in cases.items())
