"""The survey scripts against their committed output, the script loader of
the tests, and the CLI and the printing scripts on a closed pipe."""

import os
import sys
from pathlib import Path

import pytest

from lieflag import classifier

from oracles import clear_memos, fresh_python, load_script

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
EXPECTED = (Path(__file__).parent / "classification_survey.txt").read_text()


def test_loading_a_script_leaves_sys_path_as_it_was():
    before = list(sys.path)
    for _ in range(3):
        load_script("regen_golden")  # which puts src/ in front when run directly
    assert sys.path == before


def test_rg_table_prints_its_committed_output(capsys):
    load_script("rg_table").main()
    assert capsys.readouterr().out == (Path(__file__).parent / "rg_table.txt").read_text()


def test_survey_prints_its_committed_output_cold_and_warm(capsys):
    survey = load_script("classification_survey")
    memos = (classifier._instantiate, classifier._ladder, classifier._load)
    clear_memos()  # clearing _load drops the shipped database's case lists too
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


@pytest.mark.parametrize("args", [
    ["-m", "lieflag", "hilbert", "A3", "--nodes", "1", "--weight", "1,0,0", "--kmax", "3"],
    [SCRIPTS / "loc.py"],
    [SCRIPTS / "rg_table.py"],
    [SCRIPTS / "classification_survey.py"],
    [SCRIPTS / "memo_traffic.py", "query_mix", "--ops", "10"],
], ids=["lieflag", "loc.py", "rg_table.py", "classification_survey.py", "memo_traffic.py"])
# Unbuffered, a print() meets the closed pipe; buffered, the flush in cli.main does.
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_pipe_exits_1_without_a_traceback(args, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = fresh_python(*args, stdout=write_end, timeout=120, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")
