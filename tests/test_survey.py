"""The survey scripts against their committed output, and the printing
scripts on a closed pipe."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from lieflag import classifier

from oracles import load_script

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = (Path(__file__).parent / "classification_survey.txt").read_text()


def test_rg_table_prints_its_committed_output(capsys):
    load_script("rg_table").main()
    assert capsys.readouterr().out == (Path(__file__).parent / "rg_table.txt").read_text()


def test_survey_prints_its_committed_output_cold_and_warm(capsys):
    survey = load_script("classification_survey")
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


@pytest.mark.parametrize("argv", [
    ["loc.py"],
    ["rg_table.py"],
    ["classification_survey.py"],
    ["memo_traffic.py", "query_mix", "--ops", "10"],
], ids=lambda argv: argv[0])
# Unbuffered, a script's print() meets the closed pipe; buffered, the flush in cli.main does.
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_pipe_ends_a_script_with_exit_1_and_no_traceback(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "LIEFLAG_DB"}
    env["PYTHONUNBUFFERED"] = unbuffered
    try:
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")
