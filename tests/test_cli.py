import contextlib
import functools
import io
import json
import re
import shlex
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieflag import bwb_section_dim, cli, dynkin_type, load_database, marking, weight
from lieflag.classifier import GroupSpec
from lieflag.cli import run
from lieflag.errors import shown
from lieflag.records import _CASES

from oracles import SHIPPED_DB, fresh_python, load_script

GOLDEN = Path(__file__).parent / "golden"
regen_golden = load_script("regen_golden")


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cases():
    return [pytest.param(name, argv, id=name) for name, argv in regen_golden.cases().items()]


def _int_tokens(text: str) -> set:
    return set(re.findall(r"\d+", text))


@pytest.mark.parametrize("name,argv", _cases())
def test_golden_text_and_json(capsys, name, argv):
    text, out = regen_golden.outputs(argv)  # what the script writes, both runs exit 0
    assert capsys.readouterr().err == ""
    assert text == (GOLDEN / f"{name}.txt").read_text()
    assert out == (GOLDEN / f"{name}.json").read_text()
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload

    # every number shown in text mode must appear in the JSON document
    missing = _int_tokens(text) - _int_tokens(out)
    assert not missing, f"numbers {missing} missing from JSON of {name}"


def test_json_flag_position_irrelevant(capsys):
    _, before, _ = _run(capsys, ["--json", "rmin", "G2"])
    _, after, _ = _run(capsys, ["rmin", "G2", "--json"])
    assert before == after


def test_specific_numbers_agree_between_modes(capsys):
    _, out, _ = _run(capsys, ["rmin", "G2"])
    assert "r=5" in out
    _, out, _ = _run(capsys, ["rmin", "G2", "--json"])
    assert json.loads(out)["r"] == 5
    _, out, _ = _run(capsys, ["weyl-dim", "A1", "--weight", "3", "--json"])
    assert json.loads(out)["dim"] == 4


# The exact stderr, or None where it is argparse's (test_usage_texts_exact pins those).
# Type, node and weight texts are the library's DomainError messages.
@pytest.mark.parametrize(
    "argv,err",
    [
        (["no-such-command"], None),
        (["roots"], None),
        (["roots", "Z9"], "TYPE: unknown series 'Z'"),
        (["roots", "A0"], "TYPE: series A needs rank >= 1"),
        (["parabolic", "A2", "--nodes", "1,2,3"], "--nodes: node 3 out of range 1..2 for A2"),
        (["parabolic", "A4", "--nodes", "5,0"], "--nodes: node 0 out of range 1..4 for A4"),
        (["parabolic", "A2", "--nodes", "x"],
         "--nodes: expected comma-separated integers, got 'x'"),
        (["weyl-dim", "A2", "--weight", "1"], "--weight: weight needs 2 coordinates, got 1"),
        (["weyl-dim", "A2", "--weight", "1,2,3"], "--weight: weight needs 2 coordinates, got 3"),
        (["fano-index", "B2", "--node", "5"], "--node: node 5 out of range 1..2 for B2"),
        (["fano-index", "B2", "--node", "x"], None),
        (["bwb", "A2", "--nodes", "1", "--weight", "1,0", "--power", "0"],
         "--power: power must be >= 1"),
        (["bwb", "A2", "--nodes", "3", "--weight", "1,0,0", "--power", "0"],
         "--nodes: node 3 out of range 1..2 for A2"),
        (["hilbert", "A2", "--nodes", "1", "--weight", "1,0", "--kmax", "0"],
         "--kmax: kmax must be >= 1"),
        (["classify", "--group", "SO", "--param", "4", "--dim", "3"], None),
        (["orbits", "--variety", "P^n", "--params", "n-4"], "--params: expected k=v, got 'n-4'"),
    ],
)
def test_usage_errors_exit_2(capsys, argv, err):
    code, out, stderr = _run(capsys, argv)
    assert (code, out) == (2, "")
    if err is not None:
        assert stderr == f"usage error: {err}\n"


def test_orbits_refuses_a_parameter_value_that_is_not_an_integer(capsys):
    code, out, err = _run(capsys, ["orbits", "--variety", "P^n", "--params", "n=x"])
    assert (code, out) == (2, "")
    assert err == "usage error: --params: non-integer value in 'n=x'\n"


def test_orbits_refuses_a_repeated_or_an_empty_parameter_key(capsys):
    code, out, err = _run(capsys, ["orbits", "--variety", "P^n", "--params", "n=4,m=2,n=5"])
    assert (code, out) == (2, "")
    assert err == "usage error: --params: key 'n' given twice\n"
    code, out, err = _run(capsys, ["orbits", "--variety", "P^n", "--params", "n=4,m=2,=7"])
    assert (code, out) == (2, "")
    assert err == "usage error: --params: expected k=v, got '=7'\n"


_COMMANDS = (
    "{roots,dim-group,parabolic,rmin,minimal-homogeneous,fano-index,weyl-dim,min-irrep,bwb,"
    "cone-cover,hilbert,classify,orbits,relations,validate-db}"
)
_TOP_USAGE = f"usage: lieflag [-h] [--json] [--db DB]\n               {_COMMANDS}\n               ...\n"
_CHOICES = ", ".join(repr(name) for name in _COMMANDS.strip("{}").split(","))


# Exact argparse texts, which the full parser prints for help and usage errors.
@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        ([], 2, "", _TOP_USAGE + "lieflag: error: the following arguments are required: command\n"),
        (["bogus"], 2, "",
         _TOP_USAGE + f"lieflag: error: argument command: invalid choice: 'bogus' "
         f"(choose from {_CHOICES})\n"),
        (["--bogus", "rmin", "G2"], 2, "",
         _TOP_USAGE + "lieflag: error: unrecognized arguments: --bogus\n"),
        (["rmin", "G2", "--bogus"], 2, "",
         _TOP_USAGE + "lieflag: error: unrecognized arguments: --bogus\n"),
        (["rmin"], 2, "",
         "usage: lieflag rmin [-h] [--json] [--db DB] type\n"
         "lieflag rmin: error: the following arguments are required: type\n"),
        (["classify", "--group", "SL", "--param", "4"], 2, "",
         "usage: lieflag classify [-h] [--json] [--db DB] --group {SL,Sp,Spin,G2}\n"
         "                        [--param PARAM] --dim DIM [--quasihomogeneous]\n"
         "lieflag classify: error: the following arguments are required: --dim\n"),
        (["--help"], 0,
         _TOP_USAGE + f"""
positional arguments:
  {_COMMANDS}
    roots               positive roots of a type
    dim-group           dimension of the simple group
    parabolic           dimension of G/P for marked nodes
    rmin                minimal flag-variety dimension
    minimal-homogeneous
                        minimal flag varieties
    fano-index          index of G/P at one node
    weyl-dim            irreducible dimension of a weight
    min-irrep           smallest nontrivial irreducible
    bwb                 section dimension of a bundle power on G/P
    cone-cover          cyclic cover order of the punctured bundle
    hilbert             Hilbert function of the cone ring
    classify            variety list for a group and dimension
    orbits              orbit list of a named record
    relations           blow-up and blow-down edges
    validate-db         structural rules over the database

options:
  -h, --help            show this help message and exit
  --json                emit one JSON document
  --db DB               classification database path
""", ""),
        (["rmin", "--help"], 0, """usage: lieflag rmin [-h] [--json] [--db DB] type

positional arguments:
  type

options:
  -h, --help  show this help message and exit
  --json      emit one JSON document
  --db DB     classification database path
""", ""),
    ],
    ids=["no_command", "unknown_command", "bogus_option", "bogus_option_after_command",
         "rmin_no_type", "classify_no_dim", "help", "rmin_help"],
)
def test_usage_texts_exact(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert _run(capsys, argv) == (code, out, err)


def test_db_value_named_like_a_command(capsys, tmp_path, monkeypatch):
    # "--db roots" is the database path, not the command
    monkeypatch.chdir(tmp_path)
    (tmp_path / "roots").write_text(_R2_RECORD)
    assert _run(capsys, ["--db", "roots", "validate-db"])[0] == 1


@functools.cache
def _parser():
    return cli.build_parser()


def _full_namespace(argv):
    """vars() of the full parser's namespace with run()'s fallbacks; None when it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = _parser().parse_args(argv)
    except SystemExit:
        return None
    return {"json": False, "db": None, **vars(args)}


def _check_plain(argv):
    """_plain_args(argv) is None or the full parser's namespace; None where the parser exits."""
    plain = cli._plain_args(argv)
    full = _full_namespace(argv)
    if full is None or plain is None:
        assert plain is None
    else:
        assert vars(plain) == full
    return plain


@pytest.mark.parametrize(
    "argv,name",
    [
        (["rmin", "G2"], "rmin"),
        (["--json", "--db", "roots", "validate-db"], "validate-db"),
        (["--db=x", "rmin", "--db", "y"], None),  # --db twice
        (["--bogus", "rmin"], None),
        (["--js", "rmin"], None),
        (["-h", "rmin"], None),
        (["bogus", "rmin"], None),
        (["--db"], None),
        ([], None),
        (["--db=x", "rmin", "G2", "--db", "y"], None),  # argparse takes the last
        (["classify", "--dim", "4", "--group", "SL", "--dim", "4"], None),
        (["rmin", "G2", "--db"], None),
        (["classify", "--dim=4", "--group", "SL", "--quasihomogeneous"], "classify"),
        (["classify", "--dim", "4", "--group", "SL", "--quasihomogeneous="], None),
        (["classify", "--dim", "4", "--group", "SU"], None),
        (["classify", "--dim", "-4", "--group", "SL"], None),
        (["fano-index", "B2", "--node", "+1"], "fano-index"),
        (["fano-index", "--node", "1", "B2", "B2"], None),
        (["fano-index", "B2", "--node", "1", "--", "B2"], None),
        (["weyl-dim", "--weight", "1", "A1", "--weig", "2"], None),
    ],
)
def test_only_a_plainly_named_command_skips_the_full_parser(argv, name):
    # any other argv may need the full parser: help, or an error listing every command
    plain = _check_plain(argv)
    assert (plain and plain.command) == name


@pytest.mark.parametrize("name,argv", _cases())
def test_every_golden_argv_is_plain(name, argv):
    for variant, json_, db in (
        (argv, False, None),
        (["--json", *argv], True, None),
        ([*argv, "--json"], True, None),
        (["--db", "x.db", *argv], False, "x.db"),
        ([*argv, "--db=x.db", "--json"], True, "x.db"),
        (["--json", *argv, "--db", "x.db"], True, "x.db"),
    ):
        plain = _check_plain(variant)
        assert plain is not None and (plain.json, plain.db) == (json_, db), variant


def test_the_cli_choices_are_the_library_vocabularies():
    # spelled out in cli, so a command that reads no database imports neither module
    assert cli._ARGUMENTS["--case"]["choices"] == _CASES
    for family in cli._ARGUMENTS["--group"]["choices"]:
        assert GroupSpec(family, 8).family == family


# Words for the differential: option names exact and abbreviated, values that
# int() reads in several spellings, negatives, choices and non-choices.
_OPTIONS = [name for name in cli._ARGUMENTS if name.startswith("--")] + ["--json", "--db"]
_INTS = ["0", "1", "3", "12", "+4", "4_0", "\u0664", " 4"]
_VALUES = [*_INTS, "1,0", "2,4", "-1", "-1,0", "", "A2", "G2", "B3", "x", "n=4", "SL", "Sp",
           "Spin", "SL3Q", "SO", "P^n"]
_ODD = ["--", "-h", "--help", "-", "--js", "--d", "--no", "--we", "--pa", "--q", "--c", "bogus"]
_WORDS = st.one_of(
    st.sampled_from([*cli.COMMANDS, *_OPTIONS, *_VALUES, *_ODD]),
    st.builds("{}={}".format, st.sampled_from(_OPTIONS + _ODD), st.sampled_from(_VALUES)),
)


@st.composite
def _argvs(draw):
    """A command with most of its arguments, shuffled, in either value form, plus strays."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    before, after = [], []
    for name in cli.COMMANDS[command].arguments.split() + ["--json", "--db"]:
        if draw(st.integers(0, 9)) == 0:
            continue
        spec = cli._ARGUMENTS.get(name, {})
        fitting = spec.get("choices") or (_INTS if "type" in spec else ["A2", "B3", "1,0"])
        value = draw(st.sampled_from([*fitting, *_VALUES]))
        if name == "type":
            group = [value]
        elif name in ("--json", "--quasihomogeneous"):
            group = [name]
        else:
            group = draw(st.sampled_from([[name, value], [f"{name}={value}"]]))
        top = name in ("--json", "--db") and draw(st.booleans())
        (before if top else after).append(group)
    groups = [*before, [command], *draw(st.permutations(after))]
    words = [word for group in groups for word in group]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        words.insert(draw(st.integers(0, len(words))), draw(_WORDS))
    return words


@settings(max_examples=600, deadline=None)
@given(argv=st.one_of(_argvs(), st.lists(_WORDS, max_size=6)))
def test_plain_args_agree_with_the_full_parser(argv):
    _check_plain(argv)


# The CLI walk: each argument of a command takes a value that fits it or one
# from a hostile pool; --power and --kmax stay at 20 or less, so that no
# example computes for long.
_LONG = "9" * 4301  # more digits than int() converts
_HOSTILE = ["x", "1.5", "-3", "1_0", _LONG, "", "A0", "Z2", "E9", "A13", "D" + _LONG]
_FITTING = {
    "type": ["A1", "A2", "B2", "G2", "a2", "D3"],
    "--nodes": ["1", "2", "1,2"],
    "--weight": ["1", "1,0", "0,2", "1,1,1"],
    "--node": ["1", "2"],
    "--power": ["1", "3", "20"],
    "--kmax": ["1", "5", "20"],
    "--dim": ["2", "3", "4"],
    "--param": ["3", "4"],
    "--c1": ["1", "1,2", "0,0"],
    "--variety": ["P^n", "Q^n", "FlagSL3", "Gr(2,4)"],
    "--params": ["n=4", "n=4,m=2", "n=4,m=2,n=5", "n=4,m=2,=7", "n", "n=x", "n=" + _LONG],
}


def _hostile_argv(draw, command):
    """The command with each of its arguments, or most of them, in either value form."""
    argv = [command] + draw(st.sampled_from([[], ["--json"]]))
    for name in cli.COMMANDS[command].arguments.split():
        if draw(st.integers(0, 9)) == 0:
            continue
        spec = cli._ARGUMENTS[name]
        if spec.get("action") == "store_true":
            argv.append(name)
            continue
        fitting = st.sampled_from(spec.get("choices") or _FITTING[name])
        value = draw(st.one_of(fitting, st.sampled_from(_HOSTILE)))
        if name == "type":
            argv.append(value)
        else:
            argv += draw(st.sampled_from([[name, value], [f"{name}={value}"]]))
    return argv


@pytest.fixture(scope="module")
def unreadable_databases(tmp_path_factory):
    """No database given (None), then a directory, an empty file and a file
    that is not UTF-8, each named by LIEFLAG_DB or by --db."""
    root = tmp_path_factory.mktemp("unreadable")
    (root / "empty.db").write_text("")
    (root / "binary.db").write_bytes(b"record = \xff\xfe\n")  # not UTF-8
    return [None, root, root / "empty.db", root / "binary.db"]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_cli_walk_exits_0_1_or_2_without_a_traceback(unreadable_databases, command, data):
    argv = _hostile_argv(data.draw, command)
    db = data.draw(st.sampled_from(unreadable_databases))
    given_as = data.draw(st.sampled_from(["LIEFLAG_DB", "--db V", "--db=V"]))
    if db is not None and given_as != "LIEFLAG_DB":
        at = data.draw(st.sampled_from([0, len(argv)]))  # before the command or after it
        argv[at:at] = ["--db", str(db)] if given_as == "--db V" else [f"--db={db}"]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if db is not None and given_as == "LIEFLAG_DB":
            mp.setenv("LIEFLAG_DB", str(db))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv


@pytest.mark.parametrize(
    "argv,error",
    [
        (["weyl-dim", "A2", "--weight=-1,0"], "NonDominantWeight"),
        (["cone-cover", "--c1", "0,0"], "ZeroClass"),
        (["classify", "--group", "SL", "--param", "1", "--dim", "2"], "InvalidGroup"),
        (["classify", "--group", "Sp", "--param", "5", "--dim", "4"], "InvalidGroup"),
        (["classify", "--group", "SL", "--param", "3", "--dim=-1"], "InvalidDimension"),
        (["bwb", "A2", "--nodes", "1", "--weight", "0,1", "--power", "2"], "UnsupportedWeight"),
        (["orbits", "--variety", "W^9", "--params", "n=4"], "UnknownVariety"),
        (["orbits", "--variety", "Q^4", "--params", "n=4"], "UnknownVariety"),
        (
            ["orbits", "--variety", "P(O(m)+O)/P^{n-1}", "--case", "SL", "--params", "n=4,m=0"],
            "ParameterViolation",
        ),
        (["relations", "--variety", "W^9"], "UnknownVariety"),
        (["--db", "/no/such/file", "validate-db"], "DatabaseFormatError"),
    ],
)
def test_domain_errors_exit_1_with_error_name(capsys, argv, error):
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert error in err


def test_hilbert_refuses_an_overlong_kmax_at_once(capsys):
    argv = ["hilbert", "E8", "--nodes", "1", "--weight", "1,0,0,0,0,0,0,0", "--kmax", "100000000"]
    start = time.perf_counter()
    code, out, err = _run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == "error: InvalidDimension: k_max must be at most 10000, got 100000000\n"


_R2_RECORD = (
    "record = P^n\ncase = Spin\nsource = Thm4.1\nitem = 1\n"
    "requires = n >= 6\ndim = n\npicard = 1\n"
    "orbit = fixed dim=0\norbit = open dim=n\n"
)
_GOOD_RECORD = (
    "record = OnlyOne\ncase = SL\nsource = Thm4.1\nitem = 1\n"
    "requires = n >= 2\ndim = n\npicard = 1\norbit = open dim=n\n"
)


def test_validate_db_exit_reflects_violations(capsys, tmp_path):
    bad = tmp_path / "bad.db"
    bad.write_text(_R2_RECORD)
    code, out, err = _run(capsys, ["--db", str(bad), "validate-db"])
    assert code == 1
    assert "rule=R2" in out


_NO_LIST = {"reason": "", "count": 0, "entries": []}
_R2_VIOLATION = {
    "rule": "R2", "record": "P^n", "case": "Spin", "message": "fixed point in an unflagged record"
}


# Text forms no golden file covers: a count of 0 on a full list but none on
# the verdicts that list nothing, reason lines, and violation rows.
@pytest.mark.parametrize(
    "db,argv,text,payload,exit_code",
    [
        (
            None,
            ["classify", "--group", "SL", "--param", "4", "--dim", "2"],
            "group=SL(4) n=2 verdict=only_trivial_action\n",
            {"group": "SL(4)", "n": 2, "verdict": "only_trivial_action", **_NO_LIST},
            0,
        ),
        (
            None,
            ["classify", "--group", "G2", "--dim", "6"],
            "group=G2 n=6 verdict=out_of_covered_range\n"
            'reason="exceptional groups are covered only through the minimal flag-variety '
            'dimension"\n',
            {
                "group": "G2", "n": 6, "verdict": "out_of_covered_range",
                "reason": "exceptional groups are covered only through the minimal "
                "flag-variety dimension",
                "count": 0, "entries": [],
            },
            0,
        ),
        (
            None,
            ["classify", "--group", "SL", "--param", "3", "--dim", "4"],
            "group=SL(3) n=4 verdict=out_of_covered_range\n"
            'reason="dimension r+2 is covered only under a dense-orbit hypothesis; '
            'rerun with quasihomogeneous_only"\n',
            {
                "group": "SL(3)", "n": 4, "verdict": "out_of_covered_range",
                "reason": "dimension r+2 is covered only under a dense-orbit hypothesis; "
                "rerun with quasihomogeneous_only",
                "count": 0, "entries": [],
            },
            0,
        ),
        (
            _GOOD_RECORD,
            ["classify", "--group", "Sp", "--param", "4", "--dim", "4"],
            "group=Sp(4) n=4 verdict=full_list count=0\n",
            {"group": "Sp(4)", "n": 4, "verdict": "full_list", **_NO_LIST},
            0,
        ),
        (
            _R2_RECORD,
            ["validate-db"],
            'violations=1\nviolation rule=R2 record=P^n case=Spin '
            'message="fixed point in an unflagged record"\n',
            {"count": 1, "violations": [_R2_VIOLATION]},
            1,
        ),
    ],
    ids=["only_trivial", "g2_beyond_r", "sl3_r_plus_2", "empty_full_list", "violation_rows"],
)
def test_text_forms_without_golden(capsys, tmp_path, db, argv, text, payload, exit_code):
    if db is not None:
        path = tmp_path / "case.db"
        path.write_text(db)
        argv = ["--db", str(path), *argv]
    assert _run(capsys, argv) == (exit_code, text, "")
    assert _run(capsys, argv + ["--json"]) == (exit_code, json.dumps(payload, indent=2) + "\n", "")


def test_module_entry_point(tmp_path):
    done = fresh_python("-m", "lieflag", "rmin", "G2")
    assert done.returncode == 0
    assert done.stdout == (GOLDEN / "rmin_G2.txt").read_text()
    bad = tmp_path / "bad.db"
    bad.write_text(_R2_RECORD)
    assert fresh_python("-m", "lieflag", "--db", str(bad), "validate-db").returncode == 1
    done = fresh_python("-m", "lieflag", "--db", str(tmp_path), "validate-db")  # a directory
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: DatabaseFormatError: cannot read database ")
    assert "Traceback" not in done.stderr


def test_a_fresh_process_reads_the_database_variable(capsys, tmp_path):
    tiny, bad = tmp_path / "tiny.db", tmp_path / "bad.db"
    tiny.write_text(_GOOD_RECORD)
    bad.write_text("record = P^n\nnot a key line\n")
    argv = ("classify", "--group", "SL", "--param", "4", "--dim", "4")
    golden = (GOLDEN / "classify_SL4_n4.txt").read_text()
    own = _run(capsys, ["--db", str(tiny), *argv])
    assert own[0] == 0 and "name=OnlyOne" in own[1] and own[1] != golden
    done = fresh_python("-m", "lieflag", *argv, LIEFLAG_DB=str(tiny))
    assert (done.returncode, done.stdout, done.stderr) == own
    done = fresh_python("-m", "lieflag", *argv, LIEFLAG_DB="")  # empty means the shipped file
    assert (done.returncode, done.stdout, done.stderr) == (0, golden, "")
    done = fresh_python("-m", "lieflag", "--db", str(tiny), *argv, LIEFLAG_DB=str(bad))  # --db wins
    assert (done.returncode, done.stdout, done.stderr) == own


def test_the_tests_read_the_shipped_database_whatever_the_variable_names(tmp_path):
    # a golden answer, and a module that loads the database as it is collected
    bad = tmp_path / "bad.db"
    bad.write_text("record = X\n")
    tests = Path(__file__).resolve().parent
    done = fresh_python(
        "-m", "pytest", "-q", "-p", "no:cacheprovider",
        f"{tests / 'test_cli.py'}::test_golden_text_and_json[classify_SL4_n4]",
        f"{tests / 'test_db_format.py'}::test_round_trip_is_identity_on_shipped_db",
        LIEFLAG_DB=str(bad),
    )
    assert done.returncode == 0 and "2 passed" in done.stdout, done.stdout


def test_hilbert_refuses_an_answer_too_long_to_write_before_building_it():
    # built in full, these 10,001 values of up to ~312,000 digits would take minutes
    e8, big = dynkin_type("E8"), 10**4000 - 1
    largest = bwb_section_dim(marking(e8, (1,)), weight(e8, (big,) + (0,) * 7), 10_000)
    err = f"error: AnswerTooLong: the answer holds {shown(largest)}, more digits than str writes\n"
    argv = ("hilbert", "E8", "--nodes", "1", "--weight", f"{big}" + ",0" * 7, "--kmax")
    for mode in ((), ("--json",)):
        done = fresh_python("-m", "lieflag", *mode, *argv, "10000", timeout=10)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", err)
    done = fresh_python("-m", "lieflag", *argv, "10001", timeout=10)  # above the bound, the bound's error
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "error: InvalidDimension: k_max must be at most 10000, got 10001\n")


@pytest.mark.parametrize("returned, status", [(None, 0), (0, 0), (3, 3)])
def test_main_exits_with_the_code_its_entry_returns(returned, status):
    with pytest.raises(SystemExit) as exc:
        cli.main(lambda: returned)
    assert (exc.value.code or 0) == status


def _reordered(text: str) -> str:
    """The records in reverse order, a comment after each record line, CRLF endings."""
    header, *records = re.split(r"\n(?=record = )", text.rstrip("\n"))
    records = [r.replace("\n", "\n# a comment inside the record\n", 1) for r in records]
    return "\n".join([header, *reversed(records)]).replace("\n", "\r\n") + "\r\n"


def _requote(word: str) -> str:
    key, eq, value = word.partition("=")
    if not eq:  # the orbit kind
        return word
    if key == "note":  # single-quoted
        assert "'" not in value
        return f"{key}='{value}'"
    if " " in value:  # bare, with backslash-escaped spaces
        return key + "=" + re.sub(r"""([\s'"\\])""", r"\\\1", value)
    return '"' + word.replace("\\", "\\\\").replace('"', '\\"') + '"'  # whole-word double quotes


def _requoted(text: str) -> str:
    """Every orbit and relation word quoted another way, the records unchanged."""
    lines = []
    for line in text.split("\n"):
        key, sep, value = line.partition(" = ")
        if key in ("orbit", "relation"):
            line = key + sep + " ".join(map(_requote, shlex.split(value)))
        lines.append(line)
    return "\n".join(lines)


@pytest.mark.parametrize("variant, step, marks", [
    (_reordered, -1, ["\r\n# a comment inside the record\r\n"]),
    (_requoted, 1, ['"dim=n-1"', "note='", r"op=blow-up\ diagonal"]),
], ids=["reordered", "requoted"])
def test_the_shipped_records_written_another_way_give_the_golden_answers(
        capsys, tmp_path, variant, step, marks):
    text = variant(SHIPPED_DB.read_text())
    assert all(mark in text for mark in marks)
    db = tmp_path / "variant.db"
    db.write_bytes(text.encode())
    assert load_database(str(db)) == load_database()[::step]
    assert _run(capsys, ["--json", "--db", str(db), "validate-db"]) == (
        0, (GOLDEN / "validate_db.json").read_text(), "")
    assert _run(capsys, ["classify", "--group", "SL", "--param", "4", "--dim", "4",
                         "--db", str(db)]) == (0, (GOLDEN / "classify_SL4_n4.txt").read_text(), "")


_D3_NOTICE = (
    "warning: D3 has the same diagram as A3 (relabelled nodes); "
    "results agree with A3 up to the node permutation\n"
)


@pytest.mark.parametrize("argv", [["roots", "D3"], ["roots", "D3", "--json"], ["rmin", "d3"]])
def test_d3_gives_one_warning_line_even_when_warnings_are_errors(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, argv)
    assert (code, err) == (0, _D3_NOTICE)
    assert out.startswith('{\n  "type": "D3"' if "--json" in argv else "type=D3 ")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an outer filter changes nothing: the CLI prints it
        assert _run(capsys, argv) == (0, out, _D3_NOTICE)


def test_d3_under_w_error_in_a_fresh_interpreter(capsys):
    done = fresh_python("-W", "error", "-m", "lieflag", "roots", "D3")
    assert (done.returncode, done.stderr) == (0, _D3_NOTICE)
    assert done.stdout.startswith("type=D3 count=6\n")
    assert done.stdout == _run(capsys, ["roots", "D3"])[1]


@pytest.mark.parametrize(
    "old,new",
    [
        ("item = 1", "item = x"),
        ("orbit = open dim=n", 'orbit = open dim=n\nrelation = op="blow-down" to="Q^4'),
        ("dim = n", "dim = (1,2)"),
    ],
    ids=["item_word", "relation_quote", "dim_tuple"],
)
@pytest.mark.parametrize(
    "command",
    [["validate-db"], ["classify", "--group", "SL", "--param", "4", "--dim", "4"]],
    ids=["validate-db", "classify"],
)
def test_malformed_db_is_a_domain_error(capsys, tmp_path, old, new, command):
    bad = tmp_path / "bad.db"
    bad.write_text(_GOOD_RECORD.replace(old, new))
    code, out, err = _run(capsys, ["--db", str(bad), *command])
    assert code == 1 and out == ""
    assert err.startswith("error: DatabaseFormatError")
    assert "Traceback" not in err


def test_db_env_var_and_flag_precedence(capsys, tmp_path, monkeypatch):
    tiny = tmp_path / "tiny.db"
    tiny.write_text(_GOOD_RECORD)
    monkeypatch.setenv("LIEFLAG_DB", str(tiny))
    code, out, err = _run(capsys, ["classify", "--group", "SL", "--param", "4", "--dim", "4"])
    assert code == 0 and "OnlyOne" in out

    # explicit flag wins over the environment
    code, out, err = _run(
        capsys,
        ["--db", str(SHIPPED_DB),
         "classify", "--group", "SL", "--param", "4", "--dim", "4"],
    )
    assert code == 0 and "OnlyOne" not in out and "Gr(2,4)" in out
