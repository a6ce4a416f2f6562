import os
import shlex
import signal
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieflag.classifier import load_database
from lieflag.errors import DatabaseFormatError
from lieflag.records import (
    IDENT_RE,
    OrbitSchema,
    RecordSchema,
    RelationEdge,
    _compile,
    _split,
    eval_expr,
    parse_records,
    serialize_records,
)

SHIPPED = resources.files("lieflag").joinpath("data/classification.db").read_text()

MINIMAL = """
# a comment
record = W^n
case = SL
source = Thm4.1
item = 1
requires = n >= 2
dim = n
picard = 1
params = m ; m > 0
actions = 2
note = hello world
orbit = closed dim=n-1 ident=P^{n-1} note="zero section"
orbit = open dim=n
relation = op="blow-down" to="P^n" label="W^{(1)}"
"""


def test_round_trip_is_identity_on_shipped_db():
    records = load_database()
    assert parse_records(serialize_records(records)) == records


def test_round_trip_minimal_record():
    records = parse_records(MINIMAL)
    assert parse_records(serialize_records(records)) == records
    (rec,) = records
    assert rec.name == "W^n"
    assert rec.param_names == ("m",)
    assert rec.param_constraint == "m > 0"
    assert rec.orbits[0].note == "zero section"
    assert rec.relations[0].label == "W^{(1)}"


def test_record_predicates():
    (rec,) = parse_records(MINIMAL)
    assert rec.applies(2) and not rec.applies(1)
    assert rec.check_params({"m": 3}) and not rec.check_params({"m": 0})


@pytest.mark.parametrize(
    "mutation",
    [
        ("case = SL", "case = XX"),
        ("source = Thm4.1", "source = Thm9.9"),
        ("item = 1", ""),
        ("orbit = open dim=n", "orbit = open"),
        ("orbit = open dim=n", "orbit = sideways dim=n"),
        ("note = hello world", "oops = hello"),
        # non-integer item, picard or actions
        ("item = 1", "item = x"),
        ("picard = 1", "picard = one"),
        ("actions = 2", "actions = 2.5"),
        # unterminated quote on a relation line
        ('label="W^{(1)}"', 'label="W^{(1)}'),
        # expressions of the wrong kind, or over undeclared names
        ("dim = n", "dim = (1,2)"),
        ("dim = n", "dim = n > 2"),
        ("dim = n", "dim = (1, 2) + (3,)"),
        ("dim = n", "dim = k + 1"),
        ("dim = n", "dim = n +"),
        ("dim = n", "dim = " + "-" * 600 + "n"),
        ("dim = n", "dim = " + "-" * 3000 + "n"),
        ("requires = n >= 2", "requires = n"),
        ("requires = n >= 2", "requires = (n, 1) < 2"),
        ("requires = n >= 2", "requires = m > 0"),
        ("m ; m > 0", "m ; m"),
        ("m ; m > 0", "m ; n > 0"),
        ("open dim=n", "open dim=n==2"),
        ("open dim=n", "open dim=k"),
        # orbit identification exponents are expressions in n too
        ("ident=P^{n-1}", "ident=P^{n-}"),
        ("ident=P^{n-1}", "ident=Q^{n+}"),
    ],
)
def test_parse_rejects_malformed_records(mutation):
    old, new = mutation
    with pytest.raises(DatabaseFormatError):
        parse_records(MINIMAL.replace(old, new))


def test_parse_rejects_orphan_lines():
    with pytest.raises(DatabaseFormatError):
        parse_records("dim = n\n")
    with pytest.raises(DatabaseFormatError):
        parse_records("# only a comment\n")


def test_eval_expr():
    assert eval_expr("n - 1", {"n": 4}) == 3
    assert eval_expr("(p, q) != (0, 0)", {"p": 0, "q": 1}) is True
    assert eval_expr("p >= 0 and q >= 0", {"p": 1, "q": -1}) is False


@pytest.mark.parametrize(
    "expr",
    [
        "__import__('os')",
        "open('x')",
        "n.bit_length()",
        "[n for n in (1,)]",
        "'abc'",
        "k + 1",
        "n ** 9",
    ],
)
def test_eval_expr_rejects_unsafe_or_unknown(expr):
    with pytest.raises(DatabaseFormatError):
        eval_expr(expr, {"n": 4})


_OPERATORS = (" + ", " - ", " * ", " < ", " >= ", " == ", " != ", " and ", " or ")
_EXPRESSIONS = st.recursive(
    st.sampled_from(["n", "0", "2", "True", "(n, 1)", "()"]),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from(_OPERATORS), sub).map(lambda t: f"({''.join(t)})"),
        sub.map(lambda e: f"(not {e})"),
        sub.map(lambda e: f"(-{e})"),
        st.lists(sub, max_size=3).map(lambda es: "(" + "".join(e + ", " for e in es) + ")"),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(text=_EXPRESSIONS, n=st.integers(-5, 5))
def test_accepted_expressions_never_fail_when_evaluated(text, n):
    try:
        _, kind = _compile(text)
    except DatabaseFormatError:
        return
    value = eval_expr(text, {"n": n})
    assert isinstance(value, tuple if kind == "tuple" else int)

def test_expressions_validated_at_load_not_at_query():
    # no query is needed to reach the bad dim of a record that never applies
    text = MINIMAL.replace("requires = n >= 2", "requires = n > 99")
    parse_records(text)
    with pytest.raises(DatabaseFormatError):
        parse_records(text.replace("dim = n", "dim = (1,2)"))


def test_tuples_stay_legal_under_equality():
    (rec,) = parse_records(MINIMAL.replace("m ; m > 0", "p, q ; (p, q) != (0, 0)"))
    assert rec.check_params({"p": 0, "q": 1}) and not rec.check_params({"p": 0, "q": 0})


@settings(max_examples=300, deadline=None)
@given(index=st.integers(min_value=0), junk=st.text(max_size=60))
def test_shipped_db_with_one_line_replaced_fails_only_cleanly(index, junk):
    lines = SHIPPED.splitlines()
    lines[index % len(lines)] = junk
    try:
        parse_records("\n".join(lines))
    except DatabaseFormatError:
        pass


@settings(max_examples=300, deadline=None)
@given(index=st.integers(min_value=0), value=st.text(max_size=40))
def test_shipped_db_with_one_value_replaced_fails_only_cleanly(index, value):
    lines = SHIPPED.splitlines()
    fields = [i for i, line in enumerate(lines) if " = " in line]
    at = fields[index % len(fields)]
    lines[at] = lines[at].split(" = ", 1)[0] + " = " + value
    try:
        parse_records("\n".join(lines))
    except DatabaseFormatError:
        pass


def test_edited_database_file_is_reread(tmp_path):
    db = tmp_path / "edit.db"
    db.write_text(MINIMAL)
    assert [r.name for r in load_database(str(db))] == ["W^n"]
    db.write_text(MINIMAL.replace("record = W^n", "record = V^n"))
    stamp = db.stat().st_mtime_ns + 10**9
    os.utime(db, ns=(stamp, stamp))
    assert [r.name for r in load_database(str(db))] == ["V^n"]


def test_unreadable_database_file_is_a_format_error(tmp_path):
    db = tmp_path / "binary.db"
    db.write_bytes(b"record = \xff\xfe\n")
    with pytest.raises(DatabaseFormatError):
        load_database(str(db))
    with pytest.raises(DatabaseFormatError):
        load_database(str(tmp_path))


# shlex.split is the independent oracle for the orbit/relation tokenizer.
_SHELL_TEXT = st.text(
    st.one_of(st.sampled_from(list("ab=\"'\\ \t\r\n\xa0\x0b#n-{}")), st.characters()),
    max_size=40,
)


@settings(max_examples=2000, deadline=None)
@given(text=_SHELL_TEXT)
def test_split_agrees_with_shlex(text):
    try:
        expected = shlex.split(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _split(text)
        assert str(got.value) == str(exc)
    else:
        assert _split(text) == expected


def _too_slow(signum, frame):
    raise TimeoutError("tokenizer did not finish in linear time")


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@pytest.mark.parametrize(
    "line, error",
    [
        ("a" * 99_999 + '"', "No closing quotation"),
        ('"' + "a" * 99_999, "No closing quotation"),
        ('a"' * 50_000 + '"', "No closing quotation"),
        ("'" + "a" * 99_999, "No closing quotation"),
        ("\\" * 99_999, "No escaped character"),
        ('"' + "\\" * 99_999, "No escaped character"),
    ],
    ids=[
        "word-quote",
        "quote-word",
        "pieces-quote",
        "single-quote",
        "escapes",
        "quoted-escapes",
    ],
)
def test_split_rejects_long_adversarial_lines_in_linear_time(line, error):
    # exponential backtracking would run for hours; the alarm turns it into a failure
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with pytest.raises(ValueError, match=error):
            _split(line)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "old, new, error",
    [
        ('"W^{(1)}"', '"W^{(1)}', "bad relation line: No closing quotation"),
        ('"zero section"', '"zero section\\', "bad orbit line: No escaped character"),
        ("open dim=n", "open dim=n note", "bad orbit token 'note'"),
        ('label="W^{(1)}"', 'lbl="W^{(1)}"', "unknown relation field 'lbl'"),
    ],
)
def test_tokenizer_errors_keep_their_text(old, new, error):
    with pytest.raises(DatabaseFormatError, match=error):
        parse_records(MINIMAL.replace(old, new))


_HEAD = "record = X\ncase = SL\nsource = Thm4.1\nitem = 1\ndim = n\npicard = 1\n"


@pytest.mark.parametrize(
    "line",
    [
        'orbit = open dim=n note="a\\\\"',
        'relation = op="a\\\\" to="P^n"',
        'orbit = open dim="n - 0"',
        'orbit = open dim=n ident="Gr(2, 4)"',
    ],
)
def test_serialize_round_trips_values_that_need_quoting(line):
    records = parse_records(_HEAD + line)
    assert parse_records(serialize_records(records)) == records


_ONE_LINE = st.text().filter(lambda t: t.splitlines() in ([], [t]))
_DIMS = st.recursive(
    st.sampled_from(["n", "0", "2"]),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from([" + ", " - ", "-", " * "]), sub).map("".join),
        sub.map(lambda e: f"({e})"),
    ),
    max_leaves=5,
)
_IDENTS = st.one_of(
    st.sampled_from(["", "P^{n - 1}", "Q^{n-2}", "Gr(2, 4)"]),
    _ONE_LINE.filter(lambda t: IDENT_RE.match(t) is None),
)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["open", "closed", "intermediate", "fixed"]),
    dim=_DIMS,
    ident=_IDENTS,
    note=_ONE_LINE,
    op=_ONE_LINE.filter(bool),
    to=_ONE_LINE.filter(bool),
    label=_ONE_LINE,
)
def test_serialize_round_trips_arbitrary_values(kind, dim, ident, note, op, to, label):
    (base,) = parse_records(MINIMAL)
    rec = replace(
        base,
        orbits=(OrbitSchema(kind, dim, ident, note),),
        relations=(RelationEdge(op, to, label),),
    )
    assert parse_records(serialize_records([rec])) == (rec,)


@pytest.mark.parametrize(
    "field, value",
    [
        ("name", "A\x85note = hi"),
        ("name", "A\nitem = 5"),
        ("name", "A\u2028B"),
        ("name", None),
        ("note", " padded "),
        ("note", "tail\t"),
        ("requires", "n >= 2\rdim = 5"),
        ("dim", " n"),
        ("param_constraint", "m > 0 "),
        ("param_names", ("",)),
        ("param_names", ("m", "a,b")),
        ("param_names", ("m;k",)),
        ("param_names", ("m k",)),
        ("param_names", ("m\x1c",)),
        ("orbits", (OrbitSchema("open dim=n\nnote = x", "n"),)),
        ("orbits", (OrbitSchema('"open"', "n"),)),
    ],
)
def test_serialize_refuses_values_the_line_format_would_change(field, value):
    (base,) = parse_records(MINIMAL)
    with pytest.raises(DatabaseFormatError, match="cannot write"):
        serialize_records([replace(base, **{field: value})])


def test_serialize_keeps_a_constraint_without_parameter_names():
    (base,) = parse_records(MINIMAL)
    rec = replace(base, param_names=(), param_constraint="True")
    assert parse_records(serialize_records([rec])) == (rec,)


# Text that leans on the characters the line format treats specially.
_TEXT = st.text(
    st.one_of(st.sampled_from(" \t\r\n\x0b\x1c\x85\u2028=#;,'\"\\"), st.characters())
)
# Values drawn for one record field at a time, over a valid record.
_FIELD_VALUES = {
    "name": _TEXT,
    "case": st.sampled_from(["SL", "Spin"]) | _TEXT,
    "source": st.sampled_from(["Thm5.4"]) | _TEXT,
    "requires": st.sampled_from(["", "n == 4"]) | _TEXT,
    "dim": _DIMS | _TEXT,
    "param_names": st.lists(st.sampled_from(["m", "k"]) | _TEXT, max_size=3).map(tuple),
    "param_constraint": st.sampled_from(["", "True", "m > 0"]) | _TEXT,
    "note": _TEXT,
    "orbits": (st.sampled_from(["closed", "fixed"]) | _TEXT).map(
        lambda kind: (OrbitSchema(kind, "n"),)
    ),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_serialize_round_trips_or_refuses_record_values(data):
    (base,) = parse_records(MINIMAL)
    if data.draw(st.booleans(), label="drop params"):
        base = replace(base, param_names=(), param_constraint="")
    keys = data.draw(st.sets(st.sampled_from(sorted(_FIELD_VALUES)), max_size=3))
    rec = replace(base, **{k: data.draw(_FIELD_VALUES[k], label=k) for k in sorted(keys)})
    try:
        back = parse_records(serialize_records([rec]))
    except DatabaseFormatError:
        return
    assert back == (rec,)
