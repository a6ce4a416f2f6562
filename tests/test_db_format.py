import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieflag.classifier import (
    classify,
    group_spec,
    load_database,
    orbit_structure,
    relations,
    validate_database,
    validate_records,
)
from lieflag.errors import (
    DatabaseFormatError,
    InvalidDimension,
    InvalidGroup,
    InvalidRank,
    ParameterViolation,
    UnknownVariety,
)
from lieflag.records import (
    _CHECKED,
    _MAX_DEPTH,
    _TEXTS,
    _TEXTS_MAX,
    IDENT_RE,
    OrbitSchema,
    RecordSchema,
    RelationEdge,
    _compile,
    _parse_text,
    _record_text,
    eval_expr,
    parse_records,
    serialize_records,
)
from lieflag.roots import DynkinType, dynkin_type

from oracles import HAS_ALARM, SHIPPED_DB, clear_memos, time_bound

SHIPPED = SHIPPED_DB.read_text()

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
    with pytest.raises(InvalidDimension, match="got 2.0"):
        rec.applies(2.0)  # refused, not truncated to 2


@pytest.mark.parametrize("value", [1.9, 0.5, "2", None])
def test_check_params_refuses_a_value_that_is_not_an_integer(value):
    (rec,) = parse_records(MINIMAL)
    with pytest.raises(ParameterViolation) as exc:
        rec.check_params({"m": value})
    assert str(exc.value) == f"parameter 'm' must be an integer, got {value!r}"


def test_a_missing_declared_parameter_is_named():
    (rec,) = parse_records(MINIMAL)
    with pytest.raises(ParameterViolation) as exc:
        rec.check_params({})
    assert str(exc.value) == "'W^n' needs parameter 'm'"
    # a declared parameter is needed without a constraint too
    with pytest.raises(ParameterViolation) as exc:
        orbit_structure("Y_a", {"n": 4})
    assert str(exc.value) == "'Y_a' needs parameter 'a'"
    assert orbit_structure("Y_a", {"n": 4, "a": -3})


# Each malformation with the exact text its DatabaseFormatError carries:
# a line-level fault names its line, a record-level one its record.
_DEEP_600 = "-" * 600 + "n"
_DEEP_3000 = "-" * 3000 + "n"
# Parts the interpreter words itself, and whether _DEEP_3000 fails in the
# interpreter's parser or at our depth limit depends on that parser; only
# the text around them is pinned.
_INTERPRETER_WORDED = {
    "{syntax}": r"invalid syntax \(.*\)",
    "{deep}": r"(expression nested too deeply: |bad expression )",
    "{tail}": r"(: .+)?",
}


@pytest.mark.parametrize(
    "mutation",
    [
        ("case = SL", "case = XX", "record 'W^n': unknown case 'XX'"),
        ("source = Thm4.1", "source = Thm9.9", "record 'W^n': unknown source 'Thm9.9'"),
        ("item = 1", "", "record 'W^n': missing item"),
        ("orbit = open dim=n", "orbit = open", "line 14: orbit needs a dim"),
        (
            "orbit = open dim=n",
            "orbit = sideways dim=n",
            "line 14: orbit kind missing in 'sideways dim=n'",
        ),
        ("note = hello world", "oops = hello", "line 12: unknown key 'oops'"),
        # non-integer item, picard or actions
        ("item = 1", "item = x", "record 'W^n': item 'x' is not an integer"),
        ("picard = 1", "picard = one", "record 'W^n': picard 'one' is not an integer"),
        ("actions = 2", "actions = 2.5", "record 'W^n': actions '2.5' is not an integer"),
        # unterminated quote on a relation line
        (
            'label="W^{(1)}"',
            'label="W^{(1)}',
            "line 15: bad relation line: No closing quotation",
        ),
        # expressions of the wrong kind, or over undeclared names
        ("dim = n", "dim = (1,2)", "line 8: int expected, got tuple in '(1,2)'"),
        ("dim = n", "dim = n > 2", "line 8: int expected, got bool in 'n > 2'"),
        (
            "dim = n",
            "dim = (1, 2) + (3,)",
            "line 8: tuple outside == or != in '(1, 2) + (3,)'",
        ),
        ("dim = n", "dim = k + 1", "line 8: unknown name 'k' in 'k + 1'"),
        ("dim = n", "dim = n +", "line 8: bad expression 'n +': {syntax}"),
        ("dim = n", "dim = " + _DEEP_600, f"line 8: expression nested too deeply: {_DEEP_600!r}"),
        ("dim = n", "dim = " + _DEEP_3000, f"line 8: {{deep}}{_DEEP_3000!r}{{tail}}"),
        ("requires = n >= 2", "requires = n", "line 7: bool expected, got int in 'n'"),
        (
            "requires = n >= 2",
            "requires = (n, 1) < 2",
            "line 7: tuple outside == or != in '(n, 1) < 2'",
        ),
        ("requires = n >= 2", "requires = m > 0", "line 7: unknown name 'm' in 'm > 0'"),
        ("m ; m > 0", "m ; m", "line 10: bool expected, got int in 'm'"),
        ("m ; m > 0", "m ; n > 0", "line 10: unknown name 'n' in 'n > 0'"),
        # a params name with whitespace inside, which serializing could not write
        ("m ; m > 0", "m, a b", "line 10: bad params name 'a b'"),
        ("open dim=n", "open dim=n==2", "line 14: int expected, got bool in 'n==2'"),
        ("open dim=n", "open dim=k", "line 14: unknown name 'k' in 'k'"),
        # orbit identification exponents are expressions in n too
        ("ident=P^{n-1}", "ident=P^{n-}", "line 13: bad expression 'n-': {syntax}"),
        ("ident=P^{n-1}", "ident=Q^{n+}", "line 13: bad expression 'n+': {syntax}"),
        # a tuple beside another operator, inside a tuple or under not
        ("n >= 2", "n == (1,) < 2", "line 7: tuple outside == or != in 'n == (1,) < 2'"),
        ("n >= 2", "((1,),) == (1,)", "line 7: tuple outside == or != in '((1,),) == (1,)'"),
        ("n >= 2", "not (1,)", "line 7: tuple outside == or != in 'not (1,)'"),
        # a disallowed node is named before a misplaced tuple, the shallowest first
        ("dim = n", "dim = (1,) < n ** 2", "line 8: disallowed syntax Pow in '(1,) < n ** 2'"),
        ("dim = n", "dim = (1,) < 1.5", "line 8: non-integer constant in '(1,) < 1.5'"),
        ("dim = n", "dim = n ** 2 < f(n)", "line 8: disallowed syntax Call in 'n ** 2 < f(n)'"),
        # a record-level key given twice, one of each type; the later line is named
        ("dim = n", "dim = n\ndim = n + 1", "line 9: duplicate key 'dim'"),
        ("item = 1", "item = 1\nitem = 2", "line 7: duplicate key 'item'"),
        ("params = m ; m > 0", "params = m ; m > 0\nparams = k", "line 11: duplicate key 'params'"),
        (
            "actions = 2",
            "allows_fixed_point = yes\nactions = 2\nallows_fixed_point = no",
            "line 13: duplicate key 'allows_fixed_point'",
        ),
        # the value's own check comes before the duplicate check
        ("dim = n", "dim = n\ndim = (1,2)", "line 9: int expected, got tuple in '(1,2)'"),
        # a flag is yes or no
        (
            "actions = 2",
            "actions = 2\nallows_fixed_point = Yes",
            "line 12: allows_fixed_point must be yes or no, got 'Yes'",
        ),
        # only ASCII digits after an optional "-", as the writer emits
        ("item = 1", "item = \u0663", "record 'W^n': item '\u0663' is not an integer"),
        ("item = 1", "item = 1_0", "record 'W^n': item '1_0' is not an integer"),
        ("picard = 1", "picard = +5", "record 'W^n': picard '+5' is not an integer"),
        # a params name given twice; a bad name anywhere is named first
        ("m ; m > 0", "m, m ; m > 0", "line 10: duplicate params name 'm'"),
        ("m ; m > 0", "m, m, a b", "line 10: bad params name 'a b'"),
    ],
)
def test_parse_rejects_malformed_records(mutation):
    old, new, message = mutation
    with pytest.raises(DatabaseFormatError) as exc:
        parse_records(MINIMAL.replace(old, new))
    pattern = re.escape(message)
    for placeholder, regex in _INTERPRETER_WORDED.items():
        pattern = pattern.replace(re.escape(placeholder), regex)
    assert re.fullmatch(pattern, str(exc.value)), str(exc.value)


def test_a_negative_integer_round_trips():
    (rec,) = parse_records(MINIMAL.replace("item = 1", "item = -3"))
    assert rec.item == -3 and "\nitem = -3\n" in serialize_records([rec])
    assert parse_records(serialize_records([rec])) == (rec,)


def test_allows_fixed_point_no_reads_as_the_default_and_is_not_written():
    (rec,) = parse_records(MINIMAL.replace("actions = 2", "actions = 2\nallows_fixed_point = no"))
    assert rec == parse_records(MINIMAL)[0] and rec.allows_fixed_point is False
    assert "allows_fixed_point" not in serialize_records([rec])
    (flagged,) = parse_records(MINIMAL.replace("actions = 2", "allows_fixed_point = yes"))
    assert "\nallows_fixed_point = yes\n" in serialize_records([flagged])


def test_parse_rejects_orphan_lines():
    with pytest.raises(DatabaseFormatError, match=r"^line 1: 'dim' outside a record$"):
        parse_records("dim = n\n")
    with pytest.raises(DatabaseFormatError, match=r"^no records found$"):
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


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), "x", [1], None], ids=repr)
def test_eval_expr_refuses_a_binding_that_is_not_an_integer(value):
    with pytest.raises(DatabaseFormatError) as exc:
        eval_expr("n + 1", {"n": value})
    assert str(exc.value) == f"name 'n' must be an integer, got {value!r}"


def test_eval_expr_binds_a_bool_and_keeps_its_error_order():
    assert eval_expr("n + 1", {"n": True}) == 2
    assert eval_expr("n", {"n": 4, "m": 1.5}) == 4  # a name the code does not read is not bound
    # a bad expression is named before a bad env, an unknown name before a bad binding
    with pytest.raises(DatabaseFormatError, match=r"^bad expression 'n \+'"):
        eval_expr("n +", None)
    with pytest.raises(DatabaseFormatError, match=r"^unknown name 'n' in 'm \+ n'$"):
        eval_expr("m + n", {"m": 1.5})


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
    with pytest.raises(DatabaseFormatError) as exc:
        parse_records(text.replace("dim = n", "dim = (1,2)"))
    assert str(exc.value) == "line 8: int expected, got tuple in '(1,2)'"


def test_tuples_stay_legal_under_equality():
    (rec,) = parse_records(MINIMAL.replace("m ; m > 0", "p, q ; (p, q) != (0, 0)"))
    assert rec.check_params({"p": 0, "q": 1}) and not rec.check_params({"p": 0, "q": 0})
    assert _compile("(1,) == (1,) != (2,)")[1] == "bool"
    assert eval_expr("(1,) == (1,) != (2,)", {}) is True


@pytest.mark.parametrize(
    "text, kind",
    [
        ("n", "int"), ("2", "int"), ("-True", "int"), ("n * 2 - 1", "int"),
        ("True", "bool"), ("not n", "bool"), ("n and 1", "bool"), ("n < 1", "bool"),
        ("(n, 1)", "tuple"), ("()", "tuple"),
    ],
)
def test_the_kind_of_an_expression_is_that_of_its_root(text, kind):
    assert _compile(text)[1] == kind


@pytest.mark.parametrize(
    "nest, value",
    [
        (lambda k: "-" * (k - 1) + "n", (-1) ** (_MAX_DEPTH - 1)),
        (lambda k: "n" + " + 1" * (k - 1), _MAX_DEPTH),
    ],
    ids=["negations", "sum"],
)
def test_expressions_nest_up_to_the_depth_limit(nest, value):
    # depth counts the expression nodes on the longest path from the root
    assert _compile(nest(_MAX_DEPTH))[1] == "int"
    assert eval_expr(nest(_MAX_DEPTH), {"n": 1}) == value
    text = nest(_MAX_DEPTH + 1)
    with pytest.raises(DatabaseFormatError) as exc:
        _compile(text)
    assert str(exc.value) == f"expression nested too deeply: {text!r}"


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


_VALUES = sorted({line.split(" = ", 1)[1] for line in SHIPPED.splitlines() if " = " in line})


def _parse_and_validate(text: str):
    try:
        records = parse_records(text)
    except DatabaseFormatError as exc:
        return str(exc)
    return records, validate_records(records)


@settings(max_examples=200, deadline=None)
@given(
    index=st.integers(min_value=0),
    value=st.sampled_from(_VALUES) | st.text(max_size=30),
)
def test_cold_caches_give_the_warm_results(index, value):
    lines = SHIPPED.splitlines()
    fields = [i for i, line in enumerate(lines) if " = " in line]
    at = fields[index % len(fields)]
    lines[at] = lines[at].split(" = ", 1)[0] + " = " + value
    text = "\n".join(lines)
    _parse_and_validate(text)
    warm = _parse_and_validate(text)
    clear_memos()
    assert _parse_and_validate(text) == warm


@pytest.fixture
def parsed(monkeypatch):
    """The texts that parse_records parses rather than reads from the text memo."""
    texts = []
    monkeypatch.setattr(
        "lieflag.records._parse_text", lambda text: texts.append(text) or _parse_text(text)
    )
    return texts


def test_a_text_parsed_before_gives_the_same_records(parsed):
    _TEXTS.clear()
    first = parse_records(SHIPPED)
    copy = (SHIPPED + " ")[:-1]
    assert copy == SHIPPED and copy is not SHIPPED
    assert parse_records(copy) is first
    assert parsed == [SHIPPED]
    edited = SHIPPED.replace("item = 2", "item = 3", 1)  # one byte
    assert parse_records(edited) != first
    assert parsed == [SHIPPED, edited]


def test_a_malformed_text_fails_again_on_every_parse(parsed):
    text = SHIPPED.replace("item = 2", "colour = red", 1)
    lineno = SHIPPED.splitlines().index("item = 2") + 1
    for n in (1, 2):
        with pytest.raises(DatabaseFormatError) as exc:
            parse_records(text)
        assert str(exc.value) == f"line {lineno}: unknown key 'colour'"
        assert parsed == [text] * n and text not in _TEXTS


def test_the_text_memo_holds_the_last_8_texts(parsed):
    _TEXTS.clear()
    texts = [SHIPPED + "#" * i for i in range(_TEXTS_MAX + 2)]  # a comment line each
    for text in texts:
        parse_records(text)
    assert _TEXTS_MAX == 8 and list(_TEXTS) == texts[-8:]
    parse_records(texts[-8])  # a hit
    parse_records(texts[0])  # evicted: parsed again
    assert parsed == [*texts, texts[0]]


def test_threads_that_fill_the_text_memo_at_once_keep_its_bound():
    texts = [SHIPPED + "#" * i for i in range(40)]
    records = parse_records(SHIPPED)

    def churn(first):
        for text in texts[first::4]:
            assert parse_records(text) == records
            serialize_records(records[first:])

    with ThreadPoolExecutor(4) as pool:
        list(pool.map(churn, range(4)))
    assert 0 < len(_TEXTS) <= _TEXTS_MAX


def test_a_file_whose_text_was_parsed_and_written_is_not_parsed_again(tmp_path, parsed):
    db = tmp_path / "churn.db"
    db.write_text(SHIPPED, encoding="utf-8")
    _TEXTS.clear()
    parse_records(serialize_records(parse_records(SHIPPED)))
    assert validate_database(str(db)) == []
    assert parsed == [SHIPPED]


# The shipped file cut before each record line: a header, then one chunk per record.
_CHUNKS = re.split(r"\n(?=record = )", SHIPPED.rstrip("\n"))
_NOISE = ["", "   ", "# churn 17", "  # indented comment", "\t#"]
# whitespace that strip removes but no line split breaks at
_INDENTS = [" ", "  \t", "\xa0", "\x1f", "\u3000"]
_SEPARATORS = ["=", " =", "= ", "\t=\t", "\xa0=\u3000"]


@st.composite
def _shipped_variants(draw):
    """Lines of the shipped records, reordered or dropped, with comment and
    blank lines inserted, lines indented and key separators respaced."""
    order = draw(st.permutations(range(1, len(_CHUNKS))))
    order = order[: draw(st.integers(1, len(order)))]
    lines = [line for i in [0, *order] for line in _CHUNKS[i].split("\n")]
    for at, noise in draw(st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from(_NOISE)),
                                   max_size=12)):
        lines.insert(at % (len(lines) + 1), noise)
    for at, indent in draw(st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from(_INDENTS)),
                                    max_size=12)):
        lines[at % len(lines)] = indent + lines[at % len(lines)] + indent[::-1]
    for at, sep in draw(st.lists(st.tuples(st.integers(0, 10**4), st.sampled_from(_SEPARATORS)),
                                 max_size=12)):
        lines[at % len(lines)] = lines[at % len(lines)].replace(" = ", sep, 1)
    return lines


_ENDINGS = st.sampled_from(["\n", "\r\n", "\r", "\u2028"])


@settings(max_examples=150, deadline=None)
@given(lines=_shipped_variants(), ending=_ENDINGS, final=st.booleans())
def test_record_blocks_are_reused_across_comments_indentation_and_line_endings(
    lines, ending, final
):
    text = ending.join(lines) + (ending if final else "")
    got = parse_records(text)  # the memo holds blocks of earlier examples
    plain = "\n".join(s for s in map(str.strip, lines) if s and s[0] != "#")
    clear_memos()
    expected = parse_records(plain)
    assert got == expected
    assert parse_records(text) == expected  # every block a hit now
    assert len(expected) == sum(s.startswith("record") for s in map(str.strip, lines))


@settings(max_examples=100, deadline=None)
@given(lines=_shipped_variants(), ending=_ENDINGS)
def test_a_written_text_is_stored_with_the_records_a_cold_parse_gives(lines, ending):
    text = serialize_records(parse_records(ending.join(lines)))
    stored = _TEXTS[text]
    assert parse_records(text) is stored
    clear_memos()
    assert parse_records(text) == stored


def test_a_text_is_stored_only_when_serializing_succeeds():
    _TEXTS.clear()
    assert serialize_records([]) == ""
    assert not _TEXTS
    with pytest.raises(DatabaseFormatError, match="^no records found$"):
        parse_records("")
    bad = _SHIPPED_RECORD._replace(note="ends in a space ")
    with pytest.raises(DatabaseFormatError):
        serialize_records([_SHIPPED_RECORD, bad])
    assert not _TEXTS


_LINE_FAULTS = [
    ("colour = red", "unknown key 'colour'"),
    ("dim = (1,2)", "int expected, got tuple in '(1,2)'"),
    ("orbit = open", "orbit needs a dim"),
    ('relation = op="blow-up" to="P^n', "bad relation line: No closing quotation"),
    ("just words", "expected key = value"),
]


@settings(max_examples=150, deadline=None)
@given(lines=_shipped_variants(), ending=_ENDINGS, data=st.data())
def test_a_malformed_line_is_named_by_its_number_with_the_memo_cold_or_warm(
    lines, ending, data
):
    good = ending.join(lines)
    candidates = [i for i, line in enumerate(lines)
                  if line.strip() and line.strip()[0] != "#" and "record" not in line]
    at = data.draw(st.sampled_from(candidates), label="line index")
    bad, error = data.draw(st.sampled_from(_LINE_FAULTS), label="fault")
    text = ending.join(lines[:at] + [bad] + lines[at + 1:])
    clear_memos()
    for memo in ("cold", "warm"):
        with pytest.raises(DatabaseFormatError) as exc:
            parse_records(text)
        assert str(exc.value) == f"line {at + 1}: {error}", memo
        parse_records(good)  # the memo now holds every good block of the text


def test_edited_database_file_is_reread(tmp_path):
    db = tmp_path / "edit.db"
    db.write_text(MINIMAL)
    assert [r.name for r in load_database(str(db))] == ["W^n"]
    db.write_text(MINIMAL.replace("record = W^n", "record = V^n"))
    stamp = db.stat().st_mtime_ns + 10**9
    os.utime(db, ns=(stamp, stamp))
    assert [r.name for r in load_database(str(db))] == ["V^n"]


def test_an_edit_that_restores_mtime_and_size_is_reread(tmp_path):
    db = tmp_path / "edit.db"
    db.write_text(MINIMAL)
    assert [r.name for r in load_database(str(db))] == ["W^n"]
    before = db.stat()
    time.sleep(0.05)  # past a coarse file system clock's tick, which ctime has too
    db.write_text(MINIMAL.replace("record = W^n", "record = V^n"))
    os.utime(db, ns=(before.st_atime_ns, before.st_mtime_ns))  # as cp -p or touch -r do
    after = db.stat()
    assert (after.st_mtime_ns, after.st_size) == (before.st_mtime_ns, before.st_size)
    assert [r.name for r in load_database(str(db))] == ["V^n"]


def test_unreadable_database_file_is_a_format_error(tmp_path):
    binary, directory, empty = tmp_path / "binary.db", tmp_path / "dir.db", tmp_path / "empty.db"
    binary.write_bytes(b"record = \xff\xfe\n")  # not UTF-8
    directory.mkdir()
    empty.write_bytes(b"")
    for db, message in [
        (binary, f"cannot read database {str(binary)!r}: 'utf-8' codec can't decode"),
        (directory, f"cannot read database {str(directory)!r}: "),
        (empty, "no records found"),
    ]:
        path = str(db)
        queries = [
            (load_database, path),
            (classify, group_spec("SL", 4), 4, False, path),  # r = 3, so n = 4 reads the file
            (relations, "P^n", path),
            (orbit_structure, "P^n", {"n": 3}, "SL", path),
            (validate_database, path),
        ]
        for fn, *args in queries:
            with pytest.raises(DatabaseFormatError) as exc:
                fn(*args)
            assert str(exc.value).startswith(message), (db.name, fn.__name__)


def test_a_value_that_is_not_a_path_touches_no_file_descriptor(tmp_path):
    db = tmp_path / "fd.db"
    db.write_text(MINIMAL)
    fd = os.open(db, os.O_RDONLY)
    try:
        assert fd > 2
        with pytest.raises(DatabaseFormatError) as exc:
            load_database(fd)
        assert str(exc.value) == f"cannot read database {fd}: not a path"
        with pytest.raises(DatabaseFormatError):
            classify(group_spec("SL", 4), 4, db_path=fd)
        assert os.fstat(fd).st_size == len(MINIMAL)  # still open
    finally:
        os.close(fd)


@pytest.mark.parametrize("path", ["a\0b", "\ud800.db"])
def test_a_path_the_os_cannot_encode_is_a_format_error(path):
    queries = [
        (load_database, path),
        (classify, group_spec("SL", 4), 4, False, path),
        (relations, "P^n", path),
        (orbit_structure, "P^n", {"n": 3}, "SL", path),
        (validate_database, path),
    ]
    for fn, *args in queries:
        with pytest.raises(DatabaseFormatError) as exc:
            fn(*args)
        assert str(exc.value).startswith(f"cannot read database {path!r}: "), fn.__name__


@pytest.mark.parametrize(
    "call, args, error, message",
    [
        (classify, (None, 4), InvalidGroup, "group must be a GroupSpec, got None"),
        (classify, (("SL", 4), 4), InvalidGroup, "group must be a GroupSpec, got ('SL', 4)"),
        (parse_records, (5,), DatabaseFormatError, "database text must be a str, got int"),
        (parse_records, (MINIMAL.encode(),), DatabaseFormatError,
         "database text must be a str, got bytes"),
        (serialize_records, (5,), DatabaseFormatError, "records must be an iterable, got int"),
        (validate_records, (5,), DatabaseFormatError, "records must be an iterable, got int"),
        (validate_records, (None,), DatabaseFormatError,
         "records must be an iterable, got NoneType"),
        (orbit_structure, ("P^n", None, "SL"), ParameterViolation,
         "params must be a mapping, got NoneType"),
        (orbit_structure, ("P^n", [("n", 4)], "SL"), ParameterViolation,
         "params must be a mapping, got list"),
        (parse_records(MINIMAL)[0].check_params, (None,), ParameterViolation,
         "params must be a mapping, got NoneType"),
        (eval_expr, (5, {}), DatabaseFormatError, "expression must be a string, got int"),
        (eval_expr, ("n", None), DatabaseFormatError, "env must be a mapping, got NoneType"),
        (parse_records(MINIMAL)[0].applies, ("3",), InvalidDimension,
         "dimension must be an integer, got '3'"),
        (parse_records(MINIMAL)[0].applies, (None,), InvalidDimension,
         "dimension must be an integer, got None"),
        # a string argument that is not a string, checked before a memo key or
        # a set lookup, which could not hash a list
        (eval_expr, (["n"], {"n": 1}), DatabaseFormatError,
         "expression must be a string, got list"),
        (relations, (["x"],), UnknownVariety, "no record or instance named ['x']"),
        (relations, (10**5000,), UnknownVariety,
         "no record or instance named <integer of ~5000 digits>"),
        (orbit_structure, (10**5000, {"n": 3}), UnknownVariety,
         "no record named <integer of ~5000 digits>"),
        (dynkin_type, (5,), InvalidRank, "cannot parse Dynkin type 5: not a string"),
        (dynkin_type, (None,), InvalidRank, "cannot parse Dynkin type None: not a string"),
        (DynkinType, (["A"], 2), InvalidRank, "unknown series ['A']"),
        (DynkinType, (10**5000, 2), InvalidRank, "unknown series <integer of ~5000 digits>"),
    ],
)
def test_wrong_typed_arguments_are_domain_errors(call, args, error, message):
    with pytest.raises(error) as exc:
        call(*args)
    assert str(exc.value) == message


_HEAD = "record = X\ncase = SL\nsource = Thm4.1\nitem = 1\ndim = n\npicard = 1\n"


@pytest.mark.skipif(not HAS_ALARM, reason="needs SIGALRM")
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
    # a backtracking splitter would run for hours; the alarm turns it into a failure
    with time_bound(5), pytest.raises(DatabaseFormatError) as exc:
        parse_records(_HEAD + "orbit = " + line)
    assert str(exc.value) == f"line 7: bad orbit line: {error}"


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
    text = MINIMAL.replace(old, new)
    lineno = next(i for i, line in enumerate(text.splitlines(), 1) if new in line)
    with pytest.raises(DatabaseFormatError) as exc:
        parse_records(text)
    assert str(exc.value) == f"line {lineno}: {error}"


@pytest.mark.parametrize(
    "line, error",
    [
        ("orbit = open dim=k", "unknown name 'k' in 'k'"),
        ("relation = op=x", "relation needs op and to"),
    ],
)
def test_a_repeated_bad_value_names_the_line_of_each_parse(line, error):
    # record blocks and orbit and relation values are memoised, their errors never
    for pad in (0, 3, 0):
        with pytest.raises(DatabaseFormatError) as exc:
            parse_records("\n" * pad + _HEAD + line)
        assert str(exc.value) == f"line {7 + pad}: {error}"


def test_a_cached_good_value_keeps_later_errors_on_their_line():
    good = _HEAD + "orbit = open dim=n\nrelation = op=a to=b\n"
    parse_records(good)
    with pytest.raises(DatabaseFormatError) as exc:
        parse_records("# pad\n" + good + "orbit = open dim=n\nrelation = op=a\n")
    assert str(exc.value) == "line 11: relation needs op and to"
    with pytest.raises(DatabaseFormatError) as exc:
        parse_records(good.replace("picard = 1\n", "") + "record = Y\n")
    assert str(exc.value) == "record 'X': missing picard"


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
    rec = base._replace(
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
        # a value of another type than the field declares
        ("item", "3"),
        ("item", True),
        ("picard", 2.0),
        ("actions", None),
        ("allows_fixed_point", "yes"),
        ("allows_fixed_point", 1),
        ("param_names", ["m"]),
        ("param_names", ("m", 3)),
        ("orbits", (OrbitSchema(None, "n"),)),
        ("orbits", (OrbitSchema("open", None),)),
        ("orbits", (OrbitSchema("open", "n", 4),)),
        ("orbits", (OrbitSchema("open", "n", "", b"x"),)),
        ("relations", (RelationEdge(1, "P^n"),)),
        ("relations", (RelationEdge("op", ("P^n",)),)),
        ("relations", (RelationEdge("op", "P^n", None),)),
    ],
)
def test_serialize_refuses_values_the_line_format_would_change(field, value):
    (base,) = parse_records(MINIMAL)
    with pytest.raises(DatabaseFormatError, match="cannot write"):
        serialize_records([base._replace(**{field: value})])


def test_serialize_names_the_value_of_another_type():
    (base,) = parse_records(MINIMAL)
    with pytest.raises(DatabaseFormatError) as exc:
        serialize_records([base._replace(item="3")])
    assert str(exc.value) == "cannot write '3': not an integer"
    with pytest.raises(DatabaseFormatError) as exc:
        serialize_records([base._replace(orbits=(OrbitSchema("open", None),))])
    assert str(exc.value) == "cannot write None: not a string"


@pytest.mark.parametrize("field", ["item", "picard", "actions"])
def test_serialize_refuses_an_integer_too_long_to_write(field):
    (base,) = parse_records(MINIMAL)
    with pytest.raises(DatabaseFormatError, match="^cannot write an integer: Exceeds the limit"):
        serialize_records([base._replace(**{field: 10**5000})])


_SHIPPED_RECORD = parse_records(SHIPPED)[0]


@pytest.mark.parametrize(
    "bad, message",
    [
        (_SHIPPED_RECORD._replace(orbits=(("open", "n", "", ""),)),
         "cannot write ('open', 'n', '', ''): not an OrbitSchema"),
        (_SHIPPED_RECORD._replace(orbits=("x",)), "cannot write 'x': not an OrbitSchema"),
        (_SHIPPED_RECORD._replace(orbits=list(_SHIPPED_RECORD.orbits)), "not a tuple"),
        (_SHIPPED_RECORD._replace(relations=(("blow-up", "P^n", ""),)),
         "cannot write ('blow-up', 'P^n', ''): not a RelationEdge"),
        (_SHIPPED_RECORD._replace(param_names=(["m"],)), "cannot write ['m']: not a string"),
        (_SHIPPED_RECORD._replace(dim=5), "cannot write 5: not a string"),
        ("x", "cannot write 'x': not a RecordSchema"),
        (tuple(_SHIPPED_RECORD), "not a RecordSchema"),
        # well typed, but the parser refuses the record's text
        (_SHIPPED_RECORD._replace(dim="(n, 1)"),
         "record 'P^n': int expected, got tuple in '(n, 1)'"),
        (_SHIPPED_RECORD._replace(requires="n"), "record 'P^n': bool expected, got int in 'n'"),
        (_SHIPPED_RECORD._replace(case="XX"), "record 'P^n': unknown case 'XX'"),
        (_SHIPPED_RECORD._replace(orbits=(OrbitSchema("open", "n + m"),)),
         "record 'P^n': unknown name 'm' in 'n + m'"),
        (_SHIPPED_RECORD._replace(param_names=("m", "m"), param_constraint="m > 0"),
         "record 'P^n': duplicate params name 'm'"),
    ],
)
def test_ill_typed_records_are_format_errors_in_both_directions(bad, message):
    for call in (serialize_records, validate_records):
        with pytest.raises(DatabaseFormatError) as exc:
            call([bad])
        assert message in str(exc.value)
    # a good record ahead of the bad one is refused with it
    with pytest.raises(DatabaseFormatError):
        validate_records([_SHIPPED_RECORD, bad])


def test_a_record_whose_text_parses_back_changed_is_refused(monkeypatch):
    other = _SHIPPED_RECORDS[1]
    monkeypatch.setattr("lieflag.records._record_text", lambda rec: _record_text(other))
    _CHECKED.clear()
    with pytest.raises(DatabaseFormatError) as exc:
        validate_records([_SHIPPED_RECORD])
    assert str(exc.value) == f"record {_SHIPPED_RECORD.name!r}: its text parses back changed"


def test_validate_records_reads_any_iterable_once():
    records = [rec._replace(dim="n + 1") for rec in parse_records(SHIPPED)]
    found = validate_records(records)
    assert found
    assert validate_records(iter(records)) == found


def test_validation_messages_give_an_over_long_dimension_by_size():
    big = "9" * 4000
    (rec,) = parse_records(MINIMAL)
    found = validate_records([rec._replace(dim=f"{big} * {big} + n")])
    assert [v.message for v in found] == [
        f"open orbit of dim {n} != <integer of ~8000 digits>" for n in range(2, 9)
    ]


def test_serialize_keeps_a_constraint_without_parameter_names():
    (base,) = parse_records(MINIMAL)
    rec = base._replace(param_names=(), param_constraint="True")
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
# Values of another type than a field declares, which must never parse
# back as something else.
_ILL_TYPED = st.none() | st.booleans() | st.integers() | st.floats() | _TEXT
_FIELD_VALUES.update(
    item=st.integers() | _ILL_TYPED,
    picard=st.integers() | _ILL_TYPED,
    actions=st.integers() | _ILL_TYPED,
    allows_fixed_point=st.booleans() | _ILL_TYPED,
    param_names=_FIELD_VALUES["param_names"] | st.lists(_ILL_TYPED, max_size=2).map(tuple)
    | st.lists(st.sampled_from(["m", "k"]), max_size=2),
    orbits=_FIELD_VALUES["orbits"]
    | st.builds(OrbitSchema, st.just("closed"), _DIMS | _ILL_TYPED, _ILL_TYPED, _ILL_TYPED).map(
        lambda orbit: (orbit,)
    ),
    relations=st.builds(RelationEdge, _ILL_TYPED, _ILL_TYPED, _ILL_TYPED).map(lambda r: (r,)),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_serialize_round_trips_or_refuses_record_values(data):
    (base,) = parse_records(MINIMAL)
    if data.draw(st.booleans(), label="drop params"):
        base = base._replace(param_names=(), param_constraint="")
    keys = data.draw(st.sets(st.sampled_from(sorted(_FIELD_VALUES)), max_size=3))
    rec = base._replace(**{k: data.draw(_FIELD_VALUES[k], label=k) for k in sorted(keys)})
    try:
        back = parse_records(serialize_records([rec]))
    except DatabaseFormatError:
        return
    assert back == (rec,)


class _Text(str):
    pass


_SHIPPED_RECORDS = load_database()
# Each equal to a shipped record, yet of another type than a field declares.
_EQUAL_BUT_ILL_TYPED = [
    (tuple(_SHIPPED_RECORD), "not a RecordSchema"),
    (_SHIPPED_RECORD._replace(item=True), "cannot write True: not an integer"),
    (_SHIPPED_RECORD._replace(name=_Text(_SHIPPED_RECORD.name)),
     f"cannot write {_SHIPPED_RECORD.name!r}: not a string"),
]


@pytest.mark.parametrize("bad, message", _EQUAL_BUT_ILL_TYPED)
def test_the_record_memos_refuse_an_equal_record_of_another_type(bad, message):
    assert bad == _SHIPPED_RECORD and _SHIPPED_RECORD.item == 1
    serialize_records(_SHIPPED_RECORDS)
    validate_records(_SHIPPED_RECORDS)
    for call in (serialize_records, validate_records, serialize_records, validate_records):
        with pytest.raises(DatabaseFormatError) as exc:
            call([*_SHIPPED_RECORDS, bad])
        assert message in str(exc.value)


def test_a_record_text_is_built_once_per_check(monkeypatch):
    built = []
    monkeypatch.setattr(
        "lieflag.records._record_text", lambda rec: built.append(rec) or _record_text(rec)
    )
    records = parse_records(SHIPPED)
    _CHECKED.clear()
    text = serialize_records(records)
    assert serialize_records(records) == text
    assert built == list(records)
    _CHECKED.clear()
    built.clear()
    validate_records(records)
    assert serialize_records(records) == text
    assert built == list(records)


def test_a_refused_value_is_refused_on_every_call():
    bad = _SHIPPED_RECORD._replace(note="ends in a space ")
    for _ in range(2):
        with pytest.raises(DatabaseFormatError, match="not one line without edge whitespace"):
            serialize_records([bad])


def test_serialized_shipped_records_are_pinned():
    expected = Path(__file__).with_name("shipped_serialized.db").read_text(encoding="utf-8")
    _CHECKED.clear()
    for memo in ("cold", "warm"):
        assert serialize_records(load_database()) == expected, memo


@settings(max_examples=150, deadline=None)
@given(order=st.permutations(range(len(_SHIPPED_RECORDS))), keep=st.integers(0, 30))
def test_the_record_memos_give_the_text_they_were_cleared_of(order, keep):
    records = [_SHIPPED_RECORDS[i] for i in order[:keep]]
    serialize_records(_SHIPPED_RECORDS)
    warm = serialize_records(records)
    _CHECKED.clear()
    assert serialize_records(records) == warm
    assert warm == "".join(serialize_records([rec]) + "\n" for rec in records)[:-1]
