"""Line-oriented record format for the classification database.

The grammar is stated once, in the README section "The classification
database", and the memos with their bounds in "Library layout".  The
record-level keys come from the table ``_KEYS``.  Parsing then
serializing then parsing is the identity on the record list.

Serializing and validating take a record only when each value has
exactly its declared type, subclasses refused, so two records that pass
and compare equal hold identical values, and when its text parses back
to it, so every parse-time check applies to a record built in code.
Serializing also refuses an integer with more digits than ``str``
converts, a record-level value that holds a line break or starts or
ends with whitespace, which the line split and strip would change, a
``params`` name that is empty or holds ``,``, ``;`` or whitespace, and
an unknown orbit kind.  ``_CHECKED`` holds up to 256 records that
passed, by identity, each with its text, and is emptied when full, so a
record's text is built once per check.  No error is cached.
"""

from __future__ import annotations

import ast
import re
import shlex
from functools import lru_cache
from operator import attrgetter
from types import CodeType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    DatabaseFormatError,
    InvalidDimension,
    ParameterViolation,
    integer,
    mapping,
    shown,
)

_SOURCES = ("Prop3.1", "Thm4.1", "Thm5.4")
_CASES = ("SL", "Sp", "Spin", "SL3Q")
_ORBIT_KINDS = ("open", "closed", "intermediate", "fixed")

# Orbit identifications P^k / Q^k, with k an integer expression in n.
IDENT_RE = re.compile(r"^([PQ])\^\{?([0-9n+\- ]+)\}?$")
# A params name holds no whitespace, "," or ";", so it is written back unchanged.
_UNSAFE_PARAM = re.compile(r"[\s,;]").search
# An integer value: ASCII digits, optionally after "-", as str writes it.
_INTEGER = re.compile(r"-?[0-9]+").fullmatch

# Node types an expression may hold, each operator node with its operators.
_ALLOWED_NODES = (
    ast.BoolOp, ast.And, ast.Or,
    ast.UnaryOp, ast.Not, ast.USub,
    ast.BinOp, ast.Add, ast.Sub, ast.Mult,
    ast.Compare, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
    ast.Name, ast.Load, ast.Constant, ast.Tuple,
)
_EQUALITY = (ast.Eq, ast.NotEq)
# Most expression nodes on a path from the root of an expression to a leaf.
_MAX_DEPTH = 100


@lru_cache(maxsize=1024)
def _compile(text: str) -> tuple[CodeType, str]:
    """Checked code object of an expression, plus the kind of its value:
    "int", "bool" or "tuple".

    One breadth-first pass checks node types, integer constants and the
    nesting depth, and that a tuple holds only scalars and stands only as
    the whole expression or as an operand of == or != alone, so an
    expression that passes cannot fail once its names are bound.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise DatabaseFormatError(f"bad expression {text!r}: {exc}") from None
    misplaced = False  # raised after the walk, which names a disallowed node first
    # (node, depth, whether it may be a tuple), visited in the order of ast.walk
    todo = [(tree.body, 1, True)]
    for node, depth, tuple_ok in todo:
        if not isinstance(node, _ALLOWED_NODES):
            raise DatabaseFormatError(f"disallowed syntax {type(node).__name__} in {text!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, int):
            raise DatabaseFormatError(f"non-integer constant in {text!r}")
        if depth > _MAX_DEPTH:
            raise DatabaseFormatError(f"expression nested too deeply: {text!r}")
        misplaced |= isinstance(node, ast.Tuple) and not tuple_ok
        tuple_operands = ()
        if isinstance(node, ast.Compare):  # operands with only == or != beside them
            eq = [True, *(isinstance(op, _EQUALITY) for op in node.ops), True]
            operands = (node.left, *node.comparators)
            tuple_operands = [o for o, left, right in zip(operands, eq, eq[1:]) if left and right]
        for child in ast.iter_child_nodes(node):  # operators and contexts add no depth
            todo.append((child, depth + isinstance(child, ast.expr), child in tuple_operands))
    if misplaced:
        raise DatabaseFormatError(f"tuple outside == or != in {text!r}")
    root = tree.body
    boolean = (
        isinstance(root, (ast.BoolOp, ast.Compare))
        or isinstance(root, ast.UnaryOp) and isinstance(root.op, ast.Not)
        or isinstance(root, ast.Constant) and isinstance(root.value, bool)
    )
    kind = "tuple" if isinstance(root, ast.Tuple) else "bool" if boolean else "int"
    return compile(tree, "<record>", "eval"), kind


def eval_expr(text: str, env: Mapping[str, int]):
    """Evaluate a small integer/boolean expression over named integers.

    A ``text`` that is not a string, an ``env`` that is not a mapping or
    a name bound to a value that is not an integer raises
    ``DatabaseFormatError``.
    """
    if not isinstance(text, str):  # before the memo, which could not hash a list
        raise DatabaseFormatError(f"expression must be a string, got {type(text).__name__}")
    code, _ = _compile(text)
    mapping(env, "env", DatabaseFormatError)
    for name in code.co_names:
        if name not in env:
            raise DatabaseFormatError(f"unknown name {name!r} in {text!r}")
    bound = {k: integer(env[k], f"name {k!r}", DatabaseFormatError) for k in code.co_names}
    return eval(code, {"__builtins__": {}}, bound)


def _check_expr(text: str, kind: str, names: Sequence[str]) -> None:
    """Compile a record expression at load time; check its names and kind."""
    code, got = _compile(text)
    for name in code.co_names:
        if name not in names:
            raise DatabaseFormatError(f"unknown name {name!r} in {text!r}")
    if got != kind:
        raise DatabaseFormatError(f"{kind} expected, got {got} in {text!r}")


class OrbitSchema(NamedTuple):
    kind: str
    dim: str
    ident: str = ""
    note: str = ""


class RelationEdge(NamedTuple):
    op: str
    to: str
    label: str = ""


class RecordSchema(NamedTuple):
    """One classification entry, dimensions still symbolic in n."""

    name: str
    case: str
    source: str
    item: int
    dim: str
    picard: int
    requires: str = ""
    param_names: tuple[str, ...] = ()
    param_constraint: str = ""
    allows_fixed_point: bool = False
    actions: int = 1
    note: str = ""
    orbits: tuple[OrbitSchema, ...] = ()
    relations: tuple[RelationEdge, ...] = ()

    def applies(self, n: int) -> bool:
        n = integer(n, "dimension", InvalidDimension)
        return not self.requires or bool(eval_expr(self.requires, {"n": n}))

    def check_params(self, values: Mapping[str, int]) -> bool:
        mapping(values, "params", ParameterViolation)
        for name in self.param_names:
            if name not in values:
                raise ParameterViolation(f"{self.name!r} needs parameter {name!r}")
        if not self.param_constraint:
            return True
        env = {
            name: integer(values[name], f"parameter {name!r}", ParameterViolation)
            for name in self.param_names
        }
        return bool(eval_expr(self.param_constraint, env))


def _fields(tokens: Sequence[str], allowed: Sequence[str], what: str) -> dict[str, str]:
    """The key=value tokens of an orbit or relation line, by key."""
    fields = dict.fromkeys(allowed, "")
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if not eq:
            raise DatabaseFormatError(f"bad {what} token {tok!r}")
        if key not in fields:
            raise DatabaseFormatError(f"unknown {what} field {key!r}")
        fields[key] = value
    return fields


def _words(value: str, what: str) -> list[str]:
    """The shlex words of an orbit or relation value."""
    try:
        return shlex.split(value)
    except ValueError as exc:
        raise DatabaseFormatError(f"bad {what} line: {exc}") from None


@lru_cache(maxsize=256)
def _parse_orbit(value: str) -> OrbitSchema:
    tokens = _words(value, "orbit")
    if not tokens or tokens[0] not in _ORBIT_KINDS:
        raise DatabaseFormatError(f"orbit kind missing in {value!r}")
    fields = _fields(tokens[1:], OrbitSchema._fields[1:], "orbit")
    if not fields["dim"]:
        raise DatabaseFormatError("orbit needs a dim")
    _check_expr(fields["dim"], "int", ("n",))
    ident = IDENT_RE.match(fields["ident"])
    if ident is not None:
        _check_expr(ident.group(2), "int", ("n",))
    return OrbitSchema(tokens[0], **fields)


def _parse_relation(value: str) -> RelationEdge:
    fields = _fields(_words(value, "relation"), RelationEdge._fields, "relation")
    if not fields["op"] or not fields["to"]:
        raise DatabaseFormatError("relation needs op and to")
    return RelationEdge(**fields)


# The record-level keys in the order they are written, each with the
# type of its field; "params" gives param_names and param_constraint.
_KEYS = {
    "case": str, "source": str, "item": int, "requires": str, "dim": str,
    "picard": int, "params": tuple, "allows_fixed_point": bool, "actions": int, "note": str,
}
_SCALARS = {key: kind for key, kind in _KEYS.items() if key in RecordSchema._fields}  # not params
_scalars = attrgetter(*_SCALARS)
_HEADER = [(key, RecordSchema._field_defaults.get(key)) for key in _KEYS]  # None if required
_NOUNS = {str: "a string", int: "an integer", bool: "a bool", OrbitSchema: "an OrbitSchema",
          RelationEdge: "a RelationEdge"}


class _LineError(Exception):
    """A fault of one line of a block: (index of the line in the block, error)."""


@lru_cache(maxsize=256)
def _parse_block(block: str) -> RecordSchema:
    """The record of one block of stripped significant lines joined by newlines."""
    fields: dict | None = None
    for at, line in enumerate(block.split("\n")):
        key, eq, value = line.partition("=")
        key = key.rstrip()
        value = value.lstrip()
        if eq and key == "record":
            fields = {"name": value, "orbits": (), "relations": ()}
            continue
        try:
            if not eq:
                raise DatabaseFormatError("expected key = value")
            if fields is None:
                raise DatabaseFormatError(f"{key!r} outside a record")
            if key == "orbit":
                fields["orbits"] += (_parse_orbit(value),)
                continue
            if key == "relation":
                fields["relations"] += (_parse_relation(value),)
                continue
            if key not in _KEYS:
                raise DatabaseFormatError(f"unknown key {key!r}")
            if key == "params":
                names, _, constraint = value.partition(";")
                param_names = tuple(t.strip() for t in names.split(",") if t.strip())
                for name in param_names:
                    if _UNSAFE_PARAM(name):  # whitespace inside; the split took "," and ";"
                        raise DatabaseFormatError(f"bad params name {name!r}")
                repeated = [name for i, name in enumerate(param_names) if name in param_names[:i]]
                if repeated:
                    raise DatabaseFormatError(f"duplicate params name {repeated[0]!r}")
                constraint = constraint.strip()
                if constraint:
                    _check_expr(constraint, "bool", param_names)
                value = param_names, constraint
            elif key == "dim":
                _check_expr(value, "int", ("n",))
            elif key == "requires" and value:
                _check_expr(value, "bool", ("n",))
            elif _KEYS[key] is bool:
                if value not in ("yes", "no"):
                    raise DatabaseFormatError(f"{key} must be yes or no, got {value!r}")
                value = value == "yes"
            if key in fields:  # after the value's own check, which names a bad value first
                raise DatabaseFormatError(f"duplicate key {key!r}")
            fields[key] = value
        except DatabaseFormatError as exc:
            raise _LineError(at, exc) from None
    try:
        for key in _SCALARS:
            if key not in fields and key not in RecordSchema._field_defaults:
                raise DatabaseFormatError(f"missing {key}")
        for key, known in (("case", _CASES), ("source", _SOURCES)):
            if fields[key] not in known:
                raise DatabaseFormatError(f"unknown {key} {fields[key]!r}")
        for key, kind in _SCALARS.items():
            if kind is int and key in fields:
                try:
                    if not _INTEGER(fields[key]):  # int() also takes "+5", "1_0" and "٣"
                        raise ValueError
                    fields[key] = int(fields[key])
                except ValueError:
                    raise DatabaseFormatError(f"{key} {fields[key]!r} is not an integer") from None
    except DatabaseFormatError as exc:
        raise DatabaseFormatError(f"record {fields['name']!r}: {exc}") from None
    if "params" in fields:
        fields["param_names"], fields["param_constraint"] = fields.pop("params")
    return RecordSchema(**fields)


# A block starts at each ``record =`` line: "record", whitespace, "=".
_BLOCKS = re.compile(r"\n(?=record[^\S\n]*=)").split


def _blocks(text: str) -> list[str]:
    """The record blocks of a text: its stripped lines but blanks and
    comments, joined by newlines and cut before each ``record =`` line."""
    lines = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    return _BLOCKS("\n".join(lines)) if lines else []  # lines ahead of a record fail


# The records of the last 8 database texts parsed or written, by text,
# oldest first.  Eviction pops with a default, so threads evicting at
# once raise nothing.
_TEXTS: dict[str, tuple[RecordSchema, ...]] = {}
_TEXTS_MAX = 8


def _remember(text: str, records: tuple[RecordSchema, ...]) -> tuple[RecordSchema, ...]:
    _TEXTS[text] = records
    if len(_TEXTS) > _TEXTS_MAX:
        for old in list(_TEXTS)[:-_TEXTS_MAX]:
            _TEXTS.pop(old, None)
    return records


def parse_records(text: str) -> tuple[RecordSchema, ...]:
    if not isinstance(text, str):  # before the memo, which could not hash a list
        raise DatabaseFormatError(f"database text must be a str, got {type(text).__name__}")
    records = _TEXTS.get(text)
    return records if records is not None else _remember(text, _parse_text(text))


def _parse_text(text: str) -> tuple[RecordSchema, ...]:
    """The records of a whole database text."""
    blocks = _blocks(text)
    records: list[RecordSchema] = []
    for i, block in enumerate(blocks):
        try:
            records.append(_parse_block(block))
        except _LineError as exc:
            at, error = exc.args
            at += sum(b.count("\n") + 1 for b in blocks[:i])
            significant = [no for no, line in enumerate(map(str.strip, text.splitlines()), 1)
                           if line and line[0] != "#"]  # the number of each line _blocks keeps
            raise DatabaseFormatError(f"line {significant[at]}: {error}") from None
    if not records:
        raise DatabaseFormatError("no records found")
    return tuple(records)


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# A bare orbit dim or ident must not split into words or lose an edge
# to the line strip, so any whitespace, quote or backslash quotes it.
_NEEDS_QUOTES = re.compile(r"""[\s'"\\]""").search


def _word(text: str) -> str:
    return _quote(text) if _NEEDS_QUOTES(text) else text


# Records that passed _check_types with their text, by id, emptied when
# full.  Holding a record keeps its id from being reused.  An
# equality-keyed memo could not skip the check: tuple(rec) == rec, and a
# record with item=True equals one with item=1.
_CHECKED: dict[int, tuple[RecordSchema, str]] = {}
_CHECKED_MAX = 256


def _check_types(rec: RecordSchema) -> str:
    """The text of a record, refusing one with a value of another type
    than declared, which would parse back changed or could not key the
    per-record caches.

    Types must match exactly, subclasses refused: two records that pass
    and compare equal then hold identical values.  Then the record's text
    must parse back to it, so a record built in code meets every check
    of the parser.
    """
    checked = _CHECKED.get(id(rec))
    if checked is not None and checked[0] is rec:
        return checked[1]
    if type(rec) is not RecordSchema:
        raise DatabaseFormatError(f"cannot write {shown(rec)}: not a RecordSchema")
    for value, kind in zip(_scalars(rec), _SCALARS.values()):
        if type(value) is not kind:
            raise DatabaseFormatError(f"cannot write {shown(value)}: not {_NOUNS[kind]}")
    for parts, kind in ((rec.param_names, str), (rec.orbits, OrbitSchema),
                        (rec.relations, RelationEdge)):
        if type(parts) is not tuple:
            raise DatabaseFormatError(f"cannot write {shown(parts)}: not a tuple")
        for part in parts:
            if type(part) is not kind:
                raise DatabaseFormatError(f"cannot write {shown(part)}: not {_NOUNS[kind]}")
    for part in ((rec.name, rec.param_constraint), *rec.orbits, *rec.relations):
        for value in part:  # each field of an orbit or relation is a string
            if type(value) is not str:
                raise DatabaseFormatError(f"cannot write {shown(value)}: not a string")
    text = _record_text(rec)
    try:  # the parser judges the record's text, so every parse-time check applies
        back = tuple(map(_parse_block, _blocks(text)))
    except _LineError as exc:
        raise DatabaseFormatError(f"record {rec.name!r}: {exc.args[1]}") from None
    if back != (rec,):
        raise DatabaseFormatError(f"record {rec.name!r}: its text parses back changed")
    if len(_CHECKED) >= _CHECKED_MAX:
        _CHECKED.clear()
    _CHECKED[id(rec)] = rec, text
    return text


def _each(records: Iterable[RecordSchema]) -> Iterator[RecordSchema]:
    """iter(records); a value that cannot be iterated is a DatabaseFormatError."""
    try:
        return iter(records)
    except TypeError:
        raise DatabaseFormatError(
            f"records must be an iterable, got {type(records).__name__}"
        ) from None


def _record_text(rec: RecordSchema) -> str:
    """The lines of a record that passed _check_types, each ending in a line break."""
    # The parser splits a file with str.splitlines and strips each
    # record-level value, so a value must pass both unchanged.
    for value in (rec.name, rec.param_constraint, *_scalars(rec)):
        if type(value) is str and (len(value.splitlines()) > 1 or value != value.strip()):
            raise DatabaseFormatError(
                f"cannot write {value!r}: not one line without edge whitespace"
            )
    for name in rec.param_names:
        if not name or _UNSAFE_PARAM(name):
            raise DatabaseFormatError(f"cannot write params name {name!r}")
    lines = [f"record = {rec.name}"]
    try:
        for key, default in _HEADER:
            if key == "params":
                if rec.param_names or rec.param_constraint:
                    names = ", ".join(rec.param_names)
                    lines.append(f"params = {names} ; {rec.param_constraint}".rstrip())
            elif (value := getattr(rec, key)) != default:
                lines.append(f"{key} = {'yes' if value is True else value}")
    except ValueError as exc:  # an integer with more digits than str writes
        raise DatabaseFormatError(f"cannot write an integer: {exc}") from None
    for orb in rec.orbits:
        if orb.kind not in _ORBIT_KINDS:
            raise DatabaseFormatError(f"cannot write orbit kind {orb.kind!r}")
        parts = [orb.kind, f"dim={_word(orb.dim)}"]
        if orb.ident:
            parts.append(f"ident={_word(orb.ident)}")
        if orb.note:
            parts.append(f"note={_quote(orb.note)}")
        lines.append("orbit = " + " ".join(parts))
    for rel in rec.relations:
        parts = [f"op={_quote(rel.op)}", f"to={_quote(rel.to)}"]
        if rel.label:
            parts.append(f"label={_quote(rel.label)}")
        lines.append("relation = " + " ".join(parts))
    lines.append("")
    return "\n".join(lines)


def serialize_records(records: Iterable[RecordSchema]) -> str:
    """The text of the records, stored in the text memo: each record's text
    parses back to it alone and none but its first line starts a block."""
    records = tuple(_each(records))
    text = "\n".join(map(_check_types, records))
    if records:  # no text of no records: parsing "" raises
        _remember(text, records)
    return text
