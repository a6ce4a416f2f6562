"""Line-oriented record format for the classification database.

A database file is a sequence of records.  A record starts at a
``record = NAME`` line and collects the following ``key = value`` lines
until the next record; ``#`` lines are comments and blank lines are
ignored.  Dimensions may be closed integer expressions in ``n`` (the
ambient dimension); parameter constraints are boolean expressions over
the declared parameter names.  Parsing then serializing then parsing is
the identity on the record list.
"""

from __future__ import annotations

import ast
import re
import shlex
from dataclasses import dataclass, replace
from functools import lru_cache
from types import CodeType
from typing import Mapping, Sequence

from .errors import DatabaseFormatError

_SOURCES = ("Prop3.1", "Thm4.1", "Thm5.4")
_CASES = ("SL", "Sp", "Spin", "SL3Q")
_ORBIT_KINDS = ("open", "closed", "intermediate", "fixed")

# Orbit identifications P^k / Q^k, with k an integer expression in n.
IDENT_RE = re.compile(r"^([PQ])\^\{?([0-9n+\- ]+)\}?$")

_ALLOWED_NODES = (
    ast.Expression,
    ast.BoolOp,
    ast.And,
    ast.Or,
    ast.UnaryOp,
    ast.Not,
    ast.USub,
    ast.BinOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Compare,
    ast.Eq,
    ast.NotEq,
    ast.Lt,
    ast.LtE,
    ast.Gt,
    ast.GtE,
    ast.Name,
    ast.Load,
    ast.Constant,
    ast.Tuple,
)


def _scalar(node: ast.expr, text: str) -> str:
    kind = _kind(node, text)
    if kind == "tuple":
        raise DatabaseFormatError(f"tuple outside == or != in {text!r}")
    return kind


def _kind(node: ast.expr, text: str) -> str:
    """Value kind of a whitelisted node: "int", "bool" or "tuple".

    Tuples are legal only as operands of == and != and hold only scalars,
    so an expression that passes cannot fail once its names are bound.
    """
    if isinstance(node, ast.Constant):
        return "bool" if isinstance(node.value, bool) else "int"
    if isinstance(node, ast.Name):
        return "int"
    if isinstance(node, ast.Tuple):
        for elt in node.elts:
            _scalar(elt, text)
        return "tuple"
    if isinstance(node, ast.UnaryOp):
        _scalar(node.operand, text)
        return "bool" if isinstance(node.op, ast.Not) else "int"
    if isinstance(node, ast.BinOp):
        _scalar(node.left, text)
        _scalar(node.right, text)
        return "int"
    if isinstance(node, ast.BoolOp):
        for value in node.values:
            _scalar(value, text)
        return "bool"
    kinds = [_kind(o, text) for o in (node.left, *node.comparators)]
    for op, left, right in zip(node.ops, kinds, kinds[1:]):
        if "tuple" in (left, right) and not isinstance(op, (ast.Eq, ast.NotEq)):
            raise DatabaseFormatError(f"tuple outside == or != in {text!r}")
    return "bool"


@lru_cache(maxsize=1024)
def _compile(text: str) -> tuple[CodeType, str]:
    """Checked code object of an expression, plus the kind of its value."""
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise DatabaseFormatError(f"bad expression {text!r}: {exc}") from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise DatabaseFormatError(
                f"disallowed syntax {type(node).__name__} in {text!r}"
            )
        if isinstance(node, ast.Constant) and not isinstance(node.value, int):
            raise DatabaseFormatError(f"non-integer constant in {text!r}")
    try:
        kind = _kind(tree.body, text)
        code = compile(tree, "<record>", "eval")
    except RecursionError:
        raise DatabaseFormatError(f"expression nested too deeply: {text!r}") from None
    return code, kind


def eval_expr(text: str, env: Mapping[str, int]):
    """Evaluate a small integer/boolean expression over named integers."""
    code, _ = _compile(text)
    for name in code.co_names:
        if name not in env:
            raise DatabaseFormatError(f"unknown name {name!r} in {text!r}")
    return eval(code, {"__builtins__": {}}, dict(env))


def _check_expr(text: str, kind: str, names: Sequence[str], where: str) -> None:
    """Compile a record expression at load time; check its names and kind."""
    try:
        code, got = _compile(text)
    except DatabaseFormatError as exc:
        raise DatabaseFormatError(f"{where}: {exc}") from None
    for name in code.co_names:
        if name not in names:
            raise DatabaseFormatError(f"{where}: unknown name {name!r} in {text!r}")
    if got != kind:
        raise DatabaseFormatError(f"{where}: {kind} expected, got {got} in {text!r}")


def _int(value: str, key: str, where: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise DatabaseFormatError(f"{where}: {key} {value!r} is not an integer") from None


@dataclass(frozen=True)
class OrbitSchema:
    kind: str
    dim: str
    ident: str = ""
    note: str = ""


@dataclass(frozen=True)
class RelationEdge:
    op: str
    to: str
    label: str = ""


@dataclass(frozen=True)
class RecordSchema:
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
        if not self.requires:
            return True
        return bool(eval_expr(self.requires, {"n": n}))

    def check_params(self, values: Mapping[str, int]) -> bool:
        if not self.param_constraint:
            return True
        env = {name: int(values[name]) for name in self.param_names}
        return bool(eval_expr(self.param_constraint, env))


def _parse_orbit(value: str, where: str) -> OrbitSchema:
    try:
        tokens = shlex.split(value)
    except ValueError as exc:
        raise DatabaseFormatError(f"{where}: bad orbit line: {exc}") from None
    if not tokens or tokens[0] not in _ORBIT_KINDS:
        raise DatabaseFormatError(f"{where}: orbit kind missing in {value!r}")
    kind = tokens[0]
    fields = {"dim": "", "ident": "", "note": ""}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise DatabaseFormatError(f"{where}: bad orbit token {tok!r}")
        k, v = tok.split("=", 1)
        if k not in fields:
            raise DatabaseFormatError(f"{where}: unknown orbit field {k!r}")
        fields[k] = v
    if not fields["dim"]:
        raise DatabaseFormatError(f"{where}: orbit needs a dim")
    _check_expr(fields["dim"], "int", ("n",), where)
    ident = IDENT_RE.match(fields["ident"])
    if ident is not None:
        _check_expr(ident.group(2), "int", ("n",), where)
    return OrbitSchema(kind, fields["dim"], fields["ident"], fields["note"])


def _parse_relation(value: str, where: str) -> RelationEdge:
    try:
        tokens = shlex.split(value)
    except ValueError as exc:
        raise DatabaseFormatError(f"{where}: bad relation line: {exc}") from None
    fields = {"op": "", "to": "", "label": ""}
    for tok in tokens:
        if "=" not in tok:
            raise DatabaseFormatError(f"{where}: bad relation token {tok!r}")
        k, v = tok.split("=", 1)
        if k not in fields:
            raise DatabaseFormatError(f"{where}: unknown relation field {k!r}")
        fields[k] = v
    if not fields["op"] or not fields["to"]:
        raise DatabaseFormatError(f"{where}: relation needs op and to")
    return RelationEdge(fields["op"], fields["to"], fields["label"])


def parse_records(text: str) -> tuple[RecordSchema, ...]:
    records: list[RecordSchema] = []
    current: dict | None = None
    orbits: list[OrbitSchema] = []
    relations: list[RelationEdge] = []

    def close() -> None:
        nonlocal current, orbits, relations
        if current is None:
            return
        where = f"record {current.get('name', '?')!r}"
        for key in ("case", "source", "item", "dim", "picard"):
            if key not in current:
                raise DatabaseFormatError(f"{where}: missing {key}")
        if current["case"] not in _CASES:
            raise DatabaseFormatError(f"{where}: unknown case {current['case']!r}")
        if current["source"] not in _SOURCES:
            raise DatabaseFormatError(
                f"{where}: unknown source {current['source']!r}"
            )
        records.append(
            RecordSchema(
                name=current["name"],
                case=current["case"],
                source=current["source"],
                item=_int(current["item"], "item", where),
                dim=current["dim"],
                picard=_int(current["picard"], "picard", where),
                requires=current.get("requires", ""),
                param_names=tuple(current.get("param_names", ())),
                param_constraint=current.get("param_constraint", ""),
                allows_fixed_point=current.get("allows_fixed_point", "no") == "yes",
                actions=_int(current.get("actions", "1"), "actions", where),
                note=current.get("note", ""),
                orbits=tuple(orbits),
                relations=tuple(relations),
            )
        )
        current = None
        orbits = []
        relations = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DatabaseFormatError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "record":
            close()
            current = {"name": value}
            continue
        if current is None:
            raise DatabaseFormatError(f"line {lineno}: {key!r} outside a record")
        where = f"line {lineno}"
        if key == "orbit":
            orbits.append(_parse_orbit(value, where))
        elif key == "relation":
            relations.append(_parse_relation(value, where))
        elif key == "params":
            names, _, constraint = value.partition(";")
            param_names = tuple(t.strip() for t in names.split(",") if t.strip())
            constraint = constraint.strip()
            if constraint:
                _check_expr(constraint, "bool", param_names, where)
            current["param_names"] = param_names
            current["param_constraint"] = constraint
        elif key in (
            "case",
            "source",
            "item",
            "dim",
            "picard",
            "requires",
            "allows_fixed_point",
            "actions",
            "note",
        ):
            if key == "dim":
                _check_expr(value, "int", ("n",), where)
            elif key == "requires" and value:
                _check_expr(value, "bool", ("n",), where)
            current[key] = value
        else:
            raise DatabaseFormatError(f"line {lineno}: unknown key {key!r}")
    close()
    if not records:
        raise DatabaseFormatError("no records found")
    return tuple(records)


def _quote(text: str) -> str:
    return '"' + text.replace('"', r"\"") + '"'


def serialize_records(records: Sequence[RecordSchema]) -> str:
    lines: list[str] = []
    for rec in records:
        lines.append(f"record = {rec.name}")
        lines.append(f"case = {rec.case}")
        lines.append(f"source = {rec.source}")
        lines.append(f"item = {rec.item}")
        if rec.requires:
            lines.append(f"requires = {rec.requires}")
        lines.append(f"dim = {rec.dim}")
        lines.append(f"picard = {rec.picard}")
        if rec.param_names:
            names = ", ".join(rec.param_names)
            lines.append(f"params = {names} ; {rec.param_constraint}".rstrip())
        if rec.allows_fixed_point:
            lines.append("allows_fixed_point = yes")
        if rec.actions != 1:
            lines.append(f"actions = {rec.actions}")
        if rec.note:
            lines.append(f"note = {rec.note}")
        for orb in rec.orbits:
            parts = [orb.kind, f"dim={orb.dim}"]
            if orb.ident:
                parts.append(f"ident={orb.ident}")
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


def with_orbits(rec: RecordSchema, orbits: Sequence[OrbitSchema]) -> RecordSchema:
    """Copy of a record with its orbit list replaced (test fault injection)."""
    return replace(rec, orbits=tuple(orbits))
