"""Command-line front end.

Every subcommand is one entry of the COMMANDS table: help text,
arguments, handler and text layout.  The handler builds one JSON payload.
With --json it is printed as a single JSON document; otherwise its stable
line-oriented text form is rendered from that payload through the
command's layout, so the two modes cannot disagree.  run() reads a plain
argv (exact option names, each once, values that convert) straight from
the COMMANDS table and imports argparse only for help, usage errors and
any other argv, which it parses with every subparser built; both paths
give the same namespace.  The handlers reach the library through the
package's lazy re-exports, so a command loads only the modules it uses.
Exit codes: 0 success, 1 domain errors (named on stderr), 2 usage errors.
"""

from __future__ import annotations

import os
import sys
import warnings
from collections import namedtuple
from collections.abc import Callable, Sequence
from types import SimpleNamespace

import lieflag

from .errors import AnswerTooLong, DomainError, shown
from .roots import Weight, dynkin_type  # on every command's path


class UsageError(Exception):
    """A bad argument value; args are (flag, message)."""


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise UsageError(flag, f"expected comma-separated integers, got {text!r}") from None


def _checked(flag: str, build: Callable, *values):
    """``build(*values)``, a DomainError it raises reported as a usage error of flag."""
    try:
        return build(*values)
    except DomainError as exc:
        raise UsageError(flag, str(exc)) from None


# Every argument a command can take; a command names the ones it takes, in order.
_ARGUMENTS = {
    "type": {},
    **dict.fromkeys(("--nodes", "--weight", "--c1", "--variety"), {"required": True}),
    **dict.fromkeys(("--node", "--power", "--kmax", "--dim"), {"required": True, "type": int}),
    "--group": {"required": True, "choices": ("SL", "Sp", "Spin", "G2")},
    "--param": {"type": int, "default": 0},
    "--quasihomogeneous": {"action": "store_true"},
    "--case": {"choices": ("SL", "Sp", "Spin", "SL3Q"), "default": None},
    "--params": {"default": ""},
}


def _cmd_roots(args) -> dict:
    roots = lieflag.positive_roots(args.type)
    return {"count": len(roots), "roots": [list(r) for r in roots]}


def _cmd_dim_group(args) -> dict:
    return {"dim": lieflag.group_dimension(args.type)}


def _cmd_parabolic(args) -> dict:
    mk = _checked("--nodes", lieflag.marking, args.type, _parse_ints(args.nodes, "--nodes"))
    hv = lieflag.parabolic.homogeneous_variety(mk)
    return {"nodes": list(mk.nodes), "dim": hv.dim, "picard": hv.picard_rank,
            "identification": hv.identification.label() if hv.identification else None}


def _cmd_rmin(args) -> dict:
    best = lieflag.r_min(args.type)
    return {"r": best.value, "nodes": list(best.nodes)}


def _cmd_minimal_homogeneous(args) -> dict:
    varieties = [{"node": hv.marking.nodes[0], "dim": hv.dim, "picard": hv.picard_rank,
                  "identification": hv.identification.label() if hv.identification else None}
                 for hv in lieflag.minimal_homogeneous_varieties(args.type)]
    return {"r": lieflag.r_min(args.type).value, "count": len(varieties), "varieties": varieties}


def _cmd_fano_index(args) -> dict:
    mk = _checked("--node", lieflag.marking, args.type, (args.node,))
    return {"node": args.node, "index": lieflag.fano_index(mk),
            "conormal_range": list(lieflag.admissible_conormal_range(mk))}


def _cmd_weyl_dim(args) -> dict:
    w = _checked("--weight", Weight, args.type, _parse_ints(args.weight, "--weight"))
    return {"weight": list(w.coords), "dim": lieflag.weyl_dim(w)}


def _cmd_min_irrep(args) -> dict:
    best = lieflag.min_nontrivial_irrep(args.type)
    return {"dim": best.dim, "nodes": list(best.nodes), "weight": list(best.weight.coords)}


def _bundle(args, count: str) -> tuple:
    """The marking and weight of bwb or hilbert, once its count argument is checked."""
    mk = _checked("--nodes", lieflag.marking, args.type, _parse_ints(args.nodes, "--nodes"))
    w = _checked("--weight", Weight, args.type, _parse_ints(args.weight, "--weight"))
    if getattr(args, count) < 1:
        raise UsageError(f"--{count}", f"{count} must be >= 1")
    return mk, w


def _cmd_bwb(args) -> dict:
    mk, w = _bundle(args, "power")
    return {"nodes": list(mk.nodes), "weight": list(w.coords), "power": args.power,
            "dim": lieflag.bwb_section_dim(mk, w, args.power)}


def _cmd_cone_cover(args) -> dict:
    c1 = _parse_ints(args.c1, "--c1")
    return {"c1": list(c1), "order": lieflag.cone_cover_order(c1)}


def _cmd_hilbert(args) -> dict:
    mk, w = _bundle(args, "kmax")
    if args.kmax <= lieflag.cone.MAX_K_MAX:  # the values grow with k: check the last first
        largest = lieflag.bwb_section_dim(mk, w, args.kmax)
        try:
            str(largest)
        except ValueError:
            raise _too_long(largest) from None
    return {"nodes": list(mk.nodes), "weight": list(w.coords),
            "kmax": args.kmax, "values": lieflag.cone_hilbert_function(mk, w, args.kmax)}


_DESCRIPTOR_KEYS = ("name", "case", "source", "item", "n", "dim", "picard", "param_names",
                    "param_constraint", "actions", "orbits", "note")


def _cmd_classify(args) -> dict:
    group = lieflag.GroupSpec(args.group, args.param)
    result = lieflag.classify(
        group, args.dim, quasihomogeneous_only=args.quasihomogeneous, db_path=args.db
    )
    entries = [{**d._asdict(), "orbits": [o._asdict() for o in d.orbits]}
               for d in result.entries]
    return {"group": group.label(), "n": result.n, "verdict": result.verdict,
            "reason": result.reason, "count": len(entries),
            "entries": [{key: e[key] for key in _DESCRIPTOR_KEYS} for e in entries]}


def _cmd_orbits(args) -> dict:
    params: dict[str, int] = {}
    if args.params:
        for item in args.params.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not (eq and key):
                raise UsageError("--params", f"expected k=v, got {item!r}")
            if key in params:
                raise UsageError("--params", f"key {key!r} given twice")
            try:
                params[key] = int(value)
            except ValueError:
                raise UsageError("--params", f"non-integer value in {item!r}") from None
    orbits = lieflag.orbit_structure(args.variety, params, case=args.case, db_path=args.db)
    return {"variety": args.variety, "params": params, "count": len(orbits),
            "orbits": [o._asdict() for o in orbits]}


def _cmd_relations(args) -> dict:
    edges = lieflag.relations(args.variety, db_path=args.db)
    return {"variety": args.variety, "count": len(edges),
            "relations": [{"op": op, "to": to} for op, to in edges]}


def _cmd_validate_db(args) -> dict:
    violations = lieflag.validate_database(db_path=args.db)
    return {"count": len(violations), "violations": [v._asdict() for v in violations]}


# One entry per command, in usage-line order.  ``arguments`` are keys of _ARGUMENTS, and
# ``handler`` maps the parsed namespace to the payload dict.  ``layout`` has one item per
# text line: the payload fields of one line, or a (list key, prefix, fields) triple for one
# line per item of that list; "key=payload_key" renames a field for the text.
Command = namedtuple("Command", "help arguments handler layout")


COMMANDS = {
    "roots": Command("positive roots of a type", "type", _cmd_roots,
                     ["type count", ("roots", "", "root")]),
    "dim-group": Command("dimension of the simple group", "type", _cmd_dim_group, ["type dim"]),
    "parabolic": Command("dimension of G/P for marked nodes", "type --nodes", _cmd_parabolic,
                         ["type nodes dim picard identification"]),
    "rmin": Command("minimal flag-variety dimension", "type", _cmd_rmin, ["type r nodes"]),
    "minimal-homogeneous": Command(
        "minimal flag varieties", "type", _cmd_minimal_homogeneous,
        ["type r count", ("varieties", "", "node dim picard identification")]),
    "fano-index": Command("index of G/P at one node", "type --node", _cmd_fano_index,
                          ["type node index conormal_range"]),
    "weyl-dim": Command("irreducible dimension of a weight", "type --weight", _cmd_weyl_dim,
                        ["type weight dim"]),
    "min-irrep": Command("smallest nontrivial irreducible", "type", _cmd_min_irrep,
                         ["type dim nodes weight"]),
    "bwb": Command("section dimension of a bundle power on G/P", "type --nodes --weight --power",
                   _cmd_bwb, ["type nodes weight power dim"]),
    "cone-cover": Command("cyclic cover order of the punctured bundle", "--c1", _cmd_cone_cover,
                          ["c1 order"]),
    "hilbert": Command("Hilbert function of the cone ring", "type --nodes --weight --kmax",
                       _cmd_hilbert, ["type nodes weight kmax values"]),
    "classify": Command(
        "variety list for a group and dimension", "--group --param --dim --quasihomogeneous",
        _cmd_classify,
        ["group n verdict count", "reason",
         ("entries", "", "name source item n dim picard params=param_names actions orbits "
                         "constraint=param_constraint note")]),
    "orbits": Command("orbit list of a named record", "--variety --case --params", _cmd_orbits,
                      ["variety count", ("orbits", "orbit ", "kind dim identification note")]),
    "relations": Command("blow-up and blow-down edges", "--variety", _cmd_relations,
                         ["variety count", ("relations", "relation ", "op to")]),
    "validate-db": Command(
        "structural rules over the database", "", _cmd_validate_db,
        ["violations=count", ("violations", "violation ", "rule record case message")]),
}


_TUPLE_KEYS = {"weight", "c1", "root"}
_QUOTED_KEYS = {"note", "constraint", "reason", "message", "op"}
_OMITTED_WHEN_EMPTY = {"identification", "note", "constraint", "reason"}
# Verdicts that list no varieties; their text head line carries no count.
_UNLISTED_VERDICTS = {"only_trivial_action", "out_of_covered_range"}


def _format(key: str, value) -> str:
    if value is None:
        return "-"
    if key == "params":
        return ",".join(value) or "-"
    if key == "orbits":
        return "[" + "|".join(
            ":".join(str(o[k]) for k in ("kind", "dim", "identification") if o[k] != "")
            for o in value
        ) + "]"
    if isinstance(value, (list, tuple)):
        inner = ",".join(str(v) for v in value)
        return f"({inner})" if key in _TUPLE_KEYS else f"[{inner}]"
    return f'"{value}"' if key in _QUOTED_KEYS else str(value)


def _too_long(largest: int) -> AnswerTooLong:
    return AnswerTooLong(f"the answer holds {shown(largest)}, more digits than str writes")


def _largest(value) -> int:
    """The largest integer of a payload, 0 if it holds none."""
    if isinstance(value, (dict, list)):
        items = value.values() if isinstance(value, dict) else value
        return max(map(_largest, items), default=0)
    return value if isinstance(value, int) else 0


def _line(fields: str, item: dict) -> str:
    parts = []
    for field in fields.split():
        key, _, source = field.partition("=")
        value = item[source or key]
        if not (value == "" and key in _OMITTED_WHEN_EMPTY):
            parts.append(f"{key}={_format(key, value)}")
    return " ".join(parts)


def _render_text(command: str, payload: dict) -> list[str]:
    """The line-oriented text form of a command's JSON payload."""
    lines = []
    for spec in COMMANDS[command].layout:
        if isinstance(spec, tuple):
            key, prefix, fields = spec
            for row in payload[key]:
                # a row that is not a dict (a root) is the value of its one field
                item = row if isinstance(row, dict) else {fields: row}
                lines.append(prefix + _line(fields, item))
        else:
            if payload.get("verdict") in _UNLISTED_VERDICTS:
                spec = spec.replace(" count", "")
            if line := _line(spec, payload):
                lines.append(line)
    return lines


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, for help, usage errors and argv that are not plain."""
    import argparse

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit one JSON document")
    common.add_argument("--db", default=argparse.SUPPRESS, help="classification database path")

    # SUPPRESS keeps the subparser from re-stamping a default over a value
    # already parsed from before the subcommand; run() fills the fallback.
    parser = argparse.ArgumentParser(prog="lieflag", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=entry.help)
        for argument in entry.arguments.split():
            p.add_argument(argument, **_ARGUMENTS[argument])
    return parser


def _plain_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace build_parser() gives argv, with run()'s json/db fallbacks,
    when argv is plain; None otherwise, leaving argparse to decide.

    Plain: one command word; --json and --db at most once each, before or
    after it; other options exact names of the command, each at most once,
    after it; values as ``--opt value`` or ``--opt=value``, none starting
    with "-"; flags without "="; the type positional exactly once where the
    command takes one; int values that int() converts, values among their
    choices and every required argument given.  Help, abbreviations, "--",
    repeats, negative numbers and stray words are not plain.
    """
    given: dict[str, str | bool] = {}
    command, names = None, []
    options = {"--json": {"action": "store_true"}, "--db": {}}  # as build_parser() adds them
    words = iter(argv)
    for word in words:
        if not word.startswith("-"):
            if command is None and word in COMMANDS:
                command, names = word, COMMANDS[word].arguments.split()
                options.update((name, _ARGUMENTS[name]) for name in names)
            elif "type" in names and "type" not in given:
                given["type"] = word
            else:
                return None
            continue
        option, eq, value = word.partition("=")
        if option not in options or option in given:
            return None
        if options[option].get("action") == "store_true":
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(words, "-")  # a missing value is not plain either
            if value.startswith("-"):
                return None
        given[option] = value
    if command is None:
        return None
    args = SimpleNamespace(command=command, json=given.pop("--json", False),
                           db=given.pop("--db", None))
    for name in names:
        spec = _ARGUMENTS[name]
        if name in given:
            value = given[name]
            if "type" in spec:
                try:
                    value = spec["type"](value)
                except ValueError:
                    return None
            if value not in spec.get("choices", (value,)):
                return None
        elif name == "type" or spec.get("required"):
            return None
        else:
            value = spec.get("default", False)  # a store_true flag defaults to False
        setattr(args, name.lstrip("-"), value)
    return args


def run(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        args.json = getattr(args, "json", False)
        args.db = getattr(args, "db", None)
    try:
        payload = {}
        # parsed here for every command that has one; its payload opens with it
        if hasattr(args, "type"):
            with warnings.catch_warnings(record=True) as caught:  # the D3 notice, as one line
                warnings.simplefilter("always")
                args.type = _checked("TYPE", dynkin_type, args.type)
            for notice in caught:
                print(f"warning: {notice.message}", file=sys.stderr)
            payload["type"] = str(args.type)
        payload.update(COMMANDS[args.command].handler(args))
        try:
            if args.json:
                import json
                out = json.dumps(payload, indent=2)
            else:
                out = "\n".join(_render_text(args.command, payload))
        except ValueError:  # an integer with more digits than str converts
            raise _too_long(_largest(payload)) from None
    except UsageError as exc:
        print("usage error: {}: {}".format(*exc.args), file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 1 if args.command == "validate-db" and payload["violations"] else 0


def main(entry: Callable[[], int | None] = run) -> None:
    """Exit with entry()'s code (None is 0), or with 1 if stdout's reader has gone."""
    try:
        code = entry()
        sys.stdout.flush()  # here, so a closed pipe is not met again at exit
    except BrokenPipeError:  # the reader left; exit as the Python docs' SIGPIPE note does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    main()
