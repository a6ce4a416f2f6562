"""Command-line front end.

Every subcommand builds one JSON payload.  With --json it is printed as a
single JSON document; otherwise its stable line-oriented text form is
rendered from that payload through the per-command layout in _LAYOUT, so
the two modes cannot disagree.  Exit codes: 0 success, 1 domain errors
(named on stderr), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Sequence

from . import classifier, cone, parabolic, representations
from .errors import DomainError
from .roots import DynkinType, Weight, dynkin_type, group_dimension, positive_roots


class UsageError(Exception):
    def __init__(self, flag: str, message: str) -> None:
        super().__init__(message)
        self.flag = flag


def _parse_type(text: str) -> DynkinType:
    try:
        return dynkin_type(text)
    except DomainError as exc:
        raise UsageError("TYPE", str(exc)) from None


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise UsageError(flag, f"expected comma-separated integers, got {text!r}") from None


def _parse_nodes(text: str, dtype: DynkinType, flag: str) -> tuple[int, ...]:
    nodes = _parse_ints(text, flag)
    for i in nodes:
        if not 1 <= i <= dtype.rank:
            raise UsageError(flag, f"node {i} out of range 1..{dtype.rank} for {dtype}")
    return nodes


def _parse_weight(text: str, dtype: DynkinType, flag: str) -> Weight:
    coords = _parse_ints(text, flag)
    if len(coords) != dtype.rank:
        raise UsageError(flag, f"{dtype} needs {dtype.rank} coordinates, got {len(coords)}")
    return Weight(dtype, coords)


def _cmd_roots(args) -> dict:
    roots = positive_roots(args.type)
    return {"type": str(args.type), "count": len(roots), "roots": [list(r) for r in roots]}


def _cmd_dim_group(args) -> dict:
    return {"type": str(args.type), "dim": group_dimension(args.type)}


def _cmd_parabolic(args) -> dict:
    mk = parabolic.marking(args.type, _parse_nodes(args.nodes, args.type, "--nodes"))
    hv = parabolic.homogeneous_variety(mk)
    ident = hv.identification.label() if hv.identification else None
    return {"type": str(args.type), "nodes": list(mk.nodes), "dim": hv.dim,
            "picard": hv.picard_rank, "identification": ident}


def _cmd_rmin(args) -> dict:
    best = parabolic.r_min(args.type)
    return {"type": str(args.type), "r": best.value, "nodes": list(best.nodes)}


def _cmd_minimal_homogeneous(args) -> dict:
    varieties = [
        {"node": hv.marking.nodes[0], "dim": hv.dim, "picard": hv.picard_rank,
         "identification": hv.identification.label() if hv.identification else None}
        for hv in parabolic.minimal_homogeneous_varieties(args.type)
    ]
    return {"type": str(args.type), "r": parabolic.r_min(args.type).value,
            "count": len(varieties), "varieties": varieties}


def _cmd_fano_index(args) -> dict:
    (node,) = _parse_nodes(str(args.node), args.type, "--node")
    mk = parabolic.marking(args.type, (node,))
    return {"type": str(args.type), "node": node, "index": parabolic.fano_index(mk),
            "conormal_range": list(parabolic.admissible_conormal_range(mk))}


def _cmd_weyl_dim(args) -> dict:
    w = _parse_weight(args.weight, args.type, "--weight")
    return {"type": str(args.type), "weight": list(w.coords), "dim": representations.weyl_dim(w)}


def _cmd_min_irrep(args) -> dict:
    best = representations.min_nontrivial_irrep(args.type)
    return {"type": str(args.type), "dim": best.dim, "nodes": list(best.nodes),
            "weight": list(best.weight.coords)}


def _cmd_bwb(args) -> dict:
    nodes = _parse_nodes(args.nodes, args.type, "--nodes")
    w = _parse_weight(args.weight, args.type, "--weight")
    if args.power < 1:
        raise UsageError("--power", "power must be >= 1")
    mk = parabolic.marking(args.type, nodes)
    return {"type": str(args.type), "nodes": list(mk.nodes), "weight": list(w.coords),
            "power": args.power, "dim": representations.bwb_section_dim(mk, w, args.power)}


def _cmd_cone_cover(args) -> dict:
    c1 = _parse_ints(args.c1, "--c1")
    return {"c1": list(c1), "order": cone.cone_cover_order(c1)}


def _cmd_hilbert(args) -> dict:
    nodes = _parse_nodes(args.nodes, args.type, "--nodes")
    w = _parse_weight(args.weight, args.type, "--weight")
    if args.kmax < 1:
        raise UsageError("--kmax", "kmax must be >= 1")
    mk = parabolic.marking(args.type, nodes)
    return {"type": str(args.type), "nodes": list(mk.nodes), "weight": list(w.coords),
            "kmax": args.kmax, "values": cone.cone_hilbert_function(mk, w, args.kmax)}


_DESCRIPTOR_KEYS = ("name", "case", "source", "item", "n", "dim", "picard", "param_names",
                    "param_constraint", "actions", "orbits", "note")


def _cmd_classify(args) -> dict:
    group = classifier.GroupSpec(args.group, args.param)
    result = classifier.classify(
        group, args.dim, quasihomogeneous_only=args.quasihomogeneous, db_path=args.db
    )
    entries = [asdict(d) for d in result.entries]
    return {"group": group.label(), "n": result.n, "verdict": result.verdict,
            "reason": result.reason, "count": len(entries),
            "entries": [{key: e[key] for key in _DESCRIPTOR_KEYS} for e in entries]}


def _cmd_orbits(args) -> dict:
    params: dict[str, int] = {}
    if args.params:
        for item in args.params.split(","):
            if "=" not in item:
                raise UsageError("--params", f"expected k=v, got {item!r}")
            key, value = item.split("=", 1)
            try:
                params[key.strip()] = int(value)
            except ValueError:
                raise UsageError("--params", f"non-integer value in {item!r}") from None
    orbits = classifier.orbit_structure(args.variety, params, case=args.case, db_path=args.db)
    return {"variety": args.variety, "params": params, "count": len(orbits),
            "orbits": [asdict(o) for o in orbits]}


def _cmd_relations(args) -> dict:
    edges = classifier.relations(args.variety, db_path=args.db)
    return {"variety": args.variety, "count": len(edges),
            "relations": [{"op": op, "to": to} for op, to in edges]}


def _cmd_validate_db(args) -> dict:
    violations = classifier.validate_database(db_path=args.db)
    return {"count": len(violations), "violations": [asdict(v) for v in violations]}


# The text form of each command, one entry per output line.  A string lists
# the fields of one line read from the payload; a (list key, prefix, fields)
# triple gives one line per item of that payload list.  A field is "key", or
# "key=payload_key" where the text name differs from the JSON one.
_LAYOUT = {
    "roots": ["type count", ("roots", "", "root")],
    "dim-group": ["type dim"],
    "parabolic": ["type nodes dim picard identification"],
    "rmin": ["type r nodes"],
    "minimal-homogeneous": ["type r count", ("varieties", "", "node dim picard identification")],
    "fano-index": ["type node index conormal_range"],
    "weyl-dim": ["type weight dim"],
    "min-irrep": ["type dim nodes weight"],
    "bwb": ["type nodes weight power dim"],
    "cone-cover": ["c1 order"],
    "hilbert": ["type nodes weight kmax values"],
    "classify": [
        "group n verdict count",
        "reason",
        ("entries", "", "name source item n dim picard params=param_names actions orbits "
                        "constraint=param_constraint note"),
    ],
    "orbits": ["variety count", ("orbits", "orbit ", "kind dim identification note")],
    "relations": ["variety count", ("relations", "relation ", "op to")],
    "validate-db": ["violations=count", ("violations", "violation ", "rule record case message")],
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
    for spec in _LAYOUT[command]:
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit one JSON document",
    )
    common.add_argument(
        "--db", default=argparse.SUPPRESS, help="classification database path"
    )

    # SUPPRESS keeps the subparser from re-stamping a default over a value
    # already parsed from before the subcommand; run() fills the fallback.
    parser = argparse.ArgumentParser(prog="lieflag", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, handler, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = cmd("roots", _cmd_roots, help="positive roots of a type")
    p.add_argument("type")
    p = cmd("dim-group", _cmd_dim_group, help="dimension of the simple group")
    p.add_argument("type")
    p = cmd("parabolic", _cmd_parabolic, help="dimension of G/P for marked nodes")
    p.add_argument("type")
    p.add_argument("--nodes", required=True)
    p = cmd("rmin", _cmd_rmin, help="minimal flag-variety dimension")
    p.add_argument("type")
    p = cmd("minimal-homogeneous", _cmd_minimal_homogeneous, help="minimal flag varieties")
    p.add_argument("type")
    p = cmd("fano-index", _cmd_fano_index, help="index of G/P at one node")
    p.add_argument("type")
    p.add_argument("--node", required=True, type=int)
    p = cmd("weyl-dim", _cmd_weyl_dim, help="irreducible dimension of a weight")
    p.add_argument("type")
    p.add_argument("--weight", required=True)
    p = cmd("min-irrep", _cmd_min_irrep, help="smallest nontrivial irreducible")
    p.add_argument("type")
    p = cmd("bwb", _cmd_bwb, help="section dimension of a bundle power on G/P")
    p.add_argument("type")
    p.add_argument("--nodes", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--power", required=True, type=int)
    p = cmd("cone-cover", _cmd_cone_cover, help="cyclic cover order of the punctured bundle")
    p.add_argument("--c1", required=True)
    p = cmd("hilbert", _cmd_hilbert, help="Hilbert function of the cone ring")
    p.add_argument("type")
    p.add_argument("--nodes", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--kmax", required=True, type=int)
    p = cmd("classify", _cmd_classify, help="variety list for a group and dimension")
    p.add_argument("--group", required=True, choices=("SL", "Sp", "Spin", "G2"))
    p.add_argument("--param", type=int, default=0)
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--quasihomogeneous", action="store_true")
    p = cmd("orbits", _cmd_orbits, help="orbit list of a named record")
    p.add_argument("--variety", required=True)
    p.add_argument("--case", choices=("SL", "Sp", "Spin", "SL3Q"), default=None)
    p.add_argument("--params", default="")
    p = cmd("relations", _cmd_relations, help="blow-up and blow-down edges")
    p.add_argument("--variety", required=True)
    cmd("validate-db", _cmd_validate_db, help="structural rules over the database")

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.json = getattr(args, "json", False)
    args.db = getattr(args, "db", None)
    try:
        if "type" in args:  # the TYPE positional, parsed here for every command that has one
            args.type = _parse_type(args.type)
        payload = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc.flag}: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(_render_text(args.command, payload)))
    if args.command == "validate-db" and payload["violations"]:
        return 1
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
