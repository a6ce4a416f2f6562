"""Queryable classification of low-dimensional simple-group actions.

The verdict ladder is driven by the minimal flag-variety dimension r of
the acting group: below r only the trivial action exists, at r the
variety is one of the minimal flag varieties, at r+1 the answer is the
record list shipped in the classification database, and at r+2 the
database covers exactly the quasihomogeneous fourfolds of SL(3).
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Mapping, Sequence
from functools import cached_property, lru_cache

from . import roots
from .errors import (
    DatabaseFormatError,
    InvalidDimension,
    InvalidGroup,
    ParameterViolation,
    UnknownVariety,
    integer,
    mapping,
    shown,
)
from .parabolic import (
    codim_parabolic,
    minimal_homogeneous_varieties,
    named_marking,
    r_min,
)
from .records import IDENT_RE, RecordSchema, _check_types, _each, eval_expr, parse_records
from .roots import DynkinType, _make_validated

DB_ENV_VAR = "LIEFLAG_DB"
# A .get on os.environ raises and catches KeyError when the variable is
# unset (~0.85 us, a third of a classify beyond r); every os.environ write
# updates _data under the encoded key, so one dict probe reads the same value.
_ENVIRON = os.environ
_ENV_KEY = os.environ.encodekey(DB_ENV_VAR)


class GroupSpec(namedtuple("GroupSpec", "family parameter")):
    """A classical simple group named the way the record lists name it."""

    __slots__ = ()
    _make = _make_validated

    def __new__(cls, family: str, parameter: int = 0) -> "GroupSpec":
        f, p = family, integer(parameter, "group parameter", InvalidGroup)
        if f == "SL":
            if p < 2:
                raise InvalidGroup(f"SL needs parameter >= 2, got {shown(p)}")
        elif f == "Sp":
            if p < 4 or p % 2:
                raise InvalidGroup(f"Sp needs an even parameter >= 4, got {shown(p)}")
        elif f == "Spin":
            if p < 5:
                raise InvalidGroup(f"Spin needs parameter >= 5, got {shown(p)}")
        elif f != "G2":
            raise InvalidGroup(f"unknown family {shown(f)}")
        return tuple.__new__(cls, (family, p))

    def resolve(self) -> tuple[str, "GroupSpec"]:
        """Case label plus the group after the low-rank spin aliases."""
        if self.family == "Spin" and self.parameter == 5:
            return "Sp", GroupSpec("Sp", 4)
        if self.family == "Spin" and self.parameter == 6:
            return "SL", GroupSpec("SL", 4)
        return self.family, self

    def dynkin(self) -> DynkinType:
        case, g = self.resolve()
        if case == "SL":
            return DynkinType("A", g.parameter - 1)
        if case == "Sp":
            return DynkinType("C", g.parameter // 2)
        if case == "G2":
            return DynkinType("G", 2)
        m = g.parameter
        return DynkinType("B", m // 2) if m % 2 else DynkinType("D", m // 2)

    def label(self) -> str:
        if self.family == "G2":
            return "G2"
        return f"{self.family}({shown(self.parameter)})"

    def __repr__(self) -> str:
        return f"GroupSpec(family={self.family!r}, parameter={shown(self.parameter)})"


def group_spec(family: str, parameter: int = 0) -> GroupSpec:
    return GroupSpec(family, parameter)


def _db_key(path: str | None) -> tuple | None:
    """None for the shipped file, else the (path, mtime_ns, ctime_ns, size) its load is
    memoised under.  ctime moves on every write, also one whose mtime is put back
    (``cp -p``, ``touch -r``); mtime stays, as Windows gives the creation time as ctime.

    A path of None reads LIEFLAG_DB on every call, from the ``os.environ``
    object bound at import (so ``os.putenv`` alone is not seen); unset or
    empty means the shipped file."""
    if path is None:
        value = _ENVIRON._data.get(_ENV_KEY)
        path = _ENVIRON.decodevalue(value) if value else None
    if path is None:
        return None
    try:
        path = os.fspath(path)  # an integer would be taken as a file descriptor
    except TypeError:
        raise DatabaseFormatError(f"cannot read database {shown(path)}: not a path") from None
    try:
        st = os.stat(path)
        return path, st.st_mtime_ns, st.st_ctime_ns, st.st_size
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte or an unencodable name
        raise DatabaseFormatError(f"cannot read database {path!r}: {exc}") from None


class _Database(dict):
    """One loaded database: its records, its name index, built on first use,
    and as its items the sorted case lists asked for so far by ``(case, n)``,
    so a repeated list is one dict lookup."""

    def __init__(self, records: tuple[RecordSchema, ...]) -> None:
        super().__init__()
        self.records = records

    def __missing__(self, key: tuple[str, int]) -> tuple[VarietyDescriptor, ...]:
        """The records of case ``key[0]`` that apply at n = ``key[1]``, in list order."""
        case, n = key
        kept = [d for r in self.records if r.case == case and (d := _instantiate(r, n)) is not None]
        self[key] = entries = tuple(sorted(kept, key=lambda d: (d.item, d.name)))
        return entries

    @cached_property
    def by_name(self) -> dict[str, tuple[tuple[RecordSchema, ...], tuple[tuple[str, str], ...]]]:
        """Every record or instance name with its records and the edges from it,
        in record order; built on first use, so a database that is only
        classified or validated is never indexed."""
        index: dict[str, tuple[list, list]] = {}
        for rec in self.records:
            index.setdefault(rec.name, ([], []))[0].append(rec)
            for rel in rec.relations:
                index.setdefault(rel.label or rec.name, ([], []))[1].append((rel.op, rel.to))
                index.setdefault(rel.to, ([], []))
        return {name: (tuple(recs), tuple(edges)) for name, (recs, edges) in index.items()}


# The shipped file shares the bound with the files given by path; the stat
# fields in a path's key make an edited file re-read, and a database's case
# lists and name index are dropped with it.
@lru_cache(maxsize=8)
def _load(key: tuple | None) -> _Database:
    """The database of the shipped file (key None) or of the file at key[0]."""
    if key is None:
        path = os.path.join(os.path.dirname(__file__), "data", "classification.db")
        return _Database(parse_records(__spec__.loader.get_data(path).decode("utf-8")))
    try:
        with open(key[0], "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DatabaseFormatError(f"cannot read database {key[0]!r}: {exc}") from None
    return _Database(parse_records(text))


def load_database(path: str | None = None) -> tuple[RecordSchema, ...]:
    """Shipped records, or the file named by the argument / environment."""
    return _load(_db_key(path)).records


def _ident_label(ident: str, n: int) -> str:
    """An orbit identification with its P^/Q^ exponent evaluated at n."""
    match = IDENT_RE.match(ident)
    if match is None:
        return ident
    exponent = eval_expr(match.group(2), {"n": n})
    try:
        return f"{match.group(1)}^{exponent}"
    except ValueError:  # more digits than int -> str converts
        raise ParameterViolation(
            f"{ident} at n={shown(n)} has an exponent too long to write"
        ) from None


# An orbit of a record at n: its dim an integer, its P^/Q^ exponent evaluated.
Orbit = namedtuple("Orbit", "kind dim identification note", defaults=("", ""))
VarietyDescriptor = namedtuple(
    "VarietyDescriptor",
    "name case source item n dim picard orbits param_names param_constraint actions note "
    "allows_fixed_point",
    defaults=((), "", 1, "", False),
)
VarietyDescriptor.__doc__ = "One record of the classification, instantiated at a dimension n."


# A record at n is a pure function of frozen values, so classify,
# orbit_structure and validation share one memo of it; an edited database
# gives new keys.
@lru_cache(maxsize=1024)
def _instantiate(rec: RecordSchema, n: int) -> VarietyDescriptor | None:
    """The record instantiated at n, or None where its ``requires`` fails."""
    if not rec.applies(n):
        return None
    env = {"n": n}
    fields = rec._asdict()  # every descriptor field but n is a record field
    fields.update(n=n, dim=int(eval_expr(rec.dim, env)))
    fields["orbits"] = tuple(
        Orbit(o.kind, int(eval_expr(o.dim, env)), _ident_label(o.ident, n) if o.ident else "",
              o.note)
        for o in rec.orbits
    )
    return VarietyDescriptor._make(fields[key] for key in VarietyDescriptor._fields)


class ClassificationResult(namedtuple(
    "ClassificationResult", "verdict group n entries reason", defaults=((), "")
)):
    """The answer of ``classify``: a verdict, one of only_trivial_action,
    homogeneous, full_list and out_of_covered_range, its VarietyDescriptor
    entries, and the reason for one out of the covered range."""

    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={shown(value)}" for key, value in zip(self._fields, self))
        return f"ClassificationResult({fields})"


# The rungs of a group's ladder depend on the group alone; the rank cap is
# part of the key, so a group above the cap is refused again once it is restored.
@lru_cache(maxsize=256)
def _ladder(group: GroupSpec, cap: int) -> tuple[str, int, bool, tuple[VarietyDescriptor, ...]]:
    """Case, r, whether the group is SL(3), and the homogeneous entries at n = r."""
    case, effective = group.resolve()
    dtype = group.dynkin()
    r = r_min(dtype).value
    entries = []
    for hv in minimal_homogeneous_varieties(dtype):
        (node,) = hv.marking.nodes
        entries.append(
            VarietyDescriptor(
                name=hv.label(),
                case=case,
                source="Prop3.1",
                item=0,
                n=r,
                dim=hv.dim,
                picard=hv.picard_rank,
                orbits=(Orbit("open", hv.dim, hv.label()),),
                note=f"homogeneous, marked node {node}",
            )
        )
    homogeneous = tuple(sorted(entries, key=lambda d: (d.name, d.note)))
    return case, r, case == "SL" and effective.parameter == 3, homogeneous


def classify(
    group: GroupSpec,
    n: int,
    quasihomogeneous_only: bool = False,
    db_path: str | None = None,
) -> ClassificationResult:
    """Full variety list for a group acting in dimension n, where covered."""
    if not isinstance(group, GroupSpec):
        raise InvalidGroup(f"group must be a GroupSpec, got {shown(group)}")
    n = integer(n, "dimension", InvalidDimension)
    if n <= 0:
        raise InvalidDimension(f"dimension must be positive, got {shown(n)}")
    case, r, sl3, homogeneous = _ladder(group, roots.MAX_CLASSICAL_RANK)
    if n < r:
        return ClassificationResult("only_trivial_action", group, n)
    if n == r:
        return ClassificationResult("homogeneous", group, n, homogeneous)
    db = _load(_db_key(db_path))  # a malformed database raises before any answer beyond r
    if n == r + 1 and case != "G2":
        return ClassificationResult("full_list", group, n, db[case, n])
    if sl3 and n == 4:
        if quasihomogeneous_only:
            return ClassificationResult("full_list", group, n, db["SL3Q", n])
        reason = ("dimension r+2 is covered only under a dense-orbit "
                  "hypothesis; rerun with quasihomogeneous_only")
    elif case == "G2":  # here n > r
        reason = "exceptional groups are covered only through the minimal flag-variety dimension"
    else:
        reason = f"no record list for {group.label()} in dimension {shown(n)}"
    return ClassificationResult("out_of_covered_range", group, n, reason=reason)


def orbit_structure(
    name: str,
    params: Mapping[str, int],
    case: str | None = None,
    db_path: str | None = None,
) -> tuple[Orbit, ...]:
    """Orbit list of a named record at given parameter values.

    ``params`` must bind ``n`` plus every declared parameter of the
    record; ``case`` disambiguates names that occur in several series.
    """
    by_name = _load(_db_key(db_path)).by_name
    matches = by_name[name][0] if isinstance(name, str) and name in by_name else ()
    if case is not None:
        matches = [r for r in matches if r.case == case]
    if not matches:
        shown_case = case if isinstance(case, str) else shown(case)  # a str case stays bare
        where = f" in case {shown_case}" if case else ""
        raise UnknownVariety(f"no record named {shown(name)}{where}")
    if len(matches) > 1:
        cases = ", ".join(sorted({r.case for r in matches}))
        raise UnknownVariety(f"{name!r} is ambiguous between cases {cases}; pass case")
    rec = matches[0]
    if "n" not in mapping(params, "params", ParameterViolation):
        raise ParameterViolation("params must bind n")
    n = integer(params["n"], "parameter 'n'", ParameterViolation)
    if not rec.applies(n):
        raise ParameterViolation(
            f"{name!r} requires {rec.requires!r}, violated at n={shown(n)}"
        )
    if not rec.check_params(params):
        raise ParameterViolation(
            f"parameters violate {rec.param_constraint!r} for {name!r}"
        )
    return _instantiate(rec, n).orbits


def relations(
    name: str, db_path: str | None = None
) -> tuple[tuple[str, str], ...]:
    """Recorded blow-up / blow-down edges touching a record or instance."""
    by_name = _load(_db_key(db_path)).by_name
    if not isinstance(name, str) or name not in by_name:  # a list could not be hashed
        raise UnknownVariety(f"no record or instance named {shown(name)}")
    return by_name[name][1]


Violation = namedtuple("Violation", "rule record case message")


# Probe dimensions n of each case, each with the type of the group acting there.
_PROBES: dict[str, list[tuple[int, DynkinType]]] = {
    "SL": [(n, GroupSpec("SL", n).dynkin()) for n in range(2, 9)],
    "Sp": [(n, GroupSpec("Sp", n).dynkin()) for n in (4, 6, 8)],
    "Spin": [(n, GroupSpec("Spin", n + 1).dynkin()) for n in (6, 7, 8)],
    "SL3Q": [(4, GroupSpec("SL", 3).dynkin())],
}


def validate_database(db_path: str | None = None) -> list[Violation]:
    return validate_records(load_database(db_path))


def validate_records(records: Sequence[RecordSchema]) -> list[Violation]:
    """Run ``_ORBIT_RULES`` and ``_INSTANCE_RULES`` over every record at the probe
    dimensions of its case, and reach: a record whose ``requires`` holds at no
    probe n would be checked by no rule, so it is reported instead."""
    records = tuple(_each(records))
    for rec in records:
        _check_types(rec)
    found = (
        Violation(rule, rec.name, rec.case, message)
        for rec in records
        for rule, message in _record_violations(rec)
    )
    return list(dict.fromkeys(found))


def _misidentified(orb: Orbit, inst: VarietyDescriptor, acting: DynkinType) -> str | None:
    """Why an identified orbit is no flag variety of its dimension under the acting type."""
    label = orb.identification
    mk = named_marking(acting, label)
    if mk is None:
        return f"identification {label} has no flag variety under {acting} at n={inst.n}"
    if (dim := codim_parabolic(mk)) != orb.dim:
        return f"identification {label} has dim {dim} but orbit recorded at {shown(orb.dim)}"
    return None


# The rules of validate_records, in the order their findings are listed.  At each
# probe n an orbit rule reads (orbit, record at n, acting type, its r), an instance
# rule (count of open orbits, record at n); each gives a message or a false value.
_ORBIT_RULES = (
    ("shape", lambda o, d, t, r: o.kind == "open" and o.dim != d.dim
        and f"open orbit of dim {shown(o.dim)} != {shown(d.dim)}"),
    ("shape", lambda o, d, t, r: o.kind == "fixed" and o.dim != 0
        and "fixed orbit with positive dimension"),
    ("R2", lambda o, d, t, r: o.kind == "fixed" and not d.allows_fixed_point
        and "fixed point in an unflagged record"),
    ("shape", lambda o, d, t, r: o.kind not in ("open", "fixed") and o.dim >= d.dim
        and f"closed orbit of dim {shown(o.dim)} not below {shown(d.dim)}"),
    ("R1", lambda o, d, t, r: 0 < o.dim < r
        and f"orbit of dim {o.dim} below r={r} of {t} at n={d.n}"),
    ("R3", lambda o, d, t, r: o.kind != "fixed" and o.identification and _misidentified(o, d, t)),
)
_INSTANCE_RULES = (
    ("shape", lambda opens, d: opens > 1 and "more than one open orbit"),
    ("R4", lambda opens, d: d.case == "SL3Q" and opens != 1
        and f"{opens} open orbits in a quasihomogeneous record"),
    ("R5", lambda opens, d: d.case == "Spin" and d.picard == 1
        and d.name not in ("P^n", "Q^n") and f"Picard-rank-one Spin entry {d.name!r}"),
)


# Every check of validate_records reads one frozen record, so its findings
# are memoised per record: a reloaded file reuses those of its unchanged records.
@lru_cache(maxsize=256)
def _record_violations(rec: RecordSchema) -> tuple[tuple[str, str], ...]:
    """The (rule, message) findings of one record, in order, each once."""
    probes = _PROBES[rec.case]
    reached = [(inst, acting) for n, acting in probes if (inst := _instantiate(rec, n)) is not None]
    if not reached:
        ns = [n for n, _ in probes]
        return (("reach", f"requires {rec.requires!r} holds at no probe n in {ns}"),)
    found = []
    for inst, acting in reached:
        r = r_min(acting).value
        found += [(rule, m) for orb in inst.orbits for rule, check in _ORBIT_RULES
                  if (m := check(orb, inst, acting, r))]
        opens = sum(orb.kind == "open" for orb in inst.orbits)
        found += [(rule, m) for rule, check in _INSTANCE_RULES if (m := check(opens, inst))]
    return tuple(dict.fromkeys(found))
