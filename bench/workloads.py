"""The three in-process workloads: seeded inputs, the library calls, the checks.

Each workload has ``warm()`` (set-up work counted in ``setup_s``) and the
interface loop.py runs: an endless seeded ``ops()`` stream, ``run(op)``
(the timed library calls), ``check(op, answer, error)`` and
``prefix_ops``.  An exception counts as a wrong answer unless the input
calls for it.  Only lieflag's public API is used; expected values come from
``oracles``, not from the code under test.
"""

from __future__ import annotations

import random
import re
from importlib import resources
from pathlib import Path

import lieflag
from lieflag import roots
from lieflag.errors import DatabaseFormatError

import oracles
from loop import FAILED, OK, expect


def expect_no_error(op, error) -> None:
    expect(error is None, f"{op}: {type(error).__name__}: {error}")


# Groups of query_mix with the families' parameters; G2 takes none.
QUERY_GROUPS = (
    [("SL", k) for k in range(2, 9)]
    + [("Sp", k) for k in (4, 6, 8)]
    + [("Spin", k) for k in range(5, 11)]
    + [("G2", 0)]
)
SMALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [(s, n) for s in "BC" for n in range(2, 7)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("F", 4), ("G", 2)]
)
# (record, case, admissible n, parameter sampler) for orbit_structure.
ORBIT_QUERIES = (
    ("P(O(m)+O)/P^{n-1}", "SL", range(2, 9), lambda r: {"m": r.randint(1, 5)}),
    ("P(O(m)+O)/P^{n-1}", "Sp", range(4, 9), lambda r: {"m": r.randint(1, 5)}),
    ("P(O(m)+O)/Q^{n-1}", "Spin", range(6, 10), lambda r: {"m": r.randint(1, 5)}),
    ("X_{p,q}", "SL3Q", (4,), lambda r: {"p": r.randint(1, 4), "q": r.randint(0, 4)}),
    ("Y_a", "SL3Q", (4,), lambda r: {"a": r.randint(-3, 3)}),
    ("P^n", "SL", range(2, 9), lambda r: {}),
    ("Q^n", "Spin", range(6, 10), lambda r: {}),
)
RELATION_NAMES = ("X_{(0,1)}", "Y_{(-1)}", "P2xP2", "Bl_diag(P2xP2)", "Q^4", "P^n", "Gr(2,4)")


def expected_verdict(family: str, parameter: int, n: int, quasi: bool) -> str:
    """The verdict ladder, from r of the acting group."""
    series, rank = oracles.group_type(family, parameter)
    r = oracles.minimal_flag_dimension(series, rank)
    if n < r:
        return "only_trivial_action"
    if n == r:
        return "homogeneous"
    if n == r + 1 and family != "G2":
        return "full_list"
    if (series, rank) == ("A", 2) and n == 4 and quasi:
        return "full_list"
    return "out_of_covered_range"


def _result_text(res) -> str:
    entries = ";".join(
        f"{e.name}/{e.dim}/{e.picard}/"
        + ",".join(f"{o.kind}:{o.dim}:{o.identification}" for o in e.orbits)
        for e in res.entries
    )
    return f"{res.verdict}[{entries}]"


class QueryMix:
    """Library queries against the shipped database in one warmed process."""

    prefix_ops = 20000

    def warm(self) -> None:
        lieflag.load_database()
        for family, parameter in QUERY_GROUPS:
            r = lieflag.r_min(lieflag.group_spec(family, parameter).dynkin()).value
            for n in range(max(r - 1, 1), r + 3):
                for quasi in (False, True):
                    lieflag.classify(lieflag.group_spec(family, parameter), n, quasi)
        for series, rank in SMALL_TYPES:
            lieflag.r_min(lieflag.DynkinType(series, rank))
        for name, case, ns, params in ORBIT_QUERIES:
            lieflag.orbit_structure(name, {"n": ns[-1], **params(random.Random(0))}, case)
        for name in RELATION_NAMES:
            lieflag.relations(name)

    def ops(self, rng: random.Random):
        while True:
            u = rng.random()
            if u < 0.80:
                family, parameter = rng.choice(QUERY_GROUPS)
                series, rank = oracles.group_type(family, parameter)
                r = oracles.minimal_flag_dimension(series, rank)
                n = rng.randint(max(r - 1, 1), r + 2)
                yield ("classify", family, parameter, n, rng.random() < 0.5)
            elif u < 0.88:
                name, case, ns, params = rng.choice(ORBIT_QUERIES)
                yield ("orbits", name, case, {"n": rng.choice(list(ns)), **params(rng)})
            elif u < 0.92:
                yield ("relations", rng.choice(RELATION_NAMES))
            elif u < 0.96:
                yield ("rmin",) + rng.choice(SMALL_TYPES)
            else:
                series, rank = rng.choice(SMALL_TYPES)
                nodes = rng.sample(range(1, rank + 1), rng.randint(1, min(rank, 3)))
                yield ("codim", series, rank, tuple(sorted(nodes)))

    def run(self, op):
        kind = op[0]
        if kind == "classify":
            _, family, parameter, n, quasi = op
            return lieflag.classify(lieflag.group_spec(family, parameter), n, quasihomogeneous_only=quasi)
        if kind == "orbits":
            return lieflag.orbit_structure(op[1], op[3], case=op[2])
        if kind == "relations":
            return lieflag.relations(op[1])
        if kind == "rmin":
            return lieflag.r_min(lieflag.DynkinType(op[1], op[2]))
        return lieflag.codim_parabolic(
            lieflag.marking(lieflag.DynkinType(op[1], op[2]), op[3])
        )

    def check(self, op, answer, error):
        expect_no_error(op, error)
        kind = op[0]
        if kind == "classify":
            _, family, parameter, n, quasi = op
            want = expected_verdict(family, parameter, n, quasi)
            expect(answer.verdict == want, f"{op}: verdict {answer.verdict} != {want}")
            expect(all(e.dim == n for e in answer.entries), f"{op}: entry dim != n")
            if want in ("homogeneous", "full_list"):
                expect(len(answer.entries) > 0, f"{op}: empty list")
            return OK, _result_text(answer)
        if kind == "orbits":
            n = op[3]["n"]
            expect(all(0 <= o.dim <= n for o in answer), f"{op}: orbit dim outside 0..n")
            expect(all(o.dim == n for o in answer if o.kind == "open"), f"{op}: open orbit")
            return OK, ",".join(f"{o.kind}:{o.dim}:{o.identification}" for o in answer)
        if kind == "relations":
            expect(
                all(isinstance(a, str) and isinstance(b, str) for a, b in answer),
                f"{op}: malformed edge",
            )
            return OK, ",".join(f"{a}>{b}" for a, b in answer)
        if kind == "rmin":
            want = oracles.minimal_flag_dimension(op[1], op[2])
            expect(answer.value == want, f"{op}: r {answer.value} != {want}")
            return OK, f"{answer.value}:{answer.nodes}"
        want = oracles.flag_dimension(op[1], op[2], set(op[3]))
        expect(answer == want, f"{op}: dim G/P {answer} != {want}")
        return OK, str(answer)


# Types of the sweep's ops, above the default classical cap; each is
# enumerated cold on first touch, early in the run.
SWEEP_TYPES = (
    [("E", 6), ("E", 7), ("E", 8), ("F", 4)]
    + [(s, n) for s in "ABCD" for n in range(13, 17)]
)
# Every COLD_EVERY ops, one root_system call on an unseen classical type
# keeps cold enumeration going through the whole run.  The unseen types come
# in rounds of one type per rank band, in seeded order, so every stretch of
# the run mixes cheap and dear enumerations alike.  Once all are used, the
# stream goes on warm.
COLD_BANDS = (range(17, 21), range(21, 25), range(25, 29))
COLD_EVERY = 3000
SWEEP_RANK_CAP = 28


def cold_schedule(rng: random.Random) -> list[tuple[str, int]]:
    """Every classical type of the bands, in rounds of one type per band."""
    bands = []
    for band in COLD_BANDS:
        types = [(series, rank) for series in "ABCD" for rank in band]
        rng.shuffle(types)
        bands.append(types)
    schedule: list[tuple[str, int]] = []
    for round_types in zip(*bands):
        round_types = list(round_types)
        rng.shuffle(round_types)
        schedule.extend(round_types)
    return schedule


def _a_weyl_dim(coords) -> int:
    """Weyl dimension of A_n from the partition form of the weight."""
    n = len(coords)
    lam = [sum(coords[i:]) for i in range(n)] + [0]
    num = den = 1
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


class LieSweep:
    """Numerics over large types: roots, G/P dimensions, Weyl dimensions, cones."""

    prefix_ops = 20000

    def __init__(self) -> None:
        self.seen: set = set()
        self.weyl_ops = 0
        self.weyl_repeats = 0
        self.cold_types = 0

    def warm(self) -> None:
        roots.MAX_CLASSICAL_RANK = SWEEP_RANK_CAP
        a1 = lieflag.DynkinType("A", 1)
        lieflag.cone_hilbert_function(
            lieflag.marking(a1, (1,)), lieflag.fundamental_weight(a1, 1), 2
        )

    def ops(self, rng: random.Random):
        cold = cold_schedule(rng)
        index = 0
        while True:
            index += 1
            if index % COLD_EVERY == 0 and cold:
                yield ("cold",) + cold.pop(0)
                continue
            series, rank = rng.choice(SWEEP_TYPES)
            u = rng.random()
            if u < 0.15:
                yield ("roots", series, rank)
            elif u < 0.40:
                nodes = rng.sample(range(1, rank + 1), rng.randint(1, 4))
                yield ("codim", series, rank, tuple(sorted(nodes)))
            elif u < 0.80:
                if rng.random() < 0.2:
                    coords = [0] * rank
                    coords[rng.randrange(rank)] = 1
                else:
                    coords = [rng.choice((0, 0, 1, 2, 3)) for _ in range(rank)]
                yield ("weyl", series, rank, tuple(coords))
            elif rng.random() < 0.25 and series == "A":
                yield ("hilbert", series, rank, (1,), (1,), rng.randint(3, 6))
            else:
                nodes = tuple(sorted(rng.sample(range(1, rank + 1), rng.randint(1, 2))))
                coeffs = tuple(rng.randint(1, 2) for _ in nodes)
                yield ("hilbert", series, rank, nodes, coeffs, 3)

    def run(self, op):
        kind, series, rank = op[:3]
        dtype = lieflag.DynkinType(series, rank)
        if kind in ("roots", "cold"):
            return lieflag.root_system(dtype)
        if kind == "codim":
            return lieflag.codim_parabolic(lieflag.marking(dtype, op[3]))
        if kind == "weyl":
            return lieflag.weyl_dim(lieflag.weight(dtype, op[3]))
        mk = lieflag.marking(dtype, op[3])
        return lieflag.cone_hilbert_function(
            mk, lieflag.character_weight(mk, op[4]), op[5]
        )

    def check(self, op, answer, error):
        expect_no_error(op, error)
        kind, series, rank = op[:3]
        if kind in ("roots", "cold"):
            self.cold_types += kind == "cold"
            want = oracles.positive_root_count(series, rank)
            got = len(answer.positive_roots)
            expect(got == want == len(answer.coroots), f"{op}: |Phi+| {got} != {want}")
            return OK, str(got)
        if kind == "codim":
            want = oracles.flag_dimension(series, rank, set(op[3]))
            expect(answer == want, f"{op}: dim G/P {answer} != {want}")
            return OK, str(answer)
        if kind == "weyl":
            self.weyl_ops += 1
            key = op[1:]
            if key in self.seen:
                self.weyl_repeats += 1
            self.seen.add(key)
            coords = op[3]
            expect(isinstance(answer, int) and answer >= 1, f"{op}: dim {answer}")
            if series == "A":
                want = _a_weyl_dim(coords)
                expect(answer == want, f"{op}: A-type dim {answer} != {want}")
                if sum(coords) == 1:
                    node = coords.index(1) + 1
                    expect(answer == oracles.a_fundamental_dim(rank, node), f"{op}: binomial")
            return OK, str(answer)
        k_max = op[5]
        expect(len(answer) == k_max + 1 and answer[0] == 1, f"{op}: shape")
        expect(all(a < b for a, b in zip(answer, answer[1:])), f"{op}: not increasing")
        if series == "A" and op[3] == (1,) and op[4] == (1,):
            expect(answer == oracles.projective_hilbert(rank, k_max), f"{op}: P^n Hilbert")
        return OK, ",".join(map(str, answer))

    def info(self) -> dict:
        share = self.weyl_repeats / self.weyl_ops if self.weyl_ops else 0.0
        return {
            "weyl_repeat_share": round(share, 4),
            "weyl_calls": self.weyl_ops,
            "cold_types": self.cold_types,
        }


# Malformations a variant may carry.  Every one calls for DatabaseFormatError.
# The first three are known defects of the parser and the validator: they
# raise the exception named here instead, which is a failed op but not a
# wrong answer.  Any other outcome of any malformation is a wrong answer.
KNOWN_DEFECTS = {"item_word": ValueError, "relation_quote": ValueError, "dim_tuple": TypeError}
MALFORMATIONS = tuple(KNOWN_DEFECTS) + ("unknown_key", "unknown_case")
MALFORMED_SHARE = 0.25
CHURN_QUERIES = (
    ("SL", 2, 2, False),
    ("SL", 3, 3, False),
    ("SL", 4, 4, False),
    ("Sp", 4, 4, False),
    ("Sp", 6, 6, False),
    ("Spin", 7, 6, False),
    ("Spin", 8, 7, False),
    ("Spin", 9, 8, False),
    ("SL", 3, 4, True),
)
_REQUIRES = re.compile(r"^requires = n (>=|==) (\d+)$")


def record_case(family: str, parameter: int) -> str:
    """Case whose records answer a group at n = r + 1, low-rank aliases included."""
    series, _ = oracles.group_type(family, parameter)
    return {"A": "SL", "C": "Sp"}.get(series, "Spin")


def _split_blocks(text: str) -> tuple[list[str], list[list[str]]]:
    """Header lines, then one line list per record (leading comments included)."""
    header: list[str] = []
    blocks: list[list[str]] = []
    pending: list[str] = []
    for line in text.splitlines():
        if line.startswith("record = "):
            blocks.append(pending + [line])
            pending = []
        elif blocks and line.strip() and not line.startswith("#"):
            blocks[-1].append(line)
        elif blocks:
            pending.append(line)
        else:
            header.append(line)
    if blocks:
        blocks[-1].extend(pending)
    return header, blocks


def _field(block: list[str], key: str) -> str:
    for line in block:
        if line.startswith(key + " = "):
            return line.split(" = ", 1)[1]
    return ""


def _applies(requires: str, n: int) -> bool:
    if not requires:
        return True
    op, bound = _REQUIRES.match("requires = " + requires).groups()
    return n >= int(bound) if op == ">=" else n == int(bound)


class DbChurn:
    """Parse, serialize, re-parse, validate and query seeded database variants."""

    prefix_ops = 300

    def __init__(self, work: Path) -> None:
        self.work = work
        self.known_defects = 0
        self.malformed = 0
        self.rejected = 0

    def warm(self) -> None:
        self.base = resources.files("lieflag").joinpath("data/classification.db").read_text()
        self.header, self.blocks = _split_blocks(self.base)
        shipped = lieflag.load_database()
        lieflag.validate_database()
        lieflag.records.parse_records(lieflag.records.serialize_records(shipped))
        self.work.mkdir(parents=True, exist_ok=True)

    def _variant(self, rng: random.Random):
        blocks = [list(b) for b in self.blocks]
        if rng.random() < 0.5:
            rng.shuffle(blocks)
        for _ in range(rng.randint(0, 3)):
            blocks.pop(rng.randrange(len(blocks)))
        for block in blocks:
            for i, line in enumerate(block):
                m = _REQUIRES.match(line)
                if m and m.group(1) == ">=" and rng.random() < 0.3:
                    block[i] = f"requires = n >= {int(m.group(2)) + 1}"
            if rng.random() < 0.2:
                block.insert(rng.randint(0, len(block) - 1), f"# churn {rng.randrange(10**6)}")
            if rng.random() < 0.2:
                block.insert(rng.randint(0, len(block) - 1), "")
        fault = None
        if rng.random() < MALFORMED_SHARE:
            fault = rng.choice(MALFORMATIONS)
            block = rng.choice(blocks)
            at = next(i for i, line in enumerate(block) if line.startswith("record = "))
            if fault == "item_word":
                block[:] = ["item = x" if l.startswith("item = ") else l for l in block]
            elif fault == "relation_quote":
                rel = [(j, b) for b in blocks for j, l in enumerate(b) if l.startswith("relation = ")]
                if rel:
                    j, block = rng.choice(rel)
                    block[j] = block[j][:-1]
                else:
                    block.insert(at + 1, 'relation = op="blow-down" to="Q^4')
            elif fault == "dim_tuple":
                block[:] = ["dim = (1,2)" if l.startswith("dim = ") else l for l in block]
            elif fault == "unknown_key":
                block.insert(at + 1, "colour = red")
            else:
                block[:] = ["case = SO" if l.startswith("case = ") else l for l in block]
        text = "\n".join(self.header + [line for b in blocks for line in b]) + "\n"
        kept = [
            (_field(b, "record"), _field(b, "case"), _field(b, "requires")) for b in blocks
        ]
        return text, kept, fault

    def ops(self, rng: random.Random):
        index = 0
        while True:
            text, kept, fault = self._variant(rng)
            path = self.work / f"variant-{index}.db"
            path.write_text(text, encoding="utf-8")
            queries = tuple(rng.sample(CHURN_QUERIES, 3))
            yield ("churn", index, str(path), text, kept, fault, queries)
            index += 1

    def run(self, op):
        _, _, path, text, _, _, queries = op
        records = lieflag.records.parse_records(text)
        text2 = lieflag.records.serialize_records(records)
        records2 = lieflag.records.parse_records(text2)
        violations = lieflag.validate_database(path)
        results = [
            lieflag.classify(lieflag.group_spec(f, p), n, quasihomogeneous_only=quasi, db_path=path)
            for f, p, n, quasi in queries
        ]
        return records, records2, violations, results

    def check(self, op, answer, error):
        _, _, path, _, kept, fault, queries = op
        Path(path).unlink(missing_ok=True)
        if fault is not None:
            self.malformed += 1
            self.known_defects += fault in KNOWN_DEFECTS
            if isinstance(error, DatabaseFormatError):
                self.rejected += 1
                return OK, f"rejected:{fault}"
            outcome = type(error).__name__ if error is not None else "accepted"
            expect(
                fault in KNOWN_DEFECTS and type(error) is KNOWN_DEFECTS[fault],
                f"variant {op[1]}: {outcome} on {fault}, not DatabaseFormatError",
            )
            return FAILED, f"{outcome}:{fault}"
        expect_no_error(f"variant {op[1]}", error)
        records, records2, violations, results = answer
        expect(records2 == records, f"variant {op[1]}: round trip changed the records")
        expect(violations == [], f"variant {op[1]}: {len(violations)} violations")
        texts = [f"{len(records)}"]
        for (family, parameter, n, quasi), res in zip(queries, results):
            case = "SL3Q" if quasi else record_case(family, parameter)
            want = sorted(name for name, c, req in kept if c == case and _applies(req, n))
            got = sorted(e.name for e in res.entries)
            expect(res.verdict == "full_list", f"variant {op[1]}: verdict {res.verdict}")
            expect(got == want, f"variant {op[1]}: {family}({parameter}) n={n} {got} != {want}")
            expect(all(e.dim == n for e in res.entries), f"variant {op[1]}: entry dim")
            texts.append(_result_text(res))
        return OK, "|".join(texts)

    def info(self) -> dict:
        return {
            "malformed_variants": self.malformed,
            "known_defect_variants": self.known_defects,
            "malformed_rejected": self.rejected,
        }

