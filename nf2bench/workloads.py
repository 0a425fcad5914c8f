"""Seeded data, statement tapes and result checks for the NF² benchmark.

Everything here is a pure function of the workload name and the seed:
the generated complex objects and flat rows, the statement tape a run
executes, and the answer every statement must return.  Answers come from
a plain-Python model of the data that the tape generator keeps in step
with its own writes, so a check never asks the engine what the right
answer is.
"""

from __future__ import annotations

import json
import random
from collections import deque
import string
from dataclasses import dataclass, field
from typing import Any, Optional

FUNCTIONS = ("Leader", "Consultant", "Secretary", "Staff")
EQUIP_TYPES = ("3278", "3279", "3179", "4361", "PC", "PC/XT", "PC/AT", "PC/GA")
TITLE_WORDS = (
    "database systems design concurrency recovery optimization text "
    "hierarchies relations storage index search computer network protocol "
    "transaction locking version temporal query language compiler robotics "
    "schema integration performance clustering"
).split()

DEPARTMENTS_DDL = (
    "CREATE TABLE DEPARTMENTS (DNO INT, MGRNO INT, "
    "PROJECTS TABLE OF (PNO INT, PNAME STRING, "
    "MEMBERS TABLE OF (EMPNO INT, FUNCTION STRING)), "
    "BUDGET INT, EQUIP TABLE OF (QU INT, TYPE STRING))"
)
EMPLOYEES_DDL = "CREATE TABLE EMPLOYEES (EMPNO INT, LNAME STRING, FNAME STRING, SEX STRING)"
REPORTS_DDL = (
    "CREATE TABLE REPORTS (REPNO STRING, "
    "AUTHORS LIST OF (NAME STRING), TITLE STRING, "
    "DESCRIPTORS TABLE OF (KEYWORD STRING, WEIGHT FLOAT))"
)
INDEX_DDL = (
    "CREATE INDEX DEPT_DNO ON DEPARTMENTS (DNO)",
    "CREATE INDEX DEPT_EMPNO ON DEPARTMENTS (PROJECTS.MEMBERS.EMPNO)",
    "CREATE INDEX EMP_EMPNO ON EMPLOYEES (EMPNO)",
    "CREATE TEXT INDEX REP_TITLE ON REPORTS (TITLE)",
)


@dataclass(frozen=True)
class Spec:
    """One workload: data sizes, buffer pool, client model and mix.

    ``mix`` maps an operation kind to its exact count in every block of
    ``sum(mix.values())`` statements; the kinds are the ``_op_*``
    generators of :class:`TapeBuilder`.  The mixes follow the repo's
    YCSB-style mixed workload (``REPRO_SLO_MIX`` of
    ``benchmarks/test_ablation_slo.py``: point 40, nav 25, search 20,
    write 15); see :data:`SPECS` for how each workload maps onto it.
    ``tape_rate`` bounds the statements per second a run can execute,
    so the tape outlasts it.
    """

    name: str
    departments: int
    employees: int
    reports: int
    buffer_frames: int
    mix: dict
    tape_rate: int
    wire: bool = False


#: The ratios are taken, not measured: no trace of real traffic exists
#: for this engine.  Every workload keeps ``REPRO_SLO_MIX``'s 85:15
#: read:write split (wire_mixed: the issue's ~10% inserts) and its read
#: ratios point:nav:search = 40:25:20.  Its ``point`` class is an indexed
#: key lookup, and the two shapes of it here (an object by ``DNO``, a
#: flat row by ``EMPNO``) share it evenly.  Its ``write`` class is a flat
#: INSERT; oltp_write shares its writes evenly among its seven write
#: kinds, so no kind is favoured.  scan_cold's reads are all unindexable
#: scans, which is what the workload is for, shared evenly by three
#: nested shapes: an EQUIP entry, a project name, and a member function
#: within a named project.
SPECS = {
    "read_hot": Spec(
        name="read_hot",
        departments=80, employees=1200, reports=120, buffer_frames=512,
        mix={"point": 20, "flat_read": 20, "nav": 25, "search": 20,
             "flat_insert": 15},
        tape_rate=2500,
    ),
    "scan_cold": Spec(
        name="scan_cold",
        departments=16, employees=600, reports=60, buffer_frames=12,
        # 85:15 in a block of 60, the reads split evenly over the
        # three nested scan shapes
        mix={"scan_equip": 17, "scan_pname": 17, "scan_member": 17,
             "flat_insert": 9},
        tape_rate=400,
    ),
    "oltp_write": Spec(
        name="oltp_write",
        departments=50, employees=10000, reports=100, buffer_frames=4096,
        # REPRO_SLO_MIX scaled to 7 x 3 writes: 119 reads, 21 writes
        mix={"point": 28, "flat_read": 28, "nav": 35, "search": 28,
             "flat_insert": 3, "object_insert": 3, "partial_insert": 3,
             "partial_update": 3, "partial_delete": 3, "flat_update": 3,
             "flat_delete": 3},
        tape_rate=600,
    ),
    "wire_mixed": Spec(
        name="wire_mixed",
        departments=80, employees=1200, reports=120, buffer_frames=512,
        # read_hot's reads plus 10 flat inserts in 95 statements (~10%)
        mix={"point": 20, "flat_read": 20, "nav": 25, "search": 20,
             "flat_insert": 10},
        tape_rate=1500,
        wire=True,
    ),
}

SCAN_KINDS = {"scan_equip", "scan_pname", "scan_member"}
READ_KINDS = {"point", "nav", "flat_read", "search"} | SCAN_KINDS
#: shape of every generated department
PROJECTS_PER_DEPT = 3
MEMBERS_PER_PROJECT = 4
EQUIP_PER_DEPT = 3


# ---------------------------------------------------------------------------
# The model: plain dicts the tape generator updates as it emits writes
# ---------------------------------------------------------------------------


@dataclass
class Model:
    #: DNO -> {"MGRNO", "BUDGET", "PROJECTS": {PNO: {"PNAME", "MEMBERS":
    #: {EMPNO: FUNCTION}}}, "EQUIP": [(QU, TYPE)]}
    depts: dict = field(default_factory=dict)
    #: EMPNO -> (LNAME, FNAME, SEX)
    emps: dict = field(default_factory=dict)
    #: REPNO -> (AUTHORS, TITLE, DESCRIPTORS)
    reports: dict = field(default_factory=dict)
    #: member EMPNO -> owning DNO (derived; kept for navigation answers)
    owner: dict = field(default_factory=dict)

    def copy(self) -> "Model":
        return Model(
            depts=json.loads(json.dumps(self.depts), object_hook=_int_keys),
            emps=dict(self.emps),
            reports=dict(self.reports),
            owner=dict(self.owner),
        )

    # -- generated rows, in the engine's plain insert form ------------------

    def dept_row(self, dno: int) -> dict:
        d = self.depts[dno]
        return {
            "DNO": dno,
            "MGRNO": d["MGRNO"],
            "PROJECTS": [
                {
                    "PNO": pno,
                    "PNAME": p["PNAME"],
                    "MEMBERS": [
                        {"EMPNO": e, "FUNCTION": f} for e, f in p["MEMBERS"].items()
                    ],
                }
                for pno, p in d["PROJECTS"].items()
            ],
            "BUDGET": d["BUDGET"],
            "EQUIP": [{"QU": q, "TYPE": t} for q, t in d["EQUIP"]],
        }

    def emp_row(self, empno: int) -> dict:
        lname, fname, sex = self.emps[empno]
        return {"EMPNO": empno, "LNAME": lname, "FNAME": fname, "SEX": sex}

    def report_row(self, repno: str) -> dict:
        authors, title, descriptors = self.reports[repno]
        return {
            "REPNO": repno,
            "AUTHORS": [{"NAME": a} for a in authors],
            "TITLE": title,
            "DESCRIPTORS": [{"KEYWORD": k, "WEIGHT": w} for k, w in descriptors],
        }

    def user_bytes(self) -> int:
        """JSON-encoded bytes of every live user row."""
        rows = (
            [self.dept_row(d) for d in self.depts]
            + [self.emp_row(e) for e in self.emps]
            + [self.report_row(r) for r in self.reports]
        )
        return sum(len(json.dumps(row)) for row in rows)

    # -- effects: every write op carries one, applied here and on replay ----

    def apply(self, effect: tuple) -> None:
        kind = effect[0]
        if kind == "emp_put":
            _, empno, row = effect
            self.emps[empno] = row
        elif kind == "emp_del":
            del self.emps[effect[1]]
        elif kind == "dept_put":
            _, dno, dept = effect
            self.depts[dno] = json.loads(json.dumps(dept), object_hook=_int_keys)
            for p in self.depts[dno]["PROJECTS"].values():
                for empno in p["MEMBERS"]:
                    self.owner[empno] = dno
        elif kind == "member_put":
            _, dno, pno, empno, function = effect
            self.depts[dno]["PROJECTS"][pno]["MEMBERS"][empno] = function
            self.owner[empno] = dno
        elif kind == "member_del":
            _, dno, pno, empno = effect
            del self.depts[dno]["PROJECTS"][pno]["MEMBERS"][empno]
            del self.owner[empno]
        elif kind == "pname_set":
            _, dno, pno, pname = effect
            self.depts[dno]["PROJECTS"][pno]["PNAME"] = pname
        else:  # pragma: no cover - generator and model are one module
            raise ValueError(f"unknown effect {kind!r}")


def _int_keys(obj: dict) -> dict:
    return {int(k) if k.isdigit() else k: v for k, v in obj.items()}


def _name(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_uppercase) for _ in range(length)).title()


def _employee(rng: random.Random) -> tuple:
    """LNAME, FNAME, SEX of one generated employee."""
    return (_name(rng, 6), _name(rng, 4), rng.choice(("male", "female")))


class Ids:
    """Fresh-key allocator; keys never repeat within a run."""

    def __init__(self, start: int):
        self.next = start

    def take(self) -> int:
        value = self.next
        self.next += 1
        return value


def new_department(rng: random.Random, dno: int, pnos: Ids, empnos: Ids) -> dict:
    projects = {}
    for _ in range(PROJECTS_PER_DEPT):
        pno = pnos.take()
        members = {}
        for position in range(MEMBERS_PER_PROJECT):
            function = "Leader" if position == 0 else rng.choice(FUNCTIONS[1:])
            members[empnos.take()] = function
        projects[pno] = {"PNAME": f"PRJ{pno}", "MEMBERS": members}
    return {
        "MGRNO": 50_000 + dno,
        "BUDGET": rng.randrange(100_000, 900_000, 10_000),
        "PROJECTS": projects,
        "EQUIP": [
            (rng.randint(1, 9), rng.choice(EQUIP_TYPES)) for _ in range(EQUIP_PER_DEPT)
        ],
    }


def generate(spec: Spec, seed: int) -> tuple[Model, "TapeState"]:
    """The initial database content of *spec* for *seed*."""
    rng = random.Random(f"{spec.name}:{seed}:data")
    model = Model()
    state = TapeState(
        dnos=Ids(1000), pnos=Ids(10), empnos=Ids(100_000), repnos=Ids(0)
    )
    for _ in range(spec.departments):
        dno = state.dnos.take()
        model.apply(("dept_put", dno, new_department(rng, dno, state.pnos, state.empnos)))
    # flat employees: every project member, then extra rows up to the size
    for empno in list(model.owner):
        model.emps[empno] = _employee(rng)
    while len(model.emps) < spec.employees:
        model.emps[state.empnos.take()] = _employee(rng)
    # title words are dealt from reshuffled decks of the pool, so every
    # word appears in almost the same number of titles whatever the seed
    # and the cost of a search does not depend on the seed's luck
    deck: list[str] = []
    for _ in range(spec.reports):
        repno = f"R{state.repnos.take():05d}"
        authors = [f"{_name(rng, 5)} {rng.choice(string.ascii_uppercase)}"
                   for _ in range(rng.randint(1, 3))]
        words = []
        for _ in range(5):
            if not deck:
                deck = list(TITLE_WORDS)
                rng.shuffle(deck)
            words.append(deck.pop())
        title = " ".join(words).title()
        descriptors = [(rng.choice(TITLE_WORDS), round(rng.random(), 2))
                       for _ in range(rng.randint(1, 3))]
        model.reports[repno] = (authors, title, descriptors)
    return model, state


# ---------------------------------------------------------------------------
# Tapes
# ---------------------------------------------------------------------------


@dataclass
class TapeState:
    dnos: Ids
    pnos: Ids
    empnos: Ids
    repnos: Ids


@dataclass
class Op:
    """One statement of a tape, with the answer it must produce.

    ``expect`` is the check's input: for reads the expected rows (see
    :mod:`checks`), for writes the affected-tuple count.  ``effect``
    is the write's change to the model (``None`` for reads).
    """

    kind: str
    sql: str
    expect: Any
    effect: Optional[tuple] = None

    @property
    def is_read(self) -> bool:
        return self.kind in READ_KINDS


def _sql_str(text: str) -> str:
    # generated strings are letters, digits, '/' and '-': no quote to escape
    return f"'{text}'"


class TapeBuilder:
    """Emits a workload's statements in order, keeping the model in step."""

    def __init__(self, spec: Spec, seed: int, model: Model, state: TapeState):
        self.spec = spec
        self.rng = random.Random(f"{spec.name}:{seed}:tape")
        self.model = model
        self.state = state
        self._key_cache: dict = {}
        self._recent: deque = deque(maxlen=4)

    def build(self, count: int) -> list[Op]:
        """*count* statements in shuffled blocks of exact mix counts, so
        every prefix of the tape keeps the mix up to one block."""
        block = [kind for kind, n in sorted(self.spec.mix.items()) for _ in range(n)]
        ops: list[Op] = []
        while len(ops) < count:
            self.rng.shuffle(block)
            for kind in block:
                op = getattr(self, f"_op_{kind}")()
                if op.effect is not None:
                    self.model.apply(op.effect)
                    self._key_cache.clear()
                ops.append(op)
        return ops[:count]

    # -- helpers ----------------------------------------------------------------

    def _keys(self, name: str) -> list:
        """Cached key list of one model dict; writes drop the cache."""
        keys = self._key_cache.get(name)
        if keys is None:
            keys = self._key_cache[name] = list(getattr(self.model, name))
        return keys

    def _dno(self) -> int:
        return self.rng.choice(self._keys("depts"))

    def _emp(self) -> int:
        return self.rng.choice(self._keys("emps"))

    def _member(self) -> tuple[int, int, int]:
        """A (dno, pno, empno) of a non-leader project member."""
        members = self._key_cache.get("members")
        if members is None:
            members = self._key_cache["members"] = [
                (dno, pno, empno)
                for dno, d in self.model.depts.items()
                for pno, p in d["PROJECTS"].items()
                for empno, function in p["MEMBERS"].items()
                if function != "Leader"
            ]
        return self.rng.choice(members)

    def _non_member(self) -> int:
        """An EMPNO of the flat table that no project lists."""
        free = self._key_cache.get("non_members")
        if free is None:
            owner = self.model.owner
            free = self._key_cache["non_members"] = [
                e for e in self.model.emps if e not in owner
            ]
        return self.rng.choice(free)

    # -- reads --------------------------------------------------------------------

    def _op_point(self) -> Op:
        dno = self._dno()
        d = self.model.depts[dno]
        sql = (
            "SELECT x.BUDGET, x.PROJECTS FROM x IN DEPARTMENTS "
            f"WHERE x.DNO = {dno}"
        )
        return Op("point", sql, [(d["BUDGET"], len(d["PROJECTS"]))])

    def _op_nav(self) -> Op:
        empno = self.rng.choice(self._keys("owner"))
        sql = (
            "SELECT x.DNO FROM x IN DEPARTMENTS WHERE EXISTS y IN x.PROJECTS "
            f"(EXISTS z IN y.MEMBERS (z.EMPNO = {empno}))"
        )
        return Op("nav", sql, [(self.model.owner[empno],)])

    def _op_flat_read(self) -> Op:
        # skip rows inserted just before: over two connections their
        # INSERT may still be in flight when this read is sent
        empno = self._emp()
        while empno in self._recent:
            empno = self._emp()
        sql = f"SELECT e.LNAME FROM e IN EMPLOYEES WHERE e.EMPNO = {empno}"
        return Op("flat_read", sql, [(self.model.emps[empno][0],)])

    def _op_search(self) -> Op:
        word = self.rng.choice(TITLE_WORDS).title()
        # a substring of the word: fresh patterns, same answer semantics
        cut = self.rng.randint(0, max(0, len(word) - 5))
        pattern = word[cut : cut + 5]
        sql = f"SELECT x.REPNO FROM x IN REPORTS WHERE x.TITLE CONTAINS {_sql_str(pattern)}"
        expect = sorted(
            (repno,) for repno, (_a, title, _d) in self.model.reports.items()
            if pattern.lower() in title.lower()
        )
        return Op("search", sql, expect)

    def _scan(self, kind: str, predicate: str, matches) -> Op:
        """A scan of every object for a nested *predicate* no index
        answers; ``matches(dept)`` is the model's side of it."""
        sql = f"SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS WHERE {predicate}"
        expect = sorted(
            (d, v["BUDGET"]) for d, v in self.model.depts.items() if matches(v)
        )
        return Op(kind, sql, expect)

    def _op_scan_equip(self) -> Op:
        qu, type_ = self.rng.choice(self.model.depts[self._dno()]["EQUIP"])
        return self._scan(
            "scan_equip",
            f"EXISTS e IN x.EQUIP (e.QU = {qu} AND e.TYPE = {_sql_str(type_)})",
            lambda d: (qu, type_) in map(tuple, d["EQUIP"]),
        )

    def _op_scan_pname(self) -> Op:
        projects = self.model.depts[self._dno()]["PROJECTS"]
        pname = projects[self.rng.choice(list(projects))]["PNAME"]
        return self._scan(
            "scan_pname",
            f"EXISTS y IN x.PROJECTS (y.PNAME = {_sql_str(pname)})",
            lambda d: any(p["PNAME"] == pname for p in d["PROJECTS"].values()),
        )

    def _op_scan_member(self) -> Op:
        projects = self.model.depts[self._dno()]["PROJECTS"]
        project = projects[self.rng.choice(list(projects))]
        pname = project["PNAME"]
        function = self.rng.choice(list(project["MEMBERS"].values()))
        return self._scan(
            "scan_member",
            "EXISTS y IN x.PROJECTS (EXISTS z IN y.MEMBERS "
            f"(z.FUNCTION = {_sql_str(function)} AND y.PNAME = {_sql_str(pname)}))",
            lambda d: any(
                p["PNAME"] == pname and function in p["MEMBERS"].values()
                for p in d["PROJECTS"].values()
            ),
        )

    # -- writes -------------------------------------------------------------------

    def _op_flat_insert(self) -> Op:
        empno = self.state.empnos.take()
        row = _employee(self.rng)
        sql = (
            f"INSERT INTO EMPLOYEES VALUES ({empno}, {_sql_str(row[0])}, "
            f"{_sql_str(row[1])}, {_sql_str(row[2])})"
        )
        self._recent.append(empno)
        return Op("flat_insert", sql, 1, ("emp_put", empno, row))

    def _op_flat_update(self) -> Op:
        empno = self._emp()
        lname = _name(self.rng, 6)
        _old, fname, sex = self.model.emps[empno]
        sql = (
            f"UPDATE EMPLOYEES e SET LNAME = {_sql_str(lname)} "
            f"WHERE e.EMPNO = {empno}"
        )
        return Op("flat_update", sql, 1, ("emp_put", empno, (lname, fname, sex)))

    def _op_flat_delete(self) -> Op:
        # only rows no project lists, so navigation answers stay stable
        empno = self._non_member()
        sql = f"DELETE FROM EMPLOYEES e WHERE e.EMPNO = {empno}"
        return Op("flat_delete", sql, 1, ("emp_del", empno))

    def _op_object_insert(self) -> Op:
        dno = self.state.dnos.take()
        dept = new_department(self.rng, dno, self.state.pnos, self.state.empnos)
        projects = ", ".join(
            f"({pno}, {_sql_str(p['PNAME'])}, {{"
            + ", ".join(f"({e}, {_sql_str(f)})" for e, f in p["MEMBERS"].items())
            + "})"
            for pno, p in dept["PROJECTS"].items()
        )
        equip = ", ".join(f"({q}, {_sql_str(t)})" for q, t in dept["EQUIP"])
        sql = (
            f"INSERT INTO DEPARTMENTS VALUES ({dno}, {dept['MGRNO']}, "
            f"{{{projects}}}, {dept['BUDGET']}, {{{equip}}})"
        )
        return Op("object_insert", sql, 1, ("dept_put", dno, dept))

    def _op_partial_insert(self) -> Op:
        dno = self._dno()
        pno = self.rng.choice(list(self.model.depts[dno]["PROJECTS"]))
        empno = self.state.empnos.take()
        function = self.rng.choice(FUNCTIONS[1:])
        sql = (
            "INSERT INTO y.MEMBERS FROM x IN DEPARTMENTS, y IN x.PROJECTS "
            f"WHERE x.DNO = {dno} AND y.PNO = {pno} "
            f"VALUES ({empno}, {_sql_str(function)})"
        )
        return Op("partial_insert", sql, 1, ("member_put", dno, pno, empno, function))

    def _op_partial_update(self) -> Op:
        dno = self._dno()
        pno = self.rng.choice(list(self.model.depts[dno]["PROJECTS"]))
        pname = f"PRJ{pno}-{_name(self.rng, 3)}"
        sql = (
            f"UPDATE y FROM x IN DEPARTMENTS, y IN x.PROJECTS SET PNAME = "
            f"{_sql_str(pname)} WHERE x.DNO = {dno} AND y.PNO = {pno}"
        )
        return Op("partial_update", sql, 1, ("pname_set", dno, pno, pname))

    def _op_partial_delete(self) -> Op:
        dno, pno, empno = self._member()
        sql = (
            "DELETE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS "
            f"WHERE x.DNO = {dno} AND y.PNO = {pno} AND z.EMPNO = {empno}"
        )
        return Op("partial_delete", sql, 1, ("member_del", dno, pno, empno))


def build_tape(spec: Spec, seed: int, count: int) -> tuple[Model, list[Op]]:
    """The initial model and a tape of *count* statements for *seed*."""
    model, state = generate(spec, seed)
    initial = model.copy()
    tape = TapeBuilder(spec, seed, model, state).build(count)
    return initial, tape


def replay(initial: Model, tape: list[Op], executed: int) -> Model:
    """The model after the first *executed* statements of *tape*."""
    model = initial.copy()
    for op in tape[:executed]:
        if op.effect is not None:
            model.apply(op.effect)
    return model


def repeat_share(tape: list[Op]) -> float:
    """Share of statements whose exact text already appeared earlier."""
    seen: set = set()
    repeats = 0
    for op in tape:
        if op.sql in seen:
            repeats += 1
        seen.add(op.sql)
    return repeats / len(tape) if tape else 0.0
