"""Generated SELECTs over the paper's schemas, checked against the
reference evaluator (``tests/oracle.py``).

The strategy builds type-correct statements over DEPARTMENTS, REPORTS and
the flat PROJECTS-1NF: nested ranges, EXISTS/ALL (nested too),
subscripts, CONTAINS, IS NULL, aggregates, correlated sub-SELECTs,
DISTINCT and ORDER BY.  Each statement runs on a database without
indexes and on one with value indexes on most attributes, so both the
scan and the planned (index, settled-conjunct, join-lookup, sort-elision)
paths meet the oracle.  Rows with NULLs and empty subtables are added to
the paper's data so that NULL propagation and vacuous quantifiers show.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.database import Database

from tests.conftest import load_paper_tables
from tests.test_compile import run_both

#: tuple-variable kinds: their atomic attributes and their subtables
ATOMS = {
    "DEPT": ("DNO", "MGRNO", "BUDGET"),
    "PROJ": ("PNO", "PNAME"),
    "MEMB": ("EMPNO", "FUNCTION"),
    "EQUIP": ("QU", "TYPE"),
    "REP": ("REPNO", "TITLE"),
    "AUTH": ("NAME",),
    "DESC": ("KEYWORD", "WEIGHT"),
    "P1NF": ("PNO", "PNAME", "DNO"),
}
CHILDREN = {
    "DEPT": (("PROJECTS", "PROJ"), ("EQUIP", "EQUIP")),
    "PROJ": (("MEMBERS", "MEMB"),),
    "REP": (("AUTHORS", "AUTH"), ("DESCRIPTORS", "DESC")),
}
STRINGS = {"PNAME", "FUNCTION", "TYPE", "REPNO", "TITLE", "NAME", "KEYWORD"}
OPS = ("=", "<>", "<", "<=", ">", ">=")

INDEXES = [
    ("DEPARTMENTS", "DNO"),
    ("DEPARTMENTS", "BUDGET"),
    ("DEPARTMENTS", "PROJECTS.PNO"),
    ("DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION"),
    ("DEPARTMENTS", "PROJECTS.MEMBERS.EMPNO"),
    ("DEPARTMENTS", "EQUIP.TYPE"),
    ("REPORTS", "REPNO"),
    ("REPORTS", "DESCRIPTORS.KEYWORD"),
    ("PROJECTS-1NF", "DNO"),
    ("PROJECTS-1NF", "PNO"),
]


def build_fuzz_db(indexed: bool) -> Database:
    """The paper's tables plus NULLs and empty subtables."""
    db = Database()
    load_paper_tables(db)
    db.insert("DEPARTMENTS", {
        "DNO": 512, "MGRNO": None, "BUDGET": None, "EQUIP": [],
        "PROJECTS": [{"PNO": 41, "PNAME": None, "MEMBERS": []}],
    })
    db.insert("DEPARTMENTS", {
        "DNO": 600, "MGRNO": 56194, "BUDGET": 320000, "PROJECTS": [],
        "EQUIP": [{"QU": None, "TYPE": "PC"}],
    })
    db.insert("REPORTS", {
        "REPNO": "0300", "AUTHORS": [], "TITLE": None, "DESCRIPTORS": [],
    })
    if indexed:
        for number, (table, path) in enumerate(INDEXES):
            db.create_index(f"FZ{number}", table, path)
    return db


def _pools() -> dict:
    """Every non-NULL value of each atomic attribute, from the data."""
    pools: dict = {}

    def visit(row) -> None:
        for attr in row.schema.attributes:
            value = row[attr.name]
            if attr.is_table:
                for child in value.rows:
                    visit(child)
            elif value is not None:
                pools.setdefault(attr.name, set()).add(value)

    db = build_fuzz_db(indexed=False)
    try:
        for table in ("DEPARTMENTS", "REPORTS", "PROJECTS-1NF"):
            for row in db.table_value(table).rows:
                visit(row)
    finally:
        db.close()
    return {name: sorted(values) for name, values in pools.items()}


POOLS = _pools()


def literal(value) -> str:
    return f"'{value}'" if isinstance(value, str) else repr(value)


@st.composite
def constants(draw, attr: str) -> str:
    value = draw(st.sampled_from(POOLS[attr]))
    if not isinstance(value, str) and draw(st.booleans()):
        value += 1  # a value between (or past) the stored ones
    return literal(value)


@st.composite
def masks(draw, attr: str) -> str:
    """A masked-search pattern cut from a stored string."""
    text = draw(st.sampled_from(POOLS[attr]))
    start = draw(st.integers(0, len(text) - 1))
    piece = text[start:start + draw(st.integers(1, 4))]
    if draw(st.booleans()):
        piece = piece.lower()
    if len(piece) > 1 and draw(st.booleans()):
        piece = piece[0] + "?" + piece[2:]
    return "'" + draw(st.sampled_from(["", "*"])) + piece + draw(
        st.sampled_from(["", "*"])) + "'"


@st.composite
def predicates(draw, scope: tuple, depth: int) -> str:
    """A predicate over the variables in *scope* ((var, kind) pairs)."""
    var, kind = draw(st.sampled_from(scope))
    forms = ["compare", "contains", "null", "compare"]
    if depth > 0:
        forms += ["and_or", "not"]
        if kind in CHILDREN:  # first: hypothesis leans to early choices
            forms = ["quantifier", "quantifier", "count"] + forms
    if kind == "REP":
        forms += ["subscript"]
    form = draw(st.sampled_from(forms))
    strings = [attr for attr in ATOMS[kind] if attr in STRINGS]
    if form == "contains" and not strings:
        form = "null"
    if form == "compare":
        attr = draw(st.sampled_from(ATOMS[kind]))
        op = draw(st.sampled_from(OPS))
        peers = [(v, a) for v, k in scope for a in ATOMS[k]
                 if (a in STRINGS) == (attr in STRINGS) and (a == "WEIGHT") == (attr == "WEIGHT")]
        if draw(st.booleans()):
            other_var, other = draw(st.sampled_from(peers))
            return f"{var}.{attr} {op} {other_var}.{other}"
        return f"{var}.{attr} {op} {draw(constants(attr))}"
    if form == "contains":
        attr = draw(st.sampled_from(strings))
        negated = draw(st.sampled_from(["", "NOT "]))
        return f"{var}.{attr} {negated}CONTAINS {draw(masks(attr))}"
    if form == "null":
        attr = draw(st.sampled_from(ATOMS[kind]))
        return f"{var}.{attr} IS {draw(st.sampled_from(['', 'NOT ']))}NULL"
    if form == "and_or":
        left = draw(predicates(scope, depth - 1))
        right = draw(predicates(scope, depth - 1))
        return f"({left} {draw(st.sampled_from(['AND', 'OR']))} {right})"
    if form == "not":
        return f"NOT ({draw(predicates(scope, depth - 1))})"
    if form == "quantifier":
        return draw(quantifiers(scope, var, kind, depth))
    if form == "count":
        child, _child_kind = draw(st.sampled_from(CHILDREN[kind]))
        return f"COUNT({var}.{child}) {draw(st.sampled_from(OPS))} {draw(st.integers(0, 4))}"
    position = draw(st.integers(1, 3))  # subscript on the ordered AUTHORS list
    if draw(st.booleans()):
        return f"{var}.AUTHORS[{position}] = {draw(constants('NAME'))}"
    if draw(st.booleans()):
        return f"{var}.AUTHORS[{position}].NAME IS NULL"
    return f"{var}.AUTHORS[{position}].NAME CONTAINS {draw(masks('NAME'))}"


@st.composite
def quantifiers(draw, scope: tuple, var: str, kind: str, depth: int) -> str:
    """EXISTS/ALL over one of *var*'s subtables; the body may nest more."""
    child, child_kind = draw(st.sampled_from(CHILDREN[kind]))
    inner = f"q{len(scope)}"
    body = draw(predicates(scope + ((inner, child_kind),), depth - 1))
    quantifier = draw(st.sampled_from(["EXISTS", "ALL"]))
    return f"{quantifier} {inner} IN {var}.{child}: ({body})"


AGGREGATES = {
    "DEPT": ("COUNT({v}.PROJECTS)", "COUNT({v}.PROJECTS.MEMBERS)",
             "SUM({v}.EQUIP.QU)", "MAX({v}.PROJECTS.MEMBERS.EMPNO)",
             "MIN({v}.EQUIP.TYPE)", "AVG({v}.EQUIP.QU)"),
    "REP": ("COUNT({v}.AUTHORS)", "MAX({v}.DESCRIPTORS.WEIGHT)",
            "COUNT({v}.AUTHORS[2])", "MIN({v}.AUTHORS.NAME)"),
}


@st.composite
def queries(draw) -> str:
    root_table, root_kind = draw(st.sampled_from(
        [("DEPARTMENTS", "DEPT"), ("REPORTS", "REP"), ("PROJECTS-1NF", "P1NF")]))
    scope = (("x", root_kind),)
    ranges = [f"x IN {root_table}"]
    join = None
    # nested ranges re-bind per outer tuple (Example 2 of the paper)
    for depth in range(draw(st.integers(0, 2))):
        var, kind = scope[-1]
        if kind not in CHILDREN:
            break
        child, child_kind = draw(st.sampled_from(CHILDREN[kind]))
        inner = "yz"[depth]
        ranges.append(f"{inner} IN {var}.{child}")
        scope += ((inner, child_kind),)
    if root_kind == "DEPT" and draw(st.integers(0, 3)) == 0:
        ranges.append("p IN PROJECTS-1NF")  # a join, index-probed when indexed
        scope += (("p", "P1NF"),)
        join = "p.DNO = x.DNO"
    items = []
    for var, kind in scope:
        for attr in draw(st.lists(st.sampled_from(ATOMS[kind]), max_size=2, unique=True)):
            items.append(f"{var}.{attr}")
    if root_kind in AGGREGATES and draw(st.booleans()):
        items.append(draw(st.sampled_from(AGGREGATES[root_kind])).format(v="x"))
    if root_kind == "REP" and draw(st.booleans()):
        items.append(f"x.AUTHORS[{draw(st.integers(1, 3))}].NAME")
    if not items:
        items.append(f"x.{ATOMS[root_kind][0]}")
    order = draw(st.lists(st.sampled_from(items), max_size=2, unique=True))
    select = [f"{expr} AS C{number}" for number, expr in enumerate(items)]
    if root_kind == "DEPT" and draw(st.booleans()):
        body = draw(predicates((("s", "PROJ"),) + scope, 1))
        select.append(f"S = (SELECT s.PNO, s.PNAME FROM s IN x.PROJECTS WHERE {body})")
    conditions = draw(st.lists(predicates(scope, 2), max_size=2))
    if root_kind in CHILDREN and draw(st.booleans()):
        conditions.append(draw(quantifiers(scope, "x", root_kind, 2)))
    if join is not None:
        conditions.append(join)
    sql = "SELECT " + ("DISTINCT " if draw(st.booleans()) else "")
    sql += ", ".join(select) + " FROM " + ", ".join(ranges)
    if conditions:
        sql += " WHERE " + " AND ".join(conditions)
    if order:
        sql += " ORDER BY " + ", ".join(
            expr + draw(st.sampled_from(["", " DESC"])) for expr in order)
    return sql


@pytest.fixture(scope="module", params=[False, True], ids=["scan", "indexed"])
def fuzz_db(request):
    """Read-only for the whole module: the statements are SELECTs."""
    db = build_fuzz_db(request.param)
    yield db
    db.close()


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(sql=queries())
def test_generated_queries_match_oracle(fuzz_db, sql):
    expected, got = run_both(fuzz_db, sql)
    assert got == expected, sql
