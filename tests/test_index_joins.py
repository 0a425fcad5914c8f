"""Tests for index-nested-loop joins (inner ranges answered via indexes)."""

import pytest

from repro.database import Database
from repro.datasets import DepartmentsGenerator, paper


def indexed_paper_db():
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    db.create_table(paper.EMPLOYEES_1NF_SCHEMA)
    db.insert_many(
        "EMPLOYEES-1NF", (r.to_plain() for r in paper.employees_1nf())
    )
    db.create_index("EMP", "EMPLOYEES-1NF", ("EMPNO",))
    return db

JOIN_QUERY = (
    "SELECT x.DNO, e.LNAME FROM x IN DEPARTMENTS, e IN EMPLOYEES-1NF "
    "WHERE x.MGRNO = e.EMPNO"
)


def test_join_through_flat_index_same_answer():
    db = indexed_paper_db()
    with_index = db.query(JOIN_QUERY)
    db.use_access_paths = False
    without = db.query(with_index and JOIN_QUERY)
    assert with_index == without
    assert {r["LNAME"] for r in with_index} == {"Schmidt", "Neumann", "Richter"}


def test_join_through_flat_index_reads_fewer_rows():
    gen = DepartmentsGenerator(departments=40, projects_per_department=1,
                               members_per_project=1, seed=8)
    db = Database(buffer_capacity=4096)
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", gen.rows())
    db.create_table(paper.EMPLOYEES_1NF_SCHEMA)
    db.insert_many("EMPLOYEES-1NF", gen.employees_rows())
    db.create_index("EMP", "EMPLOYEES-1NF", ("EMPNO",))

    db.reset_io_stats()
    db.query(JOIN_QUERY)
    indexed_reads = db.io_stats.logical_reads

    db.use_access_paths = False
    db.reset_io_stats()
    db.query(JOIN_QUERY)
    scan_reads = db.io_stats.logical_reads

    assert indexed_reads < scan_reads


def test_index_join_in_exists_over_stored_table():
    db = indexed_paper_db()
    result = db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS e IN EMPLOYEES-1NF: "
        "(e.EMPNO = x.MGRNO AND e.SEX = 'female')"
    )
    assert result.column("DNO") == [417]


def test_index_join_on_nf2_table_root_index():
    """The inner table can be an NF2 table with a top-level index."""
    db = Database()
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", paper.DEPARTMENTS_ROWS)
    db.create_table(paper.EMPLOYEES_1NF_SCHEMA)
    db.insert_many("EMPLOYEES-1NF", (r.to_plain() for r in paper.employees_1nf()))
    db.create_index("DNO_IDX", "DEPARTMENTS", ("DNO",))
    # join the other way round: EMPLOYEES outer, DEPARTMENTS inner by DNO
    result = db.query(
        "SELECT e.LNAME, d.BUDGET FROM e IN EMPLOYEES-1NF, d IN DEPARTMENTS "
        "WHERE d.DNO = 314 AND e.EMPNO = d.MGRNO"
    )
    assert [(r["LNAME"], r["BUDGET"]) for r in result] == [("Schmidt", 320_000)]


def test_all_quantifier_not_restricted_by_lookup():
    """ALL must see every row — the equality shortcut applies to EXISTS
    only."""
    db = indexed_paper_db()
    # ALL employees have EMPNO = 39582? certainly not
    result = db.query(
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE ALL e IN EMPLOYEES-1NF: e.EMPNO = 39582"
    )
    assert len(result) == 0
