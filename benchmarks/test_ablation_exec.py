"""Ablation A14 — the execution core's three structural wins, gated on
exact work counters.

The executor compiles each statement into Python closures once (cached
by AST fingerprint) and adds three structural wins on top:

* **columnar flat scans** — a flat-table scan decodes heap tuples in
  batches of 256 (``Database.scan_chunks``) and builds tuple objects only
  for qualifying rows;
* **settled conjuncts** — WHERE conjuncts the planner answered from
  index information alone (Section 4.2) are dropped from the residual
  predicate instead of being re-tested per row;
* **lazy object decode** — NF2 candidates materialize data subtuples on
  first touch, so a settled predicate plus a root-atomic projection
  never reads the nested hierarchy's data pages.

Three workloads, one per win, at scale ``REPRO_EXEC_SCALE`` (default 32):

* **A1-style** — flat scan + filter + ORDER BY over ``scale * 100``
  heap tuples: exactly ``ceil(rows / 256)`` columnar chunks.
* **A3-style** — the Section 4.2 conjunctive query ("project *p* with a
  consultant in project *p*") over DEPARTMENTS, answered by two
  hierarchical indexes whose shared binding prefix settles the conjunct.
* **A6-style** — an indexed root predicate settles, and lazy decode
  skips both subtable hierarchies.

A3 and A6 must settle their one conjunct, evaluate no residual
predicate, and decode exactly one data subtuple (the root's) per row
emitted.  The counters are deterministic, so the gates are exact.  Each
result must also match the reference evaluator (``tests/oracle.py``).
Emits ``ablation_exec.txt`` and ``BENCH_exec_gates.json`` into
``benchmarks/out/``; ``BENCH_exec.json`` there keeps the historical
speedups over the row-at-a-time interpreter this executor replaced.
"""

import math
import os
import time
from collections import Counter

from repro.database import Database
from repro.datasets import DepartmentsGenerator, paper
from repro.obs import METRICS

from _bench_utils import emit, emit_json
from tests import oracle

SCALE = int(os.environ.get("REPRO_EXEC_SCALE", "32"))
ITERATIONS = int(os.environ.get("REPRO_EXEC_ITERATIONS", "10"))
ROUNDS = int(os.environ.get("REPRO_EXEC_ROUNDS", "3"))

FLAT_ROWS = SCALE * 100
CHUNK_ROWS = 256  # Database.scan_chunks' default batch

WORKLOAD = DepartmentsGenerator(
    departments=SCALE * 4, projects_per_department=4, members_per_project=6,
    consultant_share=0.08, seed=77,
)

QUERIES = {
    "a1_flat_scan": (
        "SELECT e.ID, e.SAL FROM e IN EMPFLAT "
        "WHERE e.GRP = 'g3' AND e.SAL > 1500 ORDER BY e.SAL DESC"
    ),
    "a3_conjunctive": (
        "SELECT x.DNO FROM x IN DEPARTMENTS "
        "WHERE EXISTS y IN x.PROJECTS (y.PNO = 12 AND "
        "EXISTS z IN y.MEMBERS z.FUNCTION = 'Consultant')"
    ),
    "a6_root_projection": (
        "SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS "
        "WHERE x.BUDGET >= 300000 ORDER BY x.DNO"
    ),
}


def build() -> Database:
    db = Database(buffer_capacity=4096)
    db.execute("CREATE TABLE EMPFLAT (ID INT, GRP STRING, SAL INT)")
    db.insert_many(
        "EMPFLAT",
        (
            {"ID": i, "GRP": f"g{i % 7}", "SAL": 1000 + (i * 37) % 2000}
            for i in range(FLAT_ROWS)
        ),
    )
    db.create_table(paper.DEPARTMENTS_SCHEMA)
    db.insert_many("DEPARTMENTS", WORKLOAD.rows())
    db.create_index("BUD", "DEPARTMENTS", "BUDGET")
    db.create_index("PN_HIER", "DEPARTMENTS", "PROJECTS.PNO")
    db.create_index("FN_HIER", "DEPARTMENTS", "PROJECTS.MEMBERS.FUNCTION")
    return db


def counted(db: Database, sql: str) -> tuple[dict, list]:
    """One execution's engine counter deltas and its canonical rows."""
    was_enabled = METRICS.enabled
    METRICS.enable()
    try:
        before = METRICS.totals()
        result = db.query(sql)
        return METRICS.delta(before), [row.canonical() for row in result.rows]
    finally:
        METRICS.enabled = was_enabled


def best_ms(db: Database, sql: str) -> float:
    """min-of-rounds ms per execution."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(ITERATIONS):
            db.query(sql)
        best = min(best, time.perf_counter() - start)
    return best / ITERATIONS * 1000.0


def test_exec_ablation():
    db = build()
    try:
        counters: dict = {}
        rows: dict = {}
        timings: dict = {}
        for name, sql in QUERIES.items():
            db.query(sql)  # warm: compile and cache the statement
            delta, result = counted(db, sql)
            expected, _total = oracle.query(db, sql)
            assert Counter(result) == Counter(expected), name
            assert result, f"{name}: an empty result measures nothing"
            counters[name] = {
                key: delta.get(key, 0)
                for key in (
                    "exec.columnar_chunks",
                    "exec.settled_conjuncts",
                    "query.predicate_evals",
                    "query.rows_emitted",
                    "storage.data_subtuple_decodes",
                )
            }
            rows[name] = len(result)
            timings[name] = best_ms(db, sql)

        lines = [
            f"scale {SCALE}: {FLAT_ROWS} flat tuples, "
            f"{WORKLOAD.departments} departments x "
            f"{WORKLOAD.projects_per_department} projects x "
            f"{WORKLOAD.members_per_project} members; "
            f"{ITERATIONS} iterations x {ROUNDS} rounds (min)",
            "",
            f"  {'workload':>20} {'ms':>8} {'rows':>6} {'chunks':>7} "
            f"{'settled':>8} {'evals':>6} {'decodes':>8}",
        ]
        for name in QUERIES:
            c = counters[name]
            lines.append(
                f"  {name:>20} {timings[name]:>8.3f} {rows[name]:>6} "
                f"{c['exec.columnar_chunks']:>7g} "
                f"{c['exec.settled_conjuncts']:>8g} "
                f"{c['query.predicate_evals']:>6g} "
                f"{c['storage.data_subtuple_decodes']:>8g}"
            )
        emit("ablation_exec", "\n".join(lines))
        emit_json(
            "BENCH_exec_gates",
            {
                "scale": SCALE,
                "flat_rows": FLAT_ROWS,
                "iterations": ITERATIONS,
                "rounds": ROUNDS,
                "ms": {k: round(v, 4) for k, v in timings.items()},
                "rows": rows,
                "counters": counters,
            },
        )

        a1 = counters["a1_flat_scan"]
        assert a1["exec.columnar_chunks"] == math.ceil(FLAT_ROWS / CHUNK_ROWS)
        for name in ("a3_conjunctive", "a6_root_projection"):
            c = counters[name]
            assert c["exec.settled_conjuncts"] == 1, name
            assert c["query.predicate_evals"] == 0, name
            assert c["query.rows_emitted"] == rows[name], name
            assert c["storage.data_subtuple_decodes"] == rows[name], (
                f"{name}: {c['storage.data_subtuple_decodes']} data subtuple "
                f"decodes for {rows[name]} rows (one root subtuple per row)"
            )
    finally:
        db.close()
