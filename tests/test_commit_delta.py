"""Commit records carry catalog deltas, not the whole catalog.

Covered here: the TID set that owns a table's current TIDs (order,
O(1) removal with compaction, in-place replacement, the journal), the
COMMIT payload size of a one-row INSERT (independent of table size), and
recovery equivalence: after every acknowledged commit of a mixed
workload, a crash copy of the database files reopens to exactly the live
catalog (TID order included) with a clean ``verify()``.
"""

import datetime
import os
import shutil

import pytest

from repro.catalog.delta import TidSet, catalog_state, fold, table_states
from repro.database import Database
from repro.errors import ReproError
from repro.storage.tid import TID
from repro.wal.record import REC_COMMIT, decode_catalog, iter_records

FLAT_DDL = "CREATE TABLE FLAT (ID INT, NAME STRING, QTY INT)"
NEST_DDL = (
    "CREATE TABLE NEST (K INT, NOTE STRING, "
    "KIDS TABLE OF (X INT, TAG STRING))"
)
HIST_DDL = "CREATE TABLE HIST (K INT, KIDS TABLE OF (X INT))"
SUB_DDL = "CREATE TABLE SUB (K INT, KIDS TABLE OF (X INT))"


# -- TidSet -------------------------------------------------------------------


def test_tidset_keeps_insertion_order_through_removal_and_replacement():
    tids = TidSet(TID(1, i) for i in range(5))
    tids.remove(TID(1, 1))
    tids.replace(TID(1, 3), TID(9, 9))
    tids.append(TID(1, 1))
    assert tids.as_list() == [TID(1, 0), TID(1, 2), TID(9, 9), TID(1, 4), TID(1, 1)]
    assert TID(9, 9) in tids and TID(1, 3) not in tids
    assert len(tids) == 5 and tids[2] == TID(9, 9) and tids[-1] == TID(1, 1)


def test_tidset_compacts_and_rejects_bad_changes():
    tids = TidSet(TID(0, i) for i in range(200))
    for i in range(0, 199):
        tids.remove(TID(0, i))
    assert tids.as_list() == [TID(0, 199)]
    assert len(tids._slots) < 100  # holes were compacted away
    with pytest.raises(ValueError):
        tids.remove(TID(0, 5))
    with pytest.raises(ValueError):
        tids.append(TID(0, 199))
    with pytest.raises(ValueError):
        TidSet([TID(0, 1), TID(0, 1)])


def test_tidset_journal_replays_to_the_same_order():
    live = TidSet(TID(0, i) for i in range(10))
    live.journal = []
    for i in range(0, 10, 2):
        live.remove(TID(0, i))
    live.replace(TID(0, 5), TID(4, 4))
    live.append(TID(0, 2))
    replica = TidSet(TID(0, i) for i in range(10))
    replica.apply(live.journal)
    assert replica.as_list() == live.as_list()


def test_fold_applies_deltas_and_full_snapshots():
    base = {
        "format": 1,
        "tables": [
            {"segment": {"name": "A", "pages": [1], "free_pages": [7]},
             "tids": [[1, 0]]},
            {"segment": {"name": "B", "pages": [2], "free_pages": []},
             "tids": []},
        ],
    }
    tables = table_states(base)
    fold(tables, {
        "format": 1, "delta": 1, "dropped": ["B"],
        "tables": {"A": {"tids": [[1, 1, 1], [0, 1, 0]],
                         "pages": [[1, 7], [0, 1]]}},
    })
    assert catalog_state(tables) == {"format": 1, "tables": [
        {"segment": {"name": "A", "pages": [7], "free_pages": [1]},
         "tids": [[1, 1]]},
    ]}
    fold(tables, base)
    assert catalog_state(tables) == base


# -- COMMIT payload size ---------------------------------------------------------


def _last_commit_payload(db):
    with open(db._wal_path, "rb") as handle:
        records = list(iter_records(handle.read()))
    return [r.payload for r in records if r.type == REC_COMMIT][-1]


def _one_row_insert_commit_bytes(tmp_path, rows):
    db = Database(str(tmp_path / f"size{rows}.db"))
    try:
        db.execute(FLAT_DDL)
        db.insert_many(
            "FLAT", ({"ID": i, "NAME": f"n{i}", "QTY": i % 7} for i in range(rows))
        )
        db.checkpoint()
        db.execute("INSERT INTO FLAT VALUES (999999, 'new', 1)")
        payload = _last_commit_payload(db)
        assert decode_catalog(payload)["tables"]["FLAT"]["tids"]
        return len(payload)
    finally:
        db.close()


def test_one_row_insert_commit_does_not_grow_with_the_table(tmp_path):
    small = _one_row_insert_commit_bytes(tmp_path, 1_000)
    large = _one_row_insert_commit_bytes(tmp_path, 20_000)
    assert abs(large - small) <= 64, (small, large)
    assert large < 512 and small < 512, (small, large)


# -- recovery equivalence ----------------------------------------------------------


def _catalog_without_stats(db):
    """The full catalog state minus index statistics: commit deltas do
    not carry them, and reopen re-derives them exactly."""
    state = db._catalog_state()
    for table_state in state["tables"]:
        for index_state in table_state["indexes"]:
            index_state.pop("stats")
    return state


def _contents(db):
    return {
        entry.name: [db._fetch(entry, tid).to_plain() for tid in entry.tids]
        for entry in db.catalog.tables()
    }


def _day(i):
    return datetime.date(2000, 1, 1) + datetime.timedelta(days=i)


def _mixed_workload():
    """(label, operation) pairs; each operation is one acknowledged unit."""
    ops = []

    def op(label):
        def register(fn):
            ops.append((label, fn))
            return fn
        return register

    op("ddl flat")(lambda db: db.execute(FLAT_DDL))
    op("ddl nest")(lambda db: db.execute(NEST_DDL))
    op("index flat")(lambda db: db.create_index("FLAT_ID", "FLAT", "ID"))
    op("index nest")(lambda db: db.create_index("NEST_X", "NEST", ("KIDS", "X")))
    op("ddl versioned")(lambda db: db.create_table(HIST_DDL, versioned=True))
    op("ddl subtuple")(
        lambda db: db.create_table(SUB_DDL, versioned=True, versioning="subtuple")
    )
    for i in range(40):
        op(f"flat insert {i}")(
            lambda db, i=i: db.execute(
                f"INSERT INTO FLAT VALUES ({i}, 'n{i}', {i % 5})"
            )
        )
        if i % 4 == 0:
            op(f"nest insert {i}")(
                lambda db, i=i: db.insert(
                    "NEST",
                    {"K": i, "NOTE": "x" * (i * 40),
                     "KIDS": [{"X": j, "TAG": f"t{j}"} for j in range(i % 7)]},
                )
            )
        if i % 5 == 1:
            op(f"flat update {i}")(
                lambda db, i=i: db.execute(
                    f"UPDATE FLAT x SET QTY = {100 + i} WHERE x.ID = {i - 1}"
                )
            )
        if i % 6 == 2:
            op(f"flat delete {i}")(
                lambda db, i=i: db.execute(f"DELETE FROM FLAT x WHERE x.ID = {i - 2}")
            )
        if i % 8 == 4:
            op(f"partial insert {i}")(
                lambda db, i=i: db.execute(
                    f"INSERT INTO x.KIDS FROM x IN NEST WHERE x.K = {i - 4} "
                    f"VALUES ({i}, 'p{i}')"
                )
            )
        if i % 8 == 6:
            op(f"partial update {i}")(
                lambda db, i=i: db.execute(
                    # one element: under MVCC a multi-element partial
                    # UPDATE of one object fails on the second element
                    # (test_mvcc.py::test_partial_update_of_two_elements_
                    # of_one_object records the defect)
                    "UPDATE y FROM x IN NEST, y IN x.KIDS "
                    f"SET TAG = 'u{i}' WHERE x.K = {i - 6} AND y.X = 0"
                )
            )
        if i % 12 == 7:
            op(f"partial delete {i}")(
                lambda db, i=i: db.execute(
                    "DELETE y FROM x IN NEST, y IN x.KIDS "
                    f"WHERE x.K = {i - 7} AND y.X = 0"
                )
            )
        if i % 10 == 3:
            op(f"versioned insert {i}")(
                lambda db, i=i: db.insert(
                    "HIST", {"K": i, "KIDS": [{"X": i}]},
                    at=_day(i),
                )
            )
            op(f"subtuple insert {i}")(
                lambda db, i=i: db.insert("SUB", {"K": i, "KIDS": [{"X": i}]})
            )
        if i % 10 == 9:
            op(f"versioned update {i}")(
                lambda db, i=i: db.update(
                    "HIST", db.tids("HIST")[0], {"K": 1000 + i},
                    at=_day(i),
                )
            )
            op(f"subtuple update {i}")(
                lambda db, i=i: db.update(
                    "SUB", db.tids("SUB")[-1], {"K": 2000 + i}
                )
            )
        if i == 20:
            op("nest delete")(
                lambda db: db.execute("DELETE x FROM x IN NEST WHERE x.K = 4")
            )
            op("versioned delete")(
                lambda db: db.delete("HIST", db.tids("HIST")[-1], at=_day(20))
            )
            op("subtuple delete")(lambda db: db.delete("SUB", db.tids("SUB")[0]))

    def convert_abort(db):
        # the third row fails validation after two rows are in: the scope
        # aborts and commits the converged in-memory state
        with pytest.raises(ReproError):
            db.insert_many("FLAT", [
                {"ID": 500, "NAME": "a", "QTY": 1},
                {"ID": 501, "NAME": "b", "QTY": 2},
                {"ID": 502, "NAME": "c", "QTY": "not a number"},
            ])
        assert {500, 501} <= {row["ID"] for row in db.iterate_table("FLAT")}

    def rollback(db):
        with pytest.raises(KeyError):
            with db.transaction():
                db.execute("INSERT INTO FLAT VALUES (600, 'gone', 0)")
                db.execute("DELETE FROM FLAT x WHERE x.ID = 7")
                db.execute("UPDATE FLAT x SET QTY = 0 WHERE x.ID = 8")
                raise KeyError("rolled back on purpose")
        assert 600 not in {row["ID"] for row in db.iterate_table("FLAT")}

    def committed_txn(db):
        with db.transaction():
            db.execute("INSERT INTO FLAT VALUES (700, 'kept', 1)")
            db.execute("DELETE FROM FLAT x WHERE x.ID = 9")

    ops.insert(30, ("convert-abort", convert_abort))
    ops.insert(45, ("rollback", rollback))
    ops.insert(60, ("transaction", committed_txn))
    ops.append(("alter", lambda db: db.alter_table("FLAT", "add", "NOTE", "STRING")))
    ops.append(("drop index", lambda db: db.drop_index("NEST_X")))
    ops.append(("drop + recreate", lambda db: (
        db.drop_table("SUB"), db.create_table(SUB_DDL),
        db.insert("SUB", {"K": 1, "KIDS": []}),
    )))
    ops.append(("after ddl", lambda db: db.execute(
        "INSERT INTO FLAT VALUES (800, 'late', 2, 'note')"
    )))
    return ops


@pytest.mark.parametrize("mvcc", [False, True], ids=["2pl", "mvcc"])
def test_crash_copies_recover_the_live_catalog(tmp_path, mvcc):
    # under MVCC, updates are copy-on-write: their TID journal holds
    # in-place replacements, which recovery must replay in position
    live_path = str(tmp_path / "live.db")
    db = Database(live_path, wal_auto_checkpoint_bytes=16 * 1024, mvcc=mvcc)
    try:
        for step, (label, operation) in enumerate(_mixed_workload()):
            operation(db)
            # a crash copy: the files exactly as the acknowledged commit
            # left them, the live database still open
            copy_dir = tmp_path / f"crash{step}"
            copy_dir.mkdir()
            for suffix in ("", ".wal", ".catalog.json"):
                if os.path.exists(live_path + suffix):
                    shutil.copy(live_path + suffix, copy_dir / ("c.db" + suffix))
            reopened = Database(str(copy_dir / "c.db"), mvcc=mvcc)
            try:
                assert _catalog_without_stats(reopened) == _catalog_without_stats(db), label
                assert _contents(reopened) == _contents(db), label
                assert reopened.verify() == [], label
            finally:
                reopened.close()
            shutil.rmtree(copy_dir)
        # the workload crossed at least two auto-checkpoints, so later
        # copies fold deltas onto a mid-run checkpoint, not the first one
        assert db.wal.checkpoints >= 3
        assert db.wal.aborts >= 2
    finally:
        db.close()
