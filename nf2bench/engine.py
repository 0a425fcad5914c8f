"""Build a workload's database and run its tape in process, closed loop.

One client executes the tape statement by statement through
``Database.execute``; the next statement starts when the previous one
has returned and its result has been checked.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from array import array

from repro.database import Database

import checks
import speed
from layers import PROBES, Totals, statement_counts
from tracer import LayerTracer
from workloads import (
    DEPARTMENTS_DDL,
    EMPLOYEES_DDL,
    INDEX_DDL,
    REPORTS_DDL,
    Model,
    Op,
    Spec,
)

#: buffer pool while bulk loading: one ``insert_many`` is one WAL commit
#: whose dirty pages must all stay cached, so every workload loads
#: through a large pool and reopens with its own
LOAD_FRAMES = 4096
#: length of one traced or untraced block of a traced run (seconds)
TRACE_BLOCK_S = 1.0


def db_files(path: str) -> list[str]:
    return [p for p in (path, path + ".wal", path + ".catalog.json") if os.path.exists(p)]


def build(directory: str, spec: Spec, model: Model) -> tuple[Database, str, float]:
    """Create, load and index the database, then reopen it with the
    workload's buffer pool.  Returns the open database, its path and the
    seconds it took (bulk load, index builds, close, first open) at the
    reference speed of :mod:`speed`."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "bench.aim")
    before = speed.probes()
    start = time.perf_counter()
    db = Database(path=path, buffer_capacity=LOAD_FRAMES)
    for ddl in (DEPARTMENTS_DDL, EMPLOYEES_DDL, REPORTS_DDL):
        db.execute(ddl)
    db.insert_many("DEPARTMENTS", [model.dept_row(d) for d in model.depts])
    db.insert_many("EMPLOYEES", [model.emp_row(e) for e in model.emps])
    db.insert_many("REPORTS", [model.report_row(r) for r in model.reports])
    for ddl in INDEX_DDL:
        db.execute(ddl)
    db.close()
    db = Database(path=path, buffer_capacity=spec.buffer_frames)
    seconds = time.perf_counter() - start
    return db, path, seconds * speed.scale(before + speed.probes())


def build_times(root: str, spec: Spec, model: Model, repeats: int) -> list[float]:
    """Build *repeats* more times, each from scratch; returns the build
    seconds (see :func:`build`)."""
    times = []
    for n in range(repeats):
        directory = os.path.join(root, f"build{n}")
        db, _path, seconds = build(directory, spec, model)
        db.close()
        shutil.rmtree(directory)
        times.append(seconds)
    return times


class RunLog:
    """What a run saw, statement by statement.

    Latencies and completion times go to arrays of one slot per tape
    statement, allocated up front, so recording them does not grow the
    process while the run's peak memory is being measured.
    """

    def __init__(self, tape_length: int):
        #: ms per tape position; set for the timed statements only
        self.latency_ms = array("d", bytes(8 * tape_length))
        #: seconds of timed run, probes left out, up to each timed
        #: statement's completion
        self.done_s = array("d", bytes(8 * tape_length))
        #: perf_counter() when timing began, moved on past every probe
        self.clock_start = 0.0
        #: (seconds of timed run, probe ms) of every speed probe
        self.probes: list = []
        self.timed_start = 0
        self.timed_stop = 0  # one past the last timed statement
        self.executed = 0  # tape statements executed, warm-up included
        self.errors = 0
        self.wrong = 0
        self.first_error = ""
        self.traced_ms: list = []
        self.untraced_ms: list = []
        self.traced_statements = 0
        self.traced_writes = 0

    def note_failure(self, op: Op, what: str) -> None:
        if not self.first_error:
            self.first_error = f"{op.kind}: {what} [{op.sql[:120]}]"

    def note_timed(self, position: int, op: Op, latency: float,
                   traced: bool | None) -> None:
        """Record the timed statement at tape *position*; *traced* is None
        outside a traced run, else whether it ran in a traced block."""
        self.latency_ms[position] = latency
        self.done_s[position] = time.perf_counter() - self.clock_start
        if traced is None:
            return
        (self.traced_ms if traced else self.untraced_ms).append(latency)
        if traced:
            self.traced_statements += 1
            self.traced_writes += not op.is_read

    def probe(self) -> None:
        """Time the speed probe; its time is not part of the run's."""
        start = time.perf_counter()
        self.probes.append((start - self.clock_start, speed.probe()))
        self.clock_start += time.perf_counter() - start

    def scales(self) -> list[float]:
        """Per timed statement, in tape order, the factor that turns its
        times into times at the reference speed (see :mod:`speed`)."""
        positions = range(self.timed_start, self.timed_stop)
        if not positions:
            return []
        buckets = speed.bucket_scales(
            self.probes, max(self.done_s[n] for n in positions))
        return [buckets[int(self.done_s[n] / speed.BUCKET_S)] for n in positions]

    def timed(self, tape: list[Op], reads: bool, scales: list[float]) -> list[float]:
        """Latencies of the timed reads (or writes) at the reference
        speed, in tape order."""
        return [
            self.latency_ms[n] * scale
            for n, scale in zip(range(self.timed_start, self.timed_stop), scales)
            if tape[n].is_read == reads
        ]

    def reference_s(self, scales: list[float]) -> float:
        """The timed run's elapsed seconds at the reference speed."""
        total = previous = 0.0
        for n, scale in zip(range(self.timed_start, self.timed_stop), scales):
            total += (self.done_s[n] - previous) * scale
            previous = self.done_s[n]
        return total


def _execute(db: Database, op: Op, log: RunLog) -> float:
    """Run one statement; returns its latency in ms and records failures."""
    start = time.perf_counter()
    try:
        result = db.execute(op.sql)
    except Exception as exc:  # a failed statement is counted, not fatal
        elapsed = (time.perf_counter() - start) * 1000.0
        log.errors += 1
        log.note_failure(op, f"{type(exc).__name__}: {exc}")
        return elapsed
    elapsed = (time.perf_counter() - start) * 1000.0
    if not checks.check_result(op, result):
        log.wrong += 1
        log.note_failure(op, "wrong result")
    return elapsed


def run_untimed(db: Database, tape: list[Op], start: int, stop: int, log: RunLog,
                tracer: LayerTracer | None = None) -> dict:
    """Execute ``tape[start:stop]`` untimed, results checked.  With a
    tracer, returns per-kind exact work counts (the baseline claims)."""
    per_kind: dict[str, list[dict]] = {}
    for op in tape[start:stop]:
        before = statement_counts(Totals(*tracer.totals())) if tracer else None
        _execute(db, op, log)
        if tracer is not None:
            after = statement_counts(Totals(*tracer.totals()))
            per_kind.setdefault(op.kind, []).append(
                {k: after[k] - before[k] for k in after})
    log.executed = stop
    return per_kind


def run_timed(db: Database, tape: list[Op], start_at: int, stop_at: int,
              seconds: float, log: RunLog, tracer: LayerTracer | None) -> None:
    """The closed loop over ``tape[start_at:stop_at]``, timing the speed
    probe between statements every :data:`speed.PROBE_EVERY_S`.  With a
    tracer, alternate untraced and traced blocks of
    :data:`TRACE_BLOCK_S` and collect both latencies."""
    position = log.timed_start = start_at
    begin = log.clock_start = time.perf_counter()
    deadline = begin + seconds
    block_end = begin + TRACE_BLOCK_S
    next_probe = begin
    traced = False
    while position < stop_at:
        now = time.perf_counter()
        if now >= deadline:
            break
        if now >= next_probe:
            log.probe()
            next_probe = time.perf_counter() + speed.PROBE_EVERY_S
        if tracer is not None and now >= block_end:
            traced = not traced
            if traced:
                tracer.install(PROBES)
            else:
                tracer.uninstall()
            block_end = now + TRACE_BLOCK_S
        op = tape[position]
        latency = _execute(db, op, log)
        log.note_timed(position, op, latency, traced if tracer is not None else None)
        position += 1
    if tracer is not None and tracer.installed:
        tracer.uninstall()
    log.executed = log.timed_stop = position


def crash_image(path: str, target: str) -> str:
    """Copy the database files as they are on disk now (what a crash at
    this instant leaves behind); returns the copy's path."""
    os.makedirs(target, exist_ok=True)
    for name in db_files(path):
        shutil.copyfile(name, os.path.join(target, os.path.basename(name)))
    return os.path.join(target, os.path.basename(path))


def recover(image: str, root: str, spec: Spec, model: Model, repeats: int) -> tuple[float, list[str]]:
    """Reopen copies of a crash image (WAL redo included); returns the
    median reopen seconds at the reference speed of :mod:`speed` and the
    state differences seen after the first reopen, ``db.verify()``
    findings included."""
    times = []
    problems: list[str] = []
    for n in range(repeats):
        directory = os.path.join(root, f"recover{n}")
        path = crash_image(image, directory)
        before = speed.probes()
        start = time.perf_counter()
        db = Database(path=path, buffer_capacity=spec.buffer_frames)
        seconds = time.perf_counter() - start
        times.append(seconds * speed.scale(before + speed.probes()))
        try:
            if n == 0:
                problems += checks.check_state(db, model)
                problems += [f"verify: {p}" for p in db.verify()]
        finally:
            db.close()
        shutil.rmtree(directory)
    return statistics.median(times), problems
