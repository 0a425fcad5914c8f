"""Which engine functions the traced run wraps, and the per-layer metrics.

Every probe names the ``repro`` layer it charges.  Names a module
imports by value (``from repro.query.parser import parse_statement``)
are wrapped in the module that calls them.  The metric names are the
``per_layer`` entries of ``BENCHMARK.json``; times and counts are per
traced statement, so runs of different lengths compare.
"""

from __future__ import annotations

from tracer import Probe

_DB = "repro.database:Database"
_EXEC = "repro.query.executor:Executor"
_DML = "repro.query.dml:PartialDML"
_COM = "repro.storage.complex_object:ComplexObjectManager"
_OBJ = "repro.storage.complex_object:OpenObject"
_HEAP = "repro.storage.heap:HeapFile"
_NF2 = "repro.index.manager:NF2Index"
_FLAT = "repro.index.manager:FlatIndex"
_TEXT = "repro.index.text:TextIndex"
_CODECS = tuple(f"repro.storage.minidirectory:SS{n}Codec" for n in (1, 2, 3))

PROBES = (
    # statement entry: self time is the engine glue around the layers
    Probe(_DB, "execute", "statement"),
    # query.parser (parse cache lookups count as parsing)
    Probe(_DB, "_parse_cached", "parse"),
    Probe("repro.database", "parse_statement", "parse"),
    # query.binder and query.compile (plan-cache lookups count as compiling)
    Probe("repro.query.binder:Binder", "bind_query", "bind"),
    Probe(_EXEC, "_compiled", "compile"),
    Probe("repro.query.compile", "compile_query", "compile"),
    # query.executor
    Probe(_EXEC, "run", "execute", count_rows=True),
    # query.planner: candidate_roots streams its candidates
    Probe("repro.database", "extract_condition_groups", "plan"),
    Probe("repro.database", "candidate_roots", "plan", stream=True),
    # index probes and maintenance
    *(Probe(t, a, "index.probe", stream=True)
      for t in (_NF2, _FLAT) for a in ("search", "range")),
    Probe(_NF2, "roots_for", "index.probe"),
    *(Probe(_TEXT, a, "index.probe") for a in ("search", "candidate_roots", "estimate")),
    *(Probe(t, a, "index.maint")
      for t, a in ((_NF2, "index_object"), (_NF2, "deindex_object"),
                   (_FLAT, "index_row"), (_FLAT, "deindex_row"),
                   (_TEXT, "index_object"), (_TEXT, "deindex_object"))),
    # DML: row selection, then the changes
    Probe(_DB, "_match_tuples", "dml.select"),
    Probe(_DML, "_enumerate", "dml.select"),
    Probe(_DB, "_fetch", "dml.select", count_in="dml.select"),
    *(Probe(_DB, a, "dml.apply") for a in (
        "insert", "update", "delete",
        "_execute_insert", "_execute_update", "_execute_delete")),
    *(Probe(_DML, a, "dml.apply")
      for a in ("execute_insert", "execute_update", "execute_delete")),
    # storage.minidirectory
    *(Probe(c, "decode_object", "md.decode") for c in _CODECS),
    Probe("repro.storage.complex_object", "decode_root_md", "md.decode"),
    *(Probe(c, "refresh_structure", "md.refresh") for c in _CODECS),
    # storage.subtuple data decode, wrapped where it is called
    *(Probe(m, "decode_data_subtuple", "data.decode") for m in (
        "repro.storage.heap", "repro.storage.minidirectory",
        "repro.storage.complex_object")),
    # storage.complex_object and storage.heap
    *(Probe(t, a, "object.store") for t, a in (
        (_COM, "store"), (_COM, "delete"), (_OBJ, "update_atoms"),
        (_OBJ, "insert_element"), (_OBJ, "delete_element"),
        (_HEAP, "insert"), (_HEAP, "update"), (_HEAP, "delete"))),
    *(Probe(t, a, "object.materialize") for t, a in (
        (_COM, "open"), (_COM, "load"), (_COM, "load_lazy"),
        (_OBJ, "materialize_element"), (_OBJ, "read_atoms"),
        (_HEAP, "fetch"), (_HEAP, "fetch_columns"))),
    # storage.buffer
    Probe("repro.storage.buffer:BufferManager", "fetch", "buffer.fetch"),
    Probe("repro.storage.buffer:BufferManager", "_make_room", "buffer.fetch",
          delta=("stats.evictions", "buffer.evictions")),
    # storage.pagedfile
    Probe("repro.storage.pagedfile:DiskPagedFile", "read_page", "io.read"),
    Probe("repro.storage.pagedfile:DiskPagedFile", "write_page", "io.write"),
    Probe("repro.storage.pagedfile:DiskPagedFile", "allocate_page", "io.write"),
    Probe("repro.storage.pagedfile:DiskPagedFile", "sync", "io.sync"),
    # wal
    Probe("repro.wal.manager:WalManager", "log_commit", "wal.commit"),
    Probe("repro.wal.manager:WalManager", "checkpoint", "wal.checkpoint"),
    Probe("repro.wal.manager:WalIO", "fsync", "wal.fsync"),
    Probe("repro.wal.manager:WalIO", "append", "wal.bytes", sum_len=1),
    # concurrency
    Probe("repro.concurrency.locks:LockManager", "acquire", "lock.acquire"),
)

#: per_layer metric name -> unit; the order BENCHMARK.json lists them
METRICS = {
    "statement.self_ms": "ms/stmt",
    "parse.self_ms": "ms/stmt",
    "parse.calls": "1/stmt",
    "parse.cache_hit_ratio": "ratio",
    "bind.self_ms": "ms/stmt",
    "compile.self_ms": "ms/stmt",
    "compile.calls": "1/stmt",
    "compile.hit_ratio": "ratio",
    "execute.self_ms": "ms/stmt",
    "plan.self_ms": "ms/stmt",
    "plan.candidates_per_row": "ratio",
    "index.probe_ms": "ms/stmt",
    "index.probes": "1/stmt",
    "index.maint_ms": "ms/stmt",
    "index.maint_calls": "1/stmt",
    "dml.select_ms": "ms/stmt",
    "dml.apply_ms": "ms/stmt",
    "dml.rows_examined_per_change": "ratio",
    "md.decode_ms": "ms/stmt",
    "md.decodes": "1/stmt",
    "md.refresh_ms": "ms/stmt",
    "md.refreshes": "1/stmt",
    "data.decode_ms": "ms/stmt",
    "data.decodes": "1/stmt",
    "object.store_ms": "ms/stmt",
    "object.materialize_ms": "ms/stmt",
    "buffer.fetch_ms": "ms/stmt",
    "buffer.fetches": "1/stmt",
    "buffer.hit_ratio": "ratio",
    "buffer.evictions": "1/stmt",
    "io.read_ms": "ms/stmt",
    "io.reads": "1/stmt",
    "io.write_ms": "ms/stmt",
    "io.writes": "1/stmt",
    "io.sync_ms": "ms/stmt",
    "wal.commit_ms": "ms/stmt",
    "wal.commits": "1/stmt",
    "wal.fsync_ms": "ms/stmt",
    "wal.fsyncs": "1/stmt",
    "wal.bytes_per_write": "B/write",
    "wal.checkpoint_ms": "ms/stmt",
    "wal.checkpoints": "1/stmt",
    "lock.acquire_ms": "ms/stmt",
    "lock.acquires": "1/stmt",
    "server.self_ms": "ms/stmt",
    "trace.overhead": "ratio",
    "trace.statements": "count",
    "tape.repeat_share": "ratio",
    "baseline.flat_update.rows_examined": "1/stmt",
    "baseline.flat_update.data_decodes": "1/stmt",
    "baseline.flat_delete.rows_examined": "1/stmt",
    "baseline.flat_delete.data_decodes": "1/stmt",
    "baseline.partial_insert.md_decodes": "1/stmt",
}


class Totals:
    """Sums over the probes of one layer, from :meth:`LayerTracer.totals`."""

    def __init__(self, stats: dict, counts: dict):
        self.stats = stats
        self.counts = counts

    def self_ms(self, layer: str) -> float:
        return sum(v[0] for k, v in self.stats.items() if k.split("|")[0] == layer) / 1e6

    def calls(self, layer: str, *attrs: str) -> int:
        """Calls of *layer*'s probes (only those named *attrs* if given)."""
        total = 0
        for key, value in self.stats.items():
            name, _, probe = key.partition("|")
            if name == layer and (not attrs or probe.rsplit(".", 1)[-1] in attrs):
                total += value[2]
        return total

    def count(self, prefix: str, suffix: str = "") -> int:
        return sum(
            v for k, v in self.counts.items()
            if k.startswith(prefix) and k.endswith(suffix)
        )

    def total_ms(self, key: str) -> float:
        return self.stats.get(key, [0, 0, 0])[1] / 1e6


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: Totals, statements: int, writes: int) -> dict:
    """The per-layer metrics of one traced run (see :data:`METRICS`).

    *statements* is the number of traced statements and *writes* the
    number of them that were writes.
    """
    t = totals

    def per(value: float) -> float:
        return _ratio(value, statements)

    parse_calls = t.calls("parse", "parse_statement")
    compiles = t.calls("compile", "compile_query")
    changes = t.calls("dml.apply", "insert", "update", "delete")
    fetches = t.calls("buffer.fetch", "fetch")
    reads = t.calls("io.read")
    return {
        "statement.self_ms": per(t.self_ms("statement")),
        "parse.self_ms": per(t.self_ms("parse")),
        "parse.calls": per(parse_calls),
        "parse.cache_hit_ratio": 1.0 - _ratio(parse_calls, t.calls("parse", "_parse_cached")),
        "bind.self_ms": per(t.self_ms("bind")),
        "compile.self_ms": per(t.self_ms("compile")),
        "compile.calls": per(compiles),
        "compile.hit_ratio": 1.0 - _ratio(compiles, t.calls("compile", "_compiled")),
        "execute.self_ms": per(t.self_ms("execute")),
        "plan.self_ms": per(t.self_ms("plan")),
        "plan.candidates_per_row": _ratio(
            t.count("plan|", ".items"), t.count("execute.rows")),
        "index.probe_ms": per(t.self_ms("index.probe")),
        "index.probes": per(t.calls("index.probe")),
        "index.maint_ms": per(t.self_ms("index.maint")),
        "index.maint_calls": per(t.calls("index.maint")),
        "dml.select_ms": per(t.self_ms("dml.select")),
        "dml.apply_ms": per(t.self_ms("dml.apply")),
        "dml.rows_examined_per_change": _ratio(t.count("dml.select|"), changes),
        "md.decode_ms": per(t.self_ms("md.decode")),
        "md.decodes": per(t.calls("md.decode", "decode_object")),
        "md.refresh_ms": per(t.self_ms("md.refresh")),
        "md.refreshes": per(t.calls("md.refresh")),
        "data.decode_ms": per(t.self_ms("data.decode")),
        "data.decodes": per(t.calls("data.decode")),
        "object.store_ms": per(t.self_ms("object.store")),
        "object.materialize_ms": per(t.self_ms("object.materialize")),
        "buffer.fetch_ms": per(t.self_ms("buffer.fetch")),
        "buffer.fetches": per(fetches),
        "buffer.hit_ratio": 1.0 - _ratio(reads, fetches) if fetches else 0.0,
        "buffer.evictions": per(t.count("buffer.evictions")),
        "io.read_ms": per(t.self_ms("io.read")),
        "io.reads": per(reads),
        "io.write_ms": per(t.self_ms("io.write")),
        "io.writes": per(t.calls("io.write")),
        "io.sync_ms": per(t.self_ms("io.sync")),
        "wal.commit_ms": per(t.self_ms("wal.commit")),
        "wal.commits": per(t.calls("wal.commit")),
        "wal.fsync_ms": per(t.self_ms("wal.fsync")),
        "wal.fsyncs": per(t.calls("wal.fsync")),
        "wal.bytes_per_write": _ratio(t.count("wal.bytes|"), writes),
        "wal.checkpoint_ms": per(t.self_ms("wal.checkpoint")),
        "wal.checkpoints": per(t.calls("wal.checkpoint")),
        "lock.acquire_ms": per(t.self_ms("lock.acquire")),
        "lock.acquires": per(t.calls("lock.acquire")),
    }


def statement_counts(totals: Totals) -> dict:
    """Work counters of the exact-baseline claims, as plain totals."""
    return {
        "rows_examined": totals.count("dml.select|"),
        "data_decodes": totals.calls("data.decode"),
        "md_decodes": totals.calls("md.decode", "decode_object"),
    }
