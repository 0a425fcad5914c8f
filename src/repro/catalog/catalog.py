"""The system catalog: tables, their storage, and their access paths.

Each table owns a :class:`~repro.storage.segment.Segment` of the shared
paged file.  Flat (1NF) tables store tuples in a heap (no Mini Directories
— Section 4.1); nested tables store complex objects through a
:class:`~repro.storage.complex_object.ComplexObjectManager`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.catalog.delta import TidSet
from repro.errors import (
    DuplicateIndexError,
    DuplicateTableError,
    UnknownIndexError,
    UnknownTableError,
)
from repro.index.manager import FlatIndex, NF2Index
from repro.index.stats import IndexStatistics
from repro.index.text import TextIndex
from repro.model.schema import TableSchema
from repro.storage.complex_object import ComplexObjectManager
from repro.storage.heap import HeapFile
from repro.storage.segment import Segment
from repro.storage.tid import TID
from repro.temporal.versions import VersionStore

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.mvcc.store import MvccStore
    from repro.temporal.subtuple_versions import TemporalObjectManager

AnyIndex = Union[FlatIndex, NF2Index, TextIndex]


@dataclass
class TableEntry:
    schema: TableSchema
    segment: Segment
    versioned: bool = False
    #: temporal strategy: None, "object" (copy-on-write chains), or
    #: "subtuple" (the paper's subtuple-manager versioning)
    versioning: Optional[str] = None
    heap: Optional[HeapFile] = None                      # flat tables
    manager: Optional[ComplexObjectManager] = None       # nested tables
    #: subtuple-level temporal storage (versioning == "subtuple")
    temporal_manager: Optional["TemporalObjectManager"] = None
    #: current top-level tuples, in insertion order — the one owner of
    #: that list (every mutation journals into the next COMMIT delta)
    tids: TidSet = field(default_factory=TidSet)
    #: logically deleted objects still readable via ASOF (subtuple mode)
    history_tids: list[TID] = field(default_factory=list)
    version_store: Optional[VersionStore] = None
    #: root TID -> version-store object id (object-versioned tables)
    object_ids: dict[TID, int] = field(default_factory=dict)
    indexes: dict[str, AnyIndex] = field(default_factory=dict)
    #: MVCC version metadata (populated when the database runs with
    #: ``mvcc=True``; None under plain 2PL)
    mvcc: Optional["MvccStore"] = None
    #: axis of explicit temporal write stamps ("date"/"logical"); tracked
    #: at the entry level for subtuple-versioned tables, whose manager
    #: keeps no cross-restart state of its own
    timestamp_axis: Optional[str] = None

    @property
    def is_flat(self) -> bool:
        return self.heap is not None

    @property
    def name(self) -> str:
        return self.schema.name

    def value_indexes(self) -> list[Union[FlatIndex, NF2Index]]:
        return [i for i in self.indexes.values() if not isinstance(i, TextIndex)]

    def text_indexes(self) -> list[TextIndex]:
        return [i for i in self.indexes.values() if isinstance(i, TextIndex)]

    def index_stats(self) -> dict[str, "IndexStatistics"]:
        """Cost-model statistics per index (see ``index/stats.py``) — what
        the planner scores and the shell's ``.indexes`` displays."""
        return {name: index.stats for name, index in self.indexes.items()}


class Catalog:
    def __init__(self) -> None:
        self._tables: dict[str, TableEntry] = {}
        self._index_owner: dict[str, str] = {}  # index name -> table name
        # short internal latch: concurrent sessions resolve table/index
        # names while DDL statements mutate the maps
        self._latch = threading.RLock()
        # commit-delta bookkeeping since the last commit (see
        # repro.catalog.delta); kept only while journaling, i.e. while a
        # WAL is attached to log the deltas
        self._journaling = False
        self._full: set[str] = set()  # tables needing a full entry
        self._dropped: list[str] = []

    # -- commit deltas -----------------------------------------------------------

    def start_journal(self) -> None:
        """Record changes from now on (a WAL was attached).  The caller
        checkpoints right after, which clears the first delta."""
        with self._latch:
            self._journaling = True
            for entry in self._tables.values():
                self._attach_journal(entry)

    def _attach_journal(self, entry: TableEntry) -> None:
        entry.tids.journal = [] if self._journaling else None
        entry.segment.journal = [] if self._journaling else None

    def note_full(self, entry: TableEntry) -> None:
        """Log *entry*'s full state at the next commit (a schema change or
        a state with no delta form)."""
        if self._journaling:
            self._full.add(entry.name)

    def delta(self, table_state: Callable[[TableEntry], dict]) -> dict:
        """The catalog changes since the last commit, as a COMMIT payload;
        *table_state* serializes one entry in full.  Object- and
        subtuple-versioned tables log full entries whenever they change
        (their version-store state has no delta form)."""
        with self._latch:
            full: list[dict] = []
            tables: dict[str, dict] = {}
            for entry in self._tables.values():
                name = entry.name
                tid_ops = entry.tids.journal or ()
                page_ops = entry.segment.journal or ()
                if name in self._full or (
                    entry.versioning is not None and (tid_ops or page_ops)
                ):
                    full.append(table_state(entry))
                elif tid_ops or page_ops:
                    change: dict = {}
                    if tid_ops:
                        change["tids"] = tid_ops
                    if page_ops:
                        change["pages"] = page_ops
                    tables[name] = change
            payload: dict = {"format": 1, "delta": 1}
            if self._dropped:
                payload["dropped"] = self._dropped
            if full:
                payload["full"] = full
            if tables:
                payload["tables"] = tables
            return payload

    def clear_delta(self) -> None:
        """Start the next delta: the last one is durable (committed or
        folded into a checkpoint)."""
        with self._latch:
            for entry in self._tables.values():
                self._attach_journal(entry)
            self._full = set()
            self._dropped = []

    # -- tables -------------------------------------------------------------------

    def add_table(self, entry: TableEntry) -> None:
        with self._latch:
            if entry.name in self._tables:
                raise DuplicateTableError(f"table {entry.name!r} already exists")
            self._tables[entry.name] = entry
            self._attach_journal(entry)
            self.note_full(entry)

    def table(self, name: str) -> TableEntry:
        with self._latch:
            entry = self._tables.get(name)
        if entry is None:
            raise UnknownTableError(f"no table named {name!r}")
        return entry

    def has_table(self, name: str) -> bool:
        with self._latch:
            return name in self._tables

    def drop_table(self, name: str) -> TableEntry:
        with self._latch:
            entry = self.table(name)
            for index_name in list(entry.indexes):
                self._index_owner.pop(index_name, None)
            del self._tables[name]
            self._full.discard(name)
            if self._journaling:
                self._dropped.append(name)
            return entry

    def tables(self) -> list[TableEntry]:
        with self._latch:
            return list(self._tables.values())

    def reorder(self, names: list[str]) -> None:
        """List the tables in *names* order (replica apply rebuilds tables
        by dropping and re-adding them, and keeps the primary's order)."""
        with self._latch:
            self._tables = {
                name: self._tables[name] for name in names if name in self._tables
            } | self._tables

    # -- indexes ----------------------------------------------------------------------

    def add_index(self, table_name: str, index_name: str, index: AnyIndex) -> None:
        with self._latch:
            entry = self.table(table_name)
            if index_name in self._index_owner:
                raise DuplicateIndexError(f"index {index_name!r} already exists")
            entry.indexes[index_name] = index
            self._index_owner[index_name] = table_name
            self.note_full(entry)

    def drop_index(self, index_name: str) -> None:
        with self._latch:
            owner = self._index_owner.pop(index_name, None)
            if owner is None:
                raise UnknownIndexError(f"no index named {index_name!r}")
            entry = self._tables[owner]
            del entry.indexes[index_name]
            self.note_full(entry)

    def index(self, index_name: str) -> AnyIndex:
        with self._latch:
            owner = self._index_owner.get(index_name)
            if owner is None:
                raise UnknownIndexError(f"no index named {index_name!r}")
            return self._tables[owner].indexes[index_name]

    def index_owner(self, index_name: str) -> str:
        with self._latch:
            owner = self._index_owner.get(index_name)
            if owner is None:
                raise UnknownIndexError(f"no index named {index_name!r}")
            return owner
