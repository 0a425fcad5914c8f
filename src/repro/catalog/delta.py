"""Catalog deltas: what one COMMIT record says about the catalog.

A ``CHECKPOINT`` record and the ``.catalog.json`` sidecar hold the full
catalog snapshot.  A ``COMMIT`` record carries only its transaction's
changes, so a one-row INSERT logs one TID, not every TID in the
database::

    {"format": 1, "delta": 1,
     "dropped": [name, ...],               # tables dropped
     "full":    [table_state, ...],        # DDL and versioned tables
     "tables":  {name: {"tids": [op, ...], "pages": [op, ...]}}}

Every key but ``format`` and ``delta`` is optional.  A table appears
under ``tables`` when DML wrote to it or its page set changed.  TID ops
replay the table's :class:`TidSet` journal in order: ``[1, page, slot]``
appends, ``[0, page, slot]`` removes, ``[2, page, slot, new_page,
new_slot]`` replaces in place, and ``[3, page, slot]`` marks a tuple
rewritten in place (no change to the list; replicas re-derive its index
entries).  Page ops replay the segment's page allocations:
``[1, page]`` allocates (taking the page off the top of the free list
when it is there), ``[0, page]`` frees.

:func:`fold` applies one COMMIT payload, delta or full snapshot, to a
``name -> table state`` map: crash recovery folds the committed deltas
after the newest full snapshot in LSN order.  Replica apply replays the
same ops on its live catalog entries (:meth:`TidSet.apply`,
:meth:`Segment.apply`).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional

from repro.storage.segment import Segment
from repro.storage.tid import TID

_REMOVE, _ADD, _REPLACE, _UPDATE = 0, 1, 2, 3

#: holes (removed slots) tolerated before a :class:`TidSet` compacts
_MIN_HOLES = 32


class TidSet:
    """A table's current top-level TIDs: insertion-ordered, with O(1)
    membership, append, removal, and in-place replacement.

    Removal leaves a hole in the slot list; the list compacts once holes
    outnumber live TIDs, so every operation is amortized O(1).  While
    :attr:`journal` is a list, every change is also recorded there as a
    TID op (see the module docstring) until the owning catalog clears it
    at commit.  Iteration runs over a copy, so a concurrent writer never
    disturbs a reader mid-loop.
    """

    __slots__ = ("_slots", "_pos", "_holes", "journal")

    def __init__(self, tids: Iterable[TID] = ()):
        self._slots: list[Optional[TID]] = list(tids)
        self._pos = {tid: i for i, tid in enumerate(self._slots)}
        if len(self._pos) != len(self._slots):
            raise ValueError("duplicate TID in a table's TID list")
        self._holes = 0
        #: TID ops since the last commit, or None when not journaling
        self.journal: Optional[list] = None

    @classmethod
    def from_pairs(cls, pairs: Iterable) -> "TidSet":
        return cls(TID(*pair) for pair in pairs)

    def __contains__(self, tid: object) -> bool:
        return tid in self._pos

    def __len__(self) -> int:
        return len(self._pos)

    def __iter__(self) -> Iterator[TID]:
        return iter(self.as_list())

    def __getitem__(self, position: int) -> TID:
        return self.as_list()[position]

    def as_list(self) -> list[TID]:
        """The TIDs in order, as a fresh list."""
        if self._holes:
            return [tid for tid in self._slots if tid is not None]
        return self._slots.copy()  # type: ignore[return-value]

    def pairs(self) -> list[list[int]]:
        """The TIDs as JSON ``[page, slot]`` pairs (catalog snapshots)."""
        return [[tid.page, tid.slot] for tid in self.as_list()]

    def append(self, tid: TID) -> None:
        if tid in self._pos:
            raise ValueError(f"{tid} is already a current TID")
        self._pos[tid] = len(self._slots)
        self._slots.append(tid)
        if self.journal is not None:
            self.journal.append((_ADD, tid.page, tid.slot))

    def remove(self, tid: TID) -> None:
        slot = self._pos.pop(tid, None)
        if slot is None:
            raise ValueError(f"{tid} is not a current TID")
        slots = self._slots
        if slot == len(slots) - 1:
            slots.pop()
            while slots and slots[-1] is None:
                slots.pop()
                self._holes -= 1
        else:
            slots[slot] = None
            self._holes += 1
            if self._holes > _MIN_HOLES and self._holes > len(self._pos):
                self._compact()
        if self.journal is not None:
            self.journal.append((_REMOVE, tid.page, tid.slot))

    def replace(self, old: TID, new: TID) -> None:
        """Put *new* at *old*'s position (a copy-on-write update keeps the
        object's place in scan order)."""
        if new in self._pos:
            raise ValueError(f"{new} is already a current TID")
        slot = self._pos.pop(old, None)
        if slot is None:
            raise ValueError(f"{old} is not a current TID")
        self._slots[slot] = new
        self._pos[new] = slot
        if self.journal is not None:
            self.journal.append((_REPLACE, old.page, old.slot, new.page, new.slot))

    def note_update(self, tid: TID) -> None:
        """Journal that *tid* was rewritten in place."""
        if self.journal is not None:
            self.journal.append((_UPDATE, tid.page, tid.slot))

    def apply(self, ops: Iterable) -> None:
        """Replay journaled TID ops (recovery and replica apply)."""
        for op in ops:
            if op[0] == _ADD:
                self.append(TID(op[1], op[2]))
            elif op[0] == _REMOVE:
                self.remove(TID(op[1], op[2]))
            elif op[0] == _REPLACE:
                self.replace(TID(op[1], op[2]), TID(op[3], op[4]))
            elif op[0] != _UPDATE:
                raise ValueError(f"unknown TID op {op!r}")

    def _compact(self) -> None:
        self._slots = [tid for tid in self._slots if tid is not None]
        self._pos = {tid: i for i, tid in enumerate(self._slots)}
        self._holes = 0


def op_tids(ops: Iterable) -> list[TID]:
    """Every TID a list of TID ops names, once each, in order."""
    out: dict[TID, None] = {}
    for op in ops:
        out[TID(op[1], op[2])] = None
        if op[0] == _REPLACE:
            out[TID(op[3], op[4])] = None
    return list(out)


def is_delta(payload: Any) -> bool:
    """True for a delta COMMIT payload; anything else is a full snapshot."""
    return isinstance(payload, dict) and payload.get("delta") == 1


def table_name(table_state: dict) -> str:
    # the segment state carries the table name — cheaper than re-parsing
    # the DDL text
    return table_state["segment"]["name"]


def table_states(state: dict) -> dict[str, dict]:
    """``name -> table state`` of a full catalog snapshot, in catalog order."""
    return {table_name(ts): ts for ts in state["tables"]}


def catalog_state(tables: dict[str, dict]) -> dict:
    """The full catalog snapshot of a folded ``name -> table state`` map,
    with every TID list back in its plain JSON form."""
    out = []
    for ts in tables.values():
        tids = ts["tids"]
        if isinstance(tids, TidSet):
            ts = {**ts, "tids": tids.pairs()}
        out.append(ts)
    return {"format": 1, "tables": out}


def fold(tables: dict[str, dict], payload: dict) -> None:
    """Apply one COMMIT payload to *tables* (``name -> table state``) in
    place.  A full snapshot replaces the whole map.  Folded TID lists stay
    :class:`TidSet` objects owned by the map, so each op costs O(1); the
    payload and the snapshot states it folds onto are never mutated."""
    if not is_delta(payload):
        tables.clear()
        tables.update(table_states(payload))
        return
    for name in payload.get("dropped", ()):
        tables.pop(name, None)
    for ts in payload.get("full", ()):
        tables[table_name(ts)] = ts
    for name, change in payload.get("tables", {}).items():
        ts = tables[name] = dict(tables[name])
        if "tids" in change:
            tids = ts["tids"]
            if not isinstance(tids, TidSet):
                tids = ts["tids"] = TidSet.from_pairs(tids)
            tids.apply(change["tids"])
        if "pages" in change:
            ts["segment"] = Segment.replay(ts["segment"], change["pages"])
