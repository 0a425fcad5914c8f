"""Layer tracing from outside the engine: wrap functions, charge self time.

:class:`LayerTracer` replaces functions and methods of the ``repro``
modules with wrappers while it is installed, and puts every original
back when it is removed.  Each wrapper belongs to one *probe* (a layer
name plus the wrapped function's name).  Per probe it keeps:

* ``self_ns``: the call's duration minus the time of wrapped calls
  nested inside it, so a layer is never charged for the layers it calls;
* ``total_ns``: the call's whole duration;
* ``calls``: the number of calls.

A function whose result is a generator (or a tuple whose first item is
one, like ``planner.candidate_roots``) can be marked ``stream``: the
time spent pulling items out of that generator is charged to its layer
too, and the items are counted.  Counting probes (``count_in``) add one
to a counter when called while a given layer is on the stack, without
timing anything; ``sum_len`` probes add the length of an argument.

Stacks are per thread, so a server's worker threads trace independently;
:meth:`LayerTracer.totals` merges them.
"""

from __future__ import annotations

import importlib
import inspect
import threading
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Optional

_MISSING = object()


@dataclass(frozen=True)
class Probe:
    """One wrapped function: ``target`` is ``module`` or ``module:Class``."""

    target: str
    attr: str
    layer: str
    stream: bool = False
    #: count calls made while this layer is active instead of timing them
    count_in: Optional[str] = None
    #: add ``len(args[sum_len])`` to the probe's counter instead of timing
    sum_len: Optional[int] = None
    #: add ``len(result)`` to the ``<layer>.rows`` counter
    count_rows: bool = False
    #: a ``(getter attribute path, counter)`` pair: add how much the
    #: attribute of ``args[0]`` grew during the call to the counter
    delta: Optional[tuple[str, str]] = None

    @property
    def key(self) -> str:
        owner = self.target.split(":")[1] + "." if ":" in self.target else ""
        return f"{self.layer}|{owner}{self.attr}"


class _ThreadState:
    __slots__ = ("stack", "active", "stats", "counts")

    def __init__(self):
        #: per open wrapped call: the time of wrapped calls nested in it
        self.stack: list[int] = []
        #: layer -> number of its calls currently open on this thread
        self.active: dict[str, int] = {}
        #: probe key -> [self_ns, total_ns, calls]
        self.stats: dict[str, list[int]] = {}
        #: counter name -> value
        self.counts: dict[str, int] = {}


class LayerTracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- install / uninstall --------------------------------------------------

    def install(self, probes) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for probe in probes:
                self._patch(probe)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _patch(self, probe: Probe) -> None:
        module_name, _, class_name = probe.target.partition(":")
        owner: Any = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
            raw = owner.__dict__.get(probe.attr, _MISSING)
            function = getattr(owner, probe.attr) if raw is _MISSING else raw
        else:
            raw = function = getattr(owner, probe.attr)
        wrapper_of = staticmethod if isinstance(function, staticmethod) else None
        if wrapper_of is not None:
            function = function.__func__
        if not callable(function):
            raise TypeError(f"{probe.target}.{probe.attr} is not callable")
        wrapper = self._wrapper(function, probe)
        setattr(owner, probe.attr, wrapper_of(wrapper) if wrapper_of else wrapper)
        self._patches.append((owner, probe.attr, raw))

    # -- per-thread state -----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def reset(self) -> None:
        with self._states_lock:
            for state in self._states:
                state.stats.clear()
                state.counts.clear()

    def totals(self) -> tuple[dict[str, list[int]], dict[str, int]]:
        """Merged ``(stats, counts)`` over every thread that traced."""
        stats: dict[str, list[int]] = {}
        counts: dict[str, int] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for key, (self_ns, total_ns, calls) in list(state.stats.items()):
                merged = stats.setdefault(key, [0, 0, 0])
                merged[0] += self_ns
                merged[1] += total_ns
                merged[2] += calls
            for name, value in list(state.counts.items()):
                counts[name] = counts.get(name, 0) + value
        return stats, counts

    # -- wrappers -----------------------------------------------------------------

    def _wrapper(self, function, probe: Probe):
        if probe.count_in is not None:
            return self._counting_wrapper(function, probe)
        if probe.sum_len is not None:
            return self._summing_wrapper(function, probe)
        return self._timing_wrapper(function, probe)

    def _counting_wrapper(self, function, probe: Probe):
        state_of = self._state
        layer, counter = probe.count_in, probe.key

        def wrapper(*args, **kwargs):
            state = state_of()
            if state.active.get(layer):
                state.counts[counter] = state.counts.get(counter, 0) + 1
            return function(*args, **kwargs)

        return _named(wrapper, function)

    def _summing_wrapper(self, function, probe: Probe):
        state_of = self._state
        position, counter = probe.sum_len, probe.key

        def wrapper(*args, **kwargs):
            state = state_of()
            state.counts[counter] = state.counts.get(counter, 0) + len(args[position])
            return function(*args, **kwargs)

        return _named(wrapper, function)

    def _timing_wrapper(self, function, probe: Probe):
        state_of = self._state
        layer, key = probe.layer, probe.key
        stream = probe.stream
        rows_counter = layer + ".rows" if probe.count_rows else None
        delta_path, delta_counter = probe.delta or (None, None)
        consume = self._consume

        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            active = state.active
            before = _attr_path(args[0], delta_path) if delta_path else 0
            stack.append(0)
            active[layer] = active.get(layer, 0) + 1
            start = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                active[layer] -= 1
                nested = stack.pop()
                record = state.stats.get(key)
                if record is None:
                    record = state.stats[key] = [0, 0, 0]
                record[0] += duration - nested
                record[1] += duration
                record[2] += 1
                if stack:
                    stack[-1] += duration
            if delta_path:
                grown = _attr_path(args[0], delta_path) - before
                state.counts[delta_counter] = state.counts.get(delta_counter, 0) + grown
            if rows_counter is not None and result is not None:
                state.counts[rows_counter] = state.counts.get(rows_counter, 0) + len(result)
            if stream:
                if inspect.isgenerator(result):
                    return consume(result, layer, key)
                if (
                    isinstance(result, tuple)
                    and result
                    and inspect.isgenerator(result[0])
                ):
                    return (consume(result[0], layer, key),) + result[1:]
            return result

        return _named(wrapper, function)

    def _consume(self, iterator, layer: str, key: str):
        """Re-yield *iterator*'s items, charging each pull to *layer*."""
        items = key + ".items"
        try:
            while True:
                state = self._state()
                stack = state.stack
                active = state.active
                stack.append(0)
                active[layer] = active.get(layer, 0) + 1
                start = perf_counter_ns()
                exhausted = False
                try:
                    item = next(iterator)
                except StopIteration:
                    exhausted = True
                finally:
                    duration = perf_counter_ns() - start
                    active[layer] -= 1
                    nested = stack.pop()
                    record = state.stats.get(key)
                    if record is None:
                        record = state.stats[key] = [0, 0, 0]
                    record[0] += duration - nested
                    record[1] += duration
                    if stack:
                        stack[-1] += duration
                if exhausted:
                    return
                state.counts[items] = state.counts.get(items, 0) + 1
                yield item
        finally:
            iterator.close()


def _attr_path(obj: Any, path: str) -> int:
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _named(wrapper, function):
    wrapper.__name__ = getattr(function, "__name__", wrapper.__name__)
    wrapper.__qualname__ = getattr(function, "__qualname__", wrapper.__qualname__)
    wrapper.__doc__ = getattr(function, "__doc__", None)
    wrapper.__wrapped__ = function
    return wrapper
