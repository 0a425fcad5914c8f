"""Self-tests of the benchmark's layer tracer and its work counters.

Run from the repository root::

    python3 -m pytest -q nf2bench/tests
"""

from __future__ import annotations

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import pytest  # noqa: E402

import engine  # noqa: E402
import layers  # noqa: E402
from tracer import LayerTracer, Probe  # noqa: E402
from workloads import SPECS, build_tape  # noqa: E402

#: oltp_write's mix on a small database, so a test builds in well under 1 s
SMALL = dataclasses.replace(
    SPECS["oltp_write"], departments=12, employees=300, reports=20, buffer_frames=256
)


def _owner_snapshot():
    """Every attribute the probes replace, as currently bound."""
    import importlib

    snapshot = {}
    for probe in layers.PROBES:
        module_name, _, class_name = probe.target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
            snapshot[probe.key] = owner.__dict__.get(probe.attr, "<inherited>")
        else:
            snapshot[probe.key] = getattr(owner, probe.attr)
    return snapshot


def _run_tape(directory, trace: bool):
    """Build SMALL, run its warm-up block; returns the results seen, the
    tracer (if any) and the statement count."""
    initial, tape = build_tape(SMALL, 5, 2 * sum(SMALL.mix.values()))
    db, _path, _seconds = engine.build(str(directory), SMALL, initial)
    tracer = LayerTracer() if trace else None
    results = []
    try:
        if tracer is not None:
            tracer.install(layers.PROBES)
        for op in tape:
            result = db.execute(op.sql)
            results.append(repr(result.rows) if hasattr(result, "rows") else result)
    finally:
        if tracer is not None:
            tracer.uninstall()
        db.close()
    return results, tracer, len(tape)


def test_traced_and_untraced_runs_return_identical_results(tmp_path):
    plain, _, _ = _run_tape(tmp_path / "plain", trace=False)
    traced, _, _ = _run_tape(tmp_path / "traced", trace=True)
    assert traced == plain


def test_every_wrapped_attribute_is_restored(tmp_path):
    before = _owner_snapshot()
    _run_tape(tmp_path, trace=True)
    assert _owner_snapshot() == before


def test_self_times_sum_to_no_more_than_statement_time(tmp_path):
    _, tracer, statements = _run_tape(tmp_path, trace=True)
    stats, _counts = tracer.totals()
    statement_total = stats["statement|Database.execute"][1]
    assert stats["statement|Database.execute"][2] == statements
    # everything here ran inside Database.execute, so the self times of
    # all probes partition the statements' total time
    assert sum(v[0] for v in stats.values()) <= statement_total
    assert all(v[0] >= 0 for v in stats.values())


def test_generator_consumption_is_charged_to_its_layer():
    import types

    module = types.ModuleType("tracer_fixture")
    spin = lambda: sum(range(20000))  # noqa: E731

    def produce():
        for _ in range(5):
            spin()
            yield 1

    def returns_pair():
        return produce(), "report"

    def consumer():
        items, _report = module.returns_pair()
        return sum(items)

    module.returns_pair = returns_pair
    module.consumer = consumer
    sys.modules["tracer_fixture"] = module
    tracer = LayerTracer()
    try:
        tracer.install([
            Probe("tracer_fixture", "returns_pair", "plan", stream=True),
            Probe("tracer_fixture", "consumer", "execute"),
        ])
        assert module.consumer() == 5
    finally:
        tracer.uninstall()
        del sys.modules["tracer_fixture"]
    stats, counts = tracer.totals()
    plan_self = stats["plan|returns_pair"][0]
    execute_self = stats["execute|consumer"][0]
    # the five spins happen while the consumer pulls items: they belong
    # to the generator's layer, not to the consumer
    assert plan_self > 3 * execute_self
    assert counts["plan|returns_pair.items"] == 5
    assert module.returns_pair is returns_pair


def test_install_failure_restores_what_was_patched():
    tracer = LayerTracer()
    before = _owner_snapshot()
    with pytest.raises(AttributeError):
        tracer.install(list(layers.PROBES) + [Probe("repro.database", "no_such_name", "x")])
    assert not tracer.installed
    assert _owner_snapshot() == before


def test_baseline_counts_repeat_exactly(tmp_path):
    counts = []
    for run in range(2):
        initial, tape = build_tape(SMALL, 11, sum(SMALL.mix.values()))
        db, _path, _seconds = engine.build(str(tmp_path / f"run{run}"), SMALL, initial)
        tracer = LayerTracer()
        tracer.install(layers.PROBES)
        try:
            log = engine.RunLog(len(tape))
            counts.append(engine.run_untimed(db, tape, 0, len(tape), log, tracer))
        finally:
            tracer.uninstall()
            db.close()
        assert log.errors == log.wrong == 0, log.first_error
    assert counts[0] == counts[1]
    updates = counts[0]["flat_update"]
    # the flat UPDATE by indexed key examines every row of the table today
    assert all(c["rows_examined"] >= SMALL.employees - 5 for c in updates)
