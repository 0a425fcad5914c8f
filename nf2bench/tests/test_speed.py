"""Self-tests of the host speed scaling (``speed.py``) and its use in
``engine.RunLog``.

Run from the repository root::

    python3 -m pytest -q nf2bench/tests
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import pytest  # noqa: E402

import engine  # noqa: E402
import speed  # noqa: E402
from workloads import Op  # noqa: E402


def test_bucket_scales_use_each_buckets_median_and_carry_it_forward():
    ref = speed.PROBE_REF_MS
    step = speed.BUCKET_S
    timeline = [(0.1 * step, 2 * ref), (0.5 * step, 2 * ref), (0.9 * step, 9 * ref),
                (2.5 * step, ref / 2)]
    scales = speed.bucket_scales(timeline, 4 * step)
    # bucket 0: median of 2, 2, 9 -> 2; bucket 1 has no probe and keeps
    # it; bucket 2 is 1/2; buckets 3 and 4 keep that
    assert scales == [0.5, 0.5, 2.0, 2.0, 2.0]


def test_probe_time_is_left_out_of_the_run_time_line():
    log = engine.RunLog(3)
    read = Op("point", "SELECT", None)
    log.clock_start = time.perf_counter()
    log.timed_start = 0
    log.probe()
    log.note_timed(0, read, 1.0, None)
    time.sleep(0.02)
    log.note_timed(1, read, 3.0, None)
    log.timed_stop = 2
    assert len(log.probes) == 1
    # the probe ran before the first statement, so it starts the line
    assert log.done_s[0] < 0.005
    assert log.done_s[1] - log.done_s[0] == pytest.approx(0.02, abs=0.01)
    scales = [2.0, 0.5]
    assert log.timed([read, read], True, scales) == [2.0, 1.5]
    assert log.reference_s([1.0, 1.0]) == pytest.approx(log.done_s[1])
    assert log.reference_s(scales) == pytest.approx(
        2.0 * log.done_s[0] + 0.5 * (log.done_s[1] - log.done_s[0]))


def test_scaled_build_time_follows_the_probe(monkeypatch):
    """A build timed while the probe reads twice the reference time is
    reported at half its measured seconds."""
    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.PROBE_REF_MS)
    assert speed.scale(speed.probes()) == 0.5
