"""Host speed calibration for the timing metrics.

The benchmark runs on shared cores whose speed changes under it: a fixed
pure-Python loop runs at one speed for a while, then 30–60% slower for
anything from a fraction of a second to minutes, as other tenants load
the host.  A whole 20 s run can fall in a slow stretch, so no statistic
over one run's own latencies hides it.

So the timed run also times a probe, a fixed loop of the interpreter
work the engine is made of (dict lookups, tuple building, a sort), every
:data:`PROBE_EVERY_S` seconds between statements.  The run's time line
is cut into buckets of :data:`BUCKET_S`; every statement completed in a
bucket has its latency, and its share of the run's elapsed time, scaled
by ``PROBE_REF_MS / median probe time in that bucket``.  A timing metric
is then milliseconds at the reference speed, the speed at which the
probe takes :data:`PROBE_REF_MS`.  A set-up build or a reopen is one call
that cannot be paused, so it is scaled by the median of
:data:`PROBES_AROUND` probes before it and as many after it.  The
engine's own code never runs in the probe, so an engine that does more
work still reads slower.
"""

from __future__ import annotations

import statistics
import time

#: seconds of run time between probes
PROBE_EVERY_S = 0.05
#: seconds of run time whose statements share one speed estimate
BUCKET_S = 0.25
#: loop length of one probe
PROBE_ITERATIONS = 2000
#: the reference speed is the speed at which one probe takes this long;
#: on the 2-core x86-64 host the benchmark was tuned on (CPython 3.11)
#: a probe took ~0.6 ms in its fast stretches and ~1.0 ms in its slow ones
PROBE_REF_MS = 1.0
#: probes taken before and after a set-up build or a reopen
PROBES_AROUND = 5
_KEYS = tuple(f"key{n}" for n in range(64))


def probe() -> float:
    """Run the probe once; returns its milliseconds."""
    start = time.perf_counter()
    table: dict = {}
    rows = []
    for n in range(PROBE_ITERATIONS):
        key = _KEYS[n & 63]
        table[key] = table.get(key, 0) + n
        rows.append((key, n))
    rows.sort()
    return (time.perf_counter() - start) * 1000.0


def probes(count: int = PROBES_AROUND) -> list[float]:
    """Run the probe *count* times back to back; their milliseconds."""
    return [probe() for _ in range(count)]


def scale(samples: list[float]) -> float:
    """The factor that turns times taken beside *samples* (probe ms)
    into times at the reference speed."""
    return PROBE_REF_MS / statistics.median(samples)


def bucket_scales(timeline: list[tuple[float, float]], until_s: float) -> list[float]:
    """Per bucket of :data:`BUCKET_S` up to *until_s*, the factor that
    turns that bucket's times into times at the reference speed.
    *timeline* holds ``(seconds into the run, probe ms)``; a bucket
    without a probe takes the factor of the bucket before it."""
    count = int(until_s / BUCKET_S) + 1
    samples: list[list[float]] = [[] for _ in range(count)]
    for at, ms in timeline:
        samples[min(count - 1, int(at / BUCKET_S))].append(ms)
    scales = []
    last = scale([ms for _at, ms in timeline]) if timeline else 1.0
    for bucket in samples:
        if bucket:
            last = scale(bucket)
        scales.append(last)
    return scales
