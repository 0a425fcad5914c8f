"""The NF² benchmark: one command, four workloads, one JSON result line.

::

    python3 nf2bench/run.py --workload read_hot --seed 1 --seconds 20 --trace 0
    python3 nf2bench/run.py --seed 1            # every workload in turn

Run from the repository root; the engine is imported from ``src/``.  Each
run builds the workload's database from the seed, replays a warm-up
block of its tape untimed, then runs the tape closed loop for
``--seconds`` and checks every result against the generator's answer.
After the run it checkpoints and runs one more block of the tape, so
every recovery replays a WAL of the same size; then it copies the
database files as a crash would leave them, reopens the copies (WAL redo
included) and checks that every acknowledged write is there and that
``db.verify()`` is clean.

``--trace 0`` reports the end-to-end metrics, every timing scaled to the
reference speed of ``speed.py``.  ``--trace 1`` alternates
untraced and traced blocks and reports the per-layer metrics of the
traced blocks, the tracing overhead against the untraced blocks, and
the exact work counts of the warm-up's writes.  The last line of
standard output is the JSON result; the exit code is non-zero when any
check failed.  Workloads and metrics are described in README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: builds per run (setup_s is their median) and reopens (recovery_s)
SETUP_REPEATS = 9
RECOVERY_REPEATS = 5
PAGE_SIZE = 4096


def percentile(values: list, share: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def _status_kb(field: str) -> int:
    """One ``kB`` field of ``/proc/self/status`` (``VmRSS``, ``VmHWM``)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} not reported")


def _reset_peak_rss() -> None:
    """Hand freed heap memory back to the system, then restart the
    process's resident high-water mark at its current size.  Without the
    trim, whatever the allocator happens to keep of the bulk load's
    freed pages would count as the engine's."""
    try:
        ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: the peak then includes the allocator's slack
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import engine
    import layers
    import wire
    from tracer import LayerTracer
    from workloads import SPECS, build_tape, repeat_share, replay

    spec = SPECS[name]
    # one mix block warms up before timing; one more, after a checkpoint,
    # is the fixed WAL tail every recovery replays
    block = sum(spec.mix.values())
    initial, tape = build_tape(spec, seed, 2 * block + spec.tape_rate * seconds)
    timed_stop = len(tape) - block
    log = engine.RunLog(len(tape))
    work = os.path.join(ROOT, ".nf2bench-work", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    # the harness (interpreter, engine code, tape, model, latency slots)
    # is resident before the build; the engine's memory is what the
    # run's peak adds to it
    gc.collect()
    harness_kb = _status_kb("VmRSS")
    try:
        db, path, first_build_s = engine.build(os.path.join(work, "run"), spec, initial)
        pages = os.path.getsize(path) // PAGE_SIZE
        # the peak counts from here: the bulk-load pool is set-up, not
        # the run; what the load leaves resident still counts
        _reset_peak_rss()
        # the tape and model are long-lived: keep them out of the
        # collector's generations so they do not lengthen the engine's
        # collections during the timed run
        gc.collect()
        gc.freeze()
        baseline: dict = {}
        live_problems: list[str] = []
        if spec.wire:
            db.close()
            stats_path = os.path.join(work, "server-trace.json") if trace else None
            server = wire.Server(ROOT, path, stats_path)
            try:
                wire.run_wire(server, tape, 0, block, None, log, trace)
                wire.run_wire(server, tape, block, timed_stop, seconds, log, trace)
                server.command(".checkpoint")
                wire.run_wire(server, tape, log.executed, log.executed + block,
                              None, log, trace)
                image = engine.crash_image(path, os.path.join(work, "crash"))
                peak_rss_mb = server.peak_rss_mb()
            finally:
                server.stop()  # the server checkpoints as it closes
            stored = sum(os.path.getsize(p) for p in engine.db_files(path))
            server_start_s = server.start_s
        else:
            tracer = LayerTracer() if trace else None
            if tracer is not None:
                tracer.install(layers.PROBES)
            baseline = engine.run_untimed(db, tape, 0, block, log, tracer)
            if tracer is not None:
                tracer.uninstall()
                tracer.reset()
            engine.run_timed(db, tape, block, timed_stop, seconds, log, tracer)
            db.checkpoint()
            engine.run_untimed(db, tape, log.executed, log.executed + block, log)
            image = engine.crash_image(path, os.path.join(work, "crash"))
            peak_rss_mb = (_status_kb("VmHWM") - harness_kb) / 1024.0
            live_problems = [f"live verify: {p}" for p in db.verify()]
            db.close()  # checkpoints: the WAL's 1 MiB sawtooth is not space
            stored = sum(os.path.getsize(p) for p in engine.db_files(path))
            server_start_s = None
        # the other builds of setup_s run after the measured run, so the
        # memory they leave behind is not in its peak; a traced run does
        # not report setup_s
        setup_runs = [first_build_s] + engine.build_times(
            work, spec, initial, 0 if trace else SETUP_REPEATS - 1)
        setup_s = statistics.median(setup_runs)
        model = replay(initial, tape, log.executed)
        recovery_s, problems = engine.recover(image, work, spec, model, RECOVERY_REPEATS)
        problems = live_problems + problems
        if trace:
            if spec.wire:
                with open(stats_path) as handle:
                    dumped = json.load(handle)
                totals = layers.Totals(dumped["stats"], dumped["counts"])
            else:
                totals = layers.Totals(*tracer.totals())
        user_bytes = model.user_bytes()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's directory is still there

    scales = log.scales()
    reads = log.timed(tape, True, scales)
    writes = log.timed(tape, False, scales)
    raw = [1.0] * len(scales)
    # state after reopen, verify after reopen, and in process live verify
    checks_run = 2 + (not spec.wire)
    failed = log.errors + log.wrong + len(problems)
    attempted = log.executed + checks_run
    result = {
        "workload": name,
        "seed": seed,
        "sizes": {
            "objects": spec.departments,
            "flat_rows": spec.employees,
            "reports": spec.reports,
            "db_pages": pages,
            "buffer_frames": spec.buffer_frames,
        },
        "reads": len(reads),
        "writes": len(writes),
        "setup_runs_s": setup_runs,
        "server_start_s": server_start_s,
        "harness_mb": None if spec.wire else harness_kb / 1024.0,
        "error_ratio": failed / attempted,
        "first_error": log.first_error or (problems[0] if problems else ""),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "repeat_share": repeat_share(tape[: log.executed]),
        "speed": statistics.median(scales) if scales else 1.0,
        "measured": {
            "ops_per_s": len(scales) / log.reference_s(raw) if scales else 0.0,
            "read_p50_ms": percentile(log.timed(tape, True, raw), 0.50),
            "write_p50_ms": percentile(log.timed(tape, False, raw), 0.50),
        },
    }
    if not trace:
        result["metrics"] = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(scales) / log.reference_s(scales) if scales else 0.0, "1/s"),
            "read_p50_ms": (percentile(reads, 0.50), "ms"),
            "write_p50_ms": (percentile(writes, 0.50), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "space_amp": (stored / user_bytes, "ratio"),
        }
        # printed with the metrics but not in the result line: their run
        # to run spread on a shared host is wider than any regression
        # bound could be (see README.md)
        result["reported"] = {
            "read_p99_ms": (percentile(reads, 0.99), "ms"),
            "write_p90_ms": (percentile(writes, 0.90), "ms"),
            "recovery_s": (recovery_s, "s"),
        }
        return result
    statements = log.traced_statements
    values = layers.layer_metrics(totals, statements, log.traced_writes)
    if spec.wire:
        rtt_ms = sum(log.traced_ms)
        values["server.self_ms"] = (
            rtt_ms - totals.total_ms("statement|Database.execute")
        ) / max(1, statements)
    else:
        values["server.self_ms"] = 0.0
    traced = statistics.fmean(log.traced_ms) if log.traced_ms else 0.0
    untraced = statistics.fmean(log.untraced_ms) if log.untraced_ms else 0.0
    values["trace.overhead"] = traced / untraced - 1.0 if untraced else 0.0
    values["trace.statements"] = statements
    values["tape.repeat_share"] = result["repeat_share"]
    for kind, counter in (
        ("flat_update", "rows_examined"), ("flat_update", "data_decodes"),
        ("flat_delete", "rows_examined"), ("flat_delete", "data_decodes"),
        ("partial_insert", "md_decodes"),
    ):
        samples = [s[counter] for s in baseline.get(kind, [])]
        values[f"baseline.{kind}.{counter}"] = statistics.fmean(samples) if samples else 0.0
    result["metrics"] = {k: (values[k], unit) for k, unit in layers.METRICS.items()}
    return result


def report(result: dict, out=sys.stdout) -> None:
    """Human-readable lines: sizes, every metric with its unit, checks."""
    sizes = result["sizes"]
    print(
        f"workload {result['workload']} seed {result['seed']}: "
        f"{sizes['objects']} objects, {sizes['flat_rows']} flat rows, "
        f"{sizes['reports']} reports, {sizes['db_pages']} pages, "
        f"{sizes['buffer_frames']} buffer frames; "
        f"{result['reads']} reads, {result['writes']} writes timed; "
        f"repeated statement texts {result['repeat_share']:.3f}",
        file=out,
    )
    measured = result["measured"]
    print(f"  speed factor {result['speed']:.3f} (median); as measured "
          f"{measured['ops_per_s']:.2f} ops/s, read p50 {measured['read_p50_ms']:.4f} ms, "
          f"write p50 {measured['write_p50_ms']:.4f} ms", file=out)
    runs = ", ".join(f"{t:.3f}" for t in result["setup_runs_s"])
    print(f"  set-up runs {runs} s", file=out)
    if result["server_start_s"] is not None:
        print(f"  server start {result['server_start_s']:.3f} s", file=out)
    if result["harness_mb"] is not None:
        print(f"  harness resident before the build {result['harness_mb']:.1f} MB "
              "(not in peak_rss_mb)", file=out)
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:38s} {value:14.4f} {unit}", file=out)
    for name, (value, unit) in result.get("reported", {}).items():
        print(f"  {name:38s} {value:14.4f} {unit} (not gated)", file=out)
    print(
        f"  error_ratio {result['error_ratio']:.6f} "
        f"({result['failed']} failed of {result['attempted']})"
        + (f"; first: {result['first_error']}" if result["first_error"] else ""),
        file=out,
    )


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    })


def run_all(args) -> int:
    """Every workload in its own process, then one combined result line."""
    from workloads import SPECS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in SPECS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            line = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {child.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= line["correct"] and child.returncode == 0
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="read_hot, scan_cold, oltp_write, wire_mixed or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "database.py")):
        print(f"error: the engine sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.workload == "all":
        return run_all(args)
    from workloads import SPECS

    if args.workload not in SPECS:
        parser.error(f"unknown workload {args.workload!r}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    print(result_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
