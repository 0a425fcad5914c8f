"""Run ``repro.server`` with the layer tracer available inside it.

::

    python nf2bench/serve.py STATS.json DATABASE [repro.server options]

SIGUSR1 installs the probes of :mod:`layers` when they are off and
removes them when they are on; the launcher answers each toggle with a
``trace on`` or ``trace off`` line on standard output.  When the server
exits, the launcher writes the merged per-probe totals to STATS.json.
The benchmark toggles only while no statement is in flight.
"""

from __future__ import annotations

import atexit
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import PROBES  # noqa: E402
from tracer import LayerTracer  # noqa: E402


def main(argv: list[str]) -> int:
    stats_path, server_args = argv[0], argv[1:]
    tracer = LayerTracer()

    def toggle(_signum, _frame) -> None:
        if tracer.installed:
            tracer.uninstall()
        else:
            tracer.install(PROBES)
        print("trace", "on" if tracer.installed else "off", flush=True)

    def write_stats() -> None:
        tracer.uninstall()
        stats, counts = tracer.totals()
        with open(stats_path, "w") as out:
            json.dump({"stats": stats, "counts": counts}, out)

    atexit.register(write_stats)
    signal.signal(signal.SIGUSR1, toggle)
    from repro.server import main as serve

    return serve(server_args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
