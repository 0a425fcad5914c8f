"""The ``wire_mixed`` client: a server child process and two connections.

The server is ``python -m repro.server`` on the workload's database, or
``nf2bench/serve.py`` (the same server with the layer tracer inside) for
a traced run.  One thread drives two connections closed loop: each
connection has at most one statement outstanding, and gets the next
tape statement as soon as its reply has been read and checked.
Statements are sent in tape order, so the executed statements are always
a prefix of the tape.
"""

from __future__ import annotations

import os
import selectors
import signal
import socket
import subprocess
import sys
import time

import checks
import speed
from engine import RunLog, TRACE_BLOCK_S
from workloads import Op

CONNECTIONS = 2
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
STATEMENT_TIMEOUT_S = 60.0


class Server:
    """The server child; ``stats_path`` set means the traced launcher."""

    def __init__(self, root: str, db_path: str, stats_path: str | None):
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        if stats_path is None:
            command = [sys.executable, "-m", "repro.server"]
        else:
            command = [sys.executable, os.path.join(root, "nf2bench", "serve.py"), stats_path]
        command += [db_path, "--port", "0", "--workers", str(CONNECTIONS)]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
        self.port = self._await_banner()
        self.start_s = time.perf_counter() - started

    def _await_banner(self) -> int:
        """Read stdout up to the ``serving ... on host:port`` line."""
        selector = selectors.DefaultSelector()
        selector.register(self.process.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + START_TIMEOUT_S
        try:
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    break
                line = self.process.stdout.readline()
                if not line:
                    break
                if line.startswith("serving "):
                    return int(line.rsplit(":", 1)[1])
        finally:
            selector.close()
        self.stop()
        raise RuntimeError("server did not start")

    def toggle_trace(self) -> str:
        """Ask the traced launcher to install or remove its probes; waits
        for its acknowledgement line."""
        self.process.send_signal(signal.SIGUSR1)
        line = self.process.stdout.readline()
        if not line.startswith("trace "):
            raise RuntimeError(f"unexpected launcher reply {line!r}")
        return line.split()[1]

    def command(self, line: str) -> str:
        """Send one line on a fresh connection; returns the reply."""
        connection = _Connection(self.port)
        try:
            connection.sock.setblocking(True)
            connection.sock.sendall((line + "\n").encode("utf-8"))
            while (reply := connection.reply()) is None:
                data = connection.sock.recv(65536)
                if not data:
                    raise ConnectionError("server closed the connection")
                connection.buffer += data
            return reply
        finally:
            connection.sock.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """Interrupt the server (it checkpoints and closes the database)
        and wait for it; kill it if it does not end in time."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class _Connection:
    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setblocking(False)
        self.buffer = b""
        self.op: Op | None = None
        self.position = 0
        self.sent_at = 0.0
        self.traced = False

    def send(self, position: int, op: Op, traced: bool) -> None:
        self.position = position
        self.op = op
        self.traced = traced
        self.sent_at = time.perf_counter()
        self.sock.setblocking(True)
        self.sock.sendall((op.sql + "\n").encode("utf-8"))
        self.sock.setblocking(False)

    def reply(self) -> str | None:
        """A complete ``#<n>``-framed reply, if one has arrived."""
        newline = self.buffer.find(b"\n")
        if newline < 0:
            return None
        count = int(self.buffer[1:newline])
        end = newline
        for _ in range(count):
            end = self.buffer.find(b"\n", end + 1)
            if end < 0:
                return None
        payload = self.buffer[newline + 1 : end + 1].decode("utf-8")
        self.buffer = self.buffer[end + 1 :]
        return payload


def run_wire(server: Server, tape: list[Op], start_at: int, stop_at: int,
             seconds: float | None, log: RunLog, traced_run: bool) -> None:
    """Run ``tape[start_at:]`` over the wire until *stop_at*, the tape end
    or *seconds* (``None``: untimed warm-up).  In a traced run the server's
    probes are toggled every :data:`TRACE_BLOCK_S` between statements."""
    connections = [_Connection(server.port) for _ in range(CONNECTIONS)]
    selector = selectors.DefaultSelector()
    for connection in connections:
        selector.register(connection.sock, selectors.EVENT_READ, connection)
    position = start_at
    begin = time.perf_counter()
    timed = seconds is not None
    if timed:
        log.clock_start = begin
    deadline = begin + seconds if timed else None
    block_end = begin + TRACE_BLOCK_S
    next_probe = begin
    traced = False

    def open_more() -> bool:
        now = time.perf_counter()
        return position < stop_at and (deadline is None or now < deadline)

    try:
        while True:
            idle = [c for c in connections if c.op is None]
            now = time.perf_counter()
            switch_due = traced_run and timed and now >= block_end
            probe_due = timed and now >= next_probe and open_more()
            if len(idle) == len(connections):
                # toggle and probe only with nothing in flight
                if switch_due:
                    traced = server.toggle_trace() == "on"
                    block_end = time.perf_counter() + TRACE_BLOCK_S
                    switch_due = False
                if probe_due:
                    log.probe()
                    next_probe = time.perf_counter() + speed.PROBE_EVERY_S
                    probe_due = False
            if not (switch_due or probe_due):
                for connection in idle:
                    if open_more():
                        connection.send(position, tape[position], traced)
                        position += 1
            if all(c.op is None for c in connections):
                break
            events = selector.select(timeout=STATEMENT_TIMEOUT_S)
            if not events:
                raise TimeoutError("no reply from the server")
            for key, _ in events:
                connection = key.data
                data = connection.sock.recv(65536)
                if not data:
                    raise ConnectionError("server closed the connection")
                connection.buffer += data
                payload = connection.reply()
                if payload is None:
                    continue
                latency = (time.perf_counter() - connection.sent_at) * 1000.0
                op, connection.op = connection.op, None
                _record(connection.position, op, payload, latency, connection.traced,
                        log, timed, traced_run)
    finally:
        selector.close()
        for connection in connections:
            connection.sock.close()
    if timed:
        log.timed_start, log.timed_stop = start_at, position
        if traced:
            server.toggle_trace()
    log.executed = position


def _record(position: int, op: Op, payload: str, latency: float, traced: bool,
            log: RunLog, timed: bool, traced_run: bool) -> None:
    if payload.startswith("error:"):
        log.errors += 1
        log.note_failure(op, payload.strip())
    elif not checks.check_text(op, payload):
        log.wrong += 1
        log.note_failure(op, "wrong result")
    if timed:
        log.note_timed(position, op, latency, traced if traced_run else None)
