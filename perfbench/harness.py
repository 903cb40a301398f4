"""Server processes and the keep-alive HTTP client the benchmark drives.

The server under test always runs as its own process (``python3 -m
repro.cli serve``, or the traced launcher); the client never imports the
program.  :class:`Ops` counts every request by operation type: how many
were attempted, how many failed, and the latency of each success.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
#: failures kept verbatim per :class:`Ops` for the error message
MAX_FAILURES = 5


class BenchError(RuntimeError):
    """The benchmark cannot go on (server did not start, died, ...)."""


class Ops:
    """Attempted / failed counts and success latencies per operation."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.attempted: Dict[str, int] = {}
        self.failed: Dict[str, int] = {}
        self.latency: Dict[str, List[float]] = {}
        #: the first few failures, as ``op: METHOD path -> status``
        self.failures: List[str] = []

    def record(self, op: str, seconds: Optional[float],
               failure: str = "") -> None:
        """One attempt; ``seconds`` is None when it failed, and
        ``failure`` then says how."""
        with self.lock:
            self.attempted[op] = self.attempted.get(op, 0) + 1
            if seconds is None:
                self.failed[op] = self.failed.get(op, 0) + 1
                if len(self.failures) < MAX_FAILURES:
                    self.failures.append(f"{op}: {failure}")
            else:
                self.latency.setdefault(op, []).append(seconds)

    def merge(self, other: "Ops") -> None:
        for op, n in other.attempted.items():
            self.attempted[op] = self.attempted.get(op, 0) + n
        for op, n in other.failed.items():
            self.failed[op] = self.failed.get(op, 0) + n
        for op, samples in other.latency.items():
            self.latency.setdefault(op, []).extend(samples)
        room = MAX_FAILURES - len(self.failures)
        self.failures.extend(other.failures[:max(0, room)])


class Client:
    """One keep-alive HTTP/1.1 connection with TCP_NODELAY."""

    def __init__(self, port: int, ops: Ops) -> None:
        self.port = port
        self.ops = ops
        self.conn: Optional[http.client.HTTPConnection] = None

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def call(self, op: str, method: str, path: str, body=None):
        """``(status, payload)``; status 0 means the connection failed.

        A non-2xx reply or a lost connection counts as a failed
        operation in :attr:`ops`.
        """
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        start = time.perf_counter()
        try:
            if self.conn is None:
                self.conn = self._connect()
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            self.ops.record(op, None, f"{method} {path} -> {exc!r}")
            return 0, None
        elapsed = time.perf_counter() - start
        if 200 <= status < 300:
            self.ops.record(op, elapsed)
        else:
            self.ops.record(op, None, f"{method} {path} -> {status} "
                                      f"{raw[:200].decode('utf-8', 'replace')}")
        try:
            payload = json.loads(raw) if raw else None
        except ValueError:
            payload = None
        return status, payload

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Server:
    """One server process on an ephemeral port."""

    def __init__(self, argv: Sequence[str], env: dict, log: Path) -> None:
        self.argv = list(argv)
        self.log_path = log
        self._log = log.open("ab")
        self.launched_at = time.time()
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv,
            stdout=subprocess.PIPE,
            stderr=self._log,
            stdin=subprocess.DEVNULL,
            env=env,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        found: List[str] = []

        def reader() -> None:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            found.append(line)

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        thread.join(START_TIMEOUT)
        line = found[0] if found else ""
        if "serving on" not in line:
            self.kill()
            raise BenchError(
                f"server did not start: {self.argv!r}\n{self.log_tail()}"
            )
        return int(line.strip().rsplit(":", 1)[1].split("/")[0])

    def log_tail(self, lines: int = 20) -> str:
        self._log.flush()
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def wait_ready(self) -> float:
        """Seconds from launch until ``/healthz`` answers 200.

        The polls are counted apart from the run's operations: a poll
        that finds the server still starting is not a failure."""
        client = Client(self.port, Ops())
        try:
            deadline = time.perf_counter() + START_TIMEOUT
            while time.perf_counter() < deadline:
                status, _ = client.call("healthz", "GET", "/healthz")
                if status == 200:
                    return time.perf_counter() - self.launched
                time.sleep(0.01)
        finally:
            client.close()
        raise BenchError(f"server never became healthy\n{self.log_tail()}")

    def _proc_fields(self) -> List[str]:
        with open(f"/proc/{self.proc.pid}/stat", "r") as stream:
            text = stream.read()
        return text[text.rindex(")") + 2:].split()

    def cpu_seconds(self) -> float:
        """User + system CPU time the server has used so far."""
        fields = self._proc_fields()
        # fields[11], fields[12] are utime and stime (stat fields 14, 15)
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """``VmHWM``: the server's resident-set high-water mark."""
        with open(f"/proc/{self.proc.pid}/status", "r") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def signal_and_wait_file(self, path: Path, timeout: float = 60.0) -> None:
        """SIGUSR1 (the traced launcher's dump request), then wait for
        ``path`` to appear."""
        if path.exists():
            path.unlink()
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + timeout
        while not path.exists():
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise BenchError(f"no span dump from the server\n{self.log_tail()}")
            time.sleep(0.02)

    def kill(self) -> None:
        """SIGKILL: the crash the restart recovers from."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close()

    def stop(self) -> None:
        """SIGINT: a drained shutdown with its final checkpoint."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise BenchError(f"server ignored SIGINT\n{self.log_tail()}")
        self._close()

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def server_argv(
    checkout: Path, traced_spans: Optional[Path], serve_args: Sequence[str]
) -> List[str]:
    """The command line of one server process."""
    if traced_spans is None:
        return [sys.executable, "-m", "repro.cli", "serve", *serve_args]
    launcher = checkout / "perfbench" / "traced_server.py"
    return [sys.executable, str(launcher), str(traced_spans), "serve",
            *serve_args]


def dir_bytes(path: Path) -> int:
    """Bytes in every regular file under ``path``."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(root, name)).st_size
            except FileNotFoundError:
                pass
    return total
