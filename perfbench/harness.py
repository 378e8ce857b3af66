"""Shared plumbing of the benchmark: paths, servers, HTTP, statistics.

Nothing here imports ``busytime``; the workloads import it after
:func:`program_root` has put the checkout's ``src`` directory on the path.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import resource
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: How many times each run sets its workload up; ``setup_s`` is the median.
SETUP_REPEATS = 3

T = TypeVar("T")

#: Seconds a child server gets to print its address, and to stop.
SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 30.0


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's sources."""


def program_root() -> Path:
    """Put the checkout's ``src`` on ``sys.path``; refuse when it is absent."""
    if not (SRC / "busytime" / "__init__.py").is_file():
        raise MissingProgram(f"no busytime package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SRC


def child_env(tmpdir: Path) -> Dict[str, str]:
    """Environment for child processes: the program's sources, and every
    temporary file under the run's own directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmpdir)
    env.pop("BUSYTIME_SELECTOR", None)
    env.pop("BUSYTIME_PROFILE_INDEX", None)
    return env


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def peak_rss_mb_self() -> float:
    """Peak resident memory of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, in MB."""
    text = Path(f"/proc/{pid}/status").read_text()
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", text, re.MULTILINE)
    if match is None:
        raise RuntimeError(f"no VmHWM for process {pid}")
    return int(match.group(1)) / 1024.0


def set_up(make: Callable[[int], T]) -> Tuple[T, List[float]]:
    """Set a workload up ``SETUP_REPEATS`` times; keep the last set-up.

    ``make(k)`` builds set-up number ``k``; every earlier one is stopped
    (when it has a ``stop`` method).  Returns the last set-up and the
    duration of each.
    """
    durations: List[float] = []
    state = None
    for k in range(SETUP_REPEATS):
        if state is not None and hasattr(state, "stop"):
            state.stop()
        started = time.perf_counter()
        state = make(k)
        durations.append(time.perf_counter() - started)
    return state, durations


def fresh_import(tmpdir: Path, modules: str) -> None:
    """Start a fresh interpreter that imports ``modules`` (a user's set-up)."""
    subprocess.run(
        [sys.executable, "-c", f"import {modules}"],
        env=child_env(tmpdir),
        cwd=tmpdir,
        check=True,
        timeout=120,
    )


# -- child servers ------------------------------------------------------------


class Server:
    """A ``busytime serve`` child process on a free port (port 0).

    With ``spans_path`` the server is ``traced_server.py``, the same server
    with spans, which writes them to ``spans_path`` when it stops.  Always
    stop it with :meth:`stop` (the workloads do so in ``finally``).
    """

    def __init__(self, tmpdir: Path, spans_path: Optional[Path] = None):
        if spans_path is None:
            argv = [sys.executable, "-m", "busytime.cli", "serve", "--port", "0"]
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_server.py"), str(spans_path)]
        self.log_path = tmpdir / f"server-{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=tmpdir,
            env=child_env(tmpdir),
            text=True,
        )
        try:
            self.host, self.port = self._await_address()
        except BaseException:
            self.stop()
            raise

    def _await_address(self) -> Tuple[str, int]:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = re.search(r"http://([0-9.]+):(\d+)", line)
                if match:
                    return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
        raise RuntimeError(
            f"server did not report its address; log: {self.log_path.read_text()[-2000:]}"
        )

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), then SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(SERVER_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class Client:
    """One keep-alive HTTP/1.1 connection; every call waits for its reply."""

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)
        self.conn.connect()
        self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def call(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, bytes, float]:
        """Send one request; returns ``(status, body bytes, seconds)``."""
        hdrs = {"Content-Type": "application/json"} if body is not None else {}
        hdrs.update(headers or {})
        started = time.perf_counter()
        self.conn.request(method, path, body=body, headers=hdrs)
        reply = self.conn.getresponse()
        data = reply.read()
        elapsed = time.perf_counter() - started
        if reply.getheader("Connection", "").lower() == "close":
            self.conn.close()
            self.conn.connect()
            self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return reply.status, data, elapsed

    def json(self, method: str, path: str, doc=None) -> dict:
        body = None if doc is None else json.dumps(doc).encode()
        status, data, _ = self.call(method, path, body)
        if status >= 300:
            raise RuntimeError(f"{method} {path} answered {status}: {data[:300]!r}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()


def strict_json(data: bytes):
    """Parse JSON, refusing the ``NaN``/``Infinity`` extensions."""

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(data, parse_constant=refuse)


# -- the result line ----------------------------------------------------------


class Result:
    """Operation counts, correctness and metrics of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        #: per-layer values of a traced run, by metric name
        self.layers: Dict[str, float] = {}

    def fail_check(self, message: str) -> None:
        """Record a correctness failure (the run then exits non-zero)."""
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def correct(self) -> bool:
        return not self.errors

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def op_metrics(
    result: Result,
    blocks: Sequence[Tuple[Sequence[float], float]],
    setups: Sequence[float],
    peak_rss_mb: float,
    cost: float,
    bound: float,
) -> None:
    """The end-to-end metrics every workload reports.

    ``blocks`` holds ``(latencies, items)`` per block of operations:
    operation times in seconds, whose sum is the block's measured wall time
    (a closed loop has one operation in flight), and the work items they
    completed.  Latency percentiles and throughput are taken per block and
    the median over blocks is reported, so one block slowed by the host
    does not set the run's figure.
    """
    def median_of(metric) -> float:
        return statistics.median(metric(lat, items) for lat, items in blocks)

    result.put("setup_s", statistics.median(setups), "s")
    result.put("latency_p50_ms", median_of(lambda lat, _: percentile(lat, 50)) * 1e3, "ms")
    result.put("latency_p99_ms", median_of(lambda lat, _: percentile(lat, 99)) * 1e3, "ms")
    result.put("throughput_per_s", median_of(lambda lat, items: items / sum(lat)), "1/s")
    result.put("peak_rss_mb", peak_rss_mb, "MB")
    result.put("cost_ratio", cost / bound if bound > 0 else 0.0, "ratio")
