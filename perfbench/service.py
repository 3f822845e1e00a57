"""``repro serve`` processes and the closed-loop HTTP clients of the
service workloads.

Servers keep their production defaults apart from port and cache
directory: ``repro serve --port 0 --jobs 1 --cache-dir DIR``.  A traced
server starts through ``launcher.py``, which installs the layer wrappers
first.  A :class:`Session` owns a run's servers and cache directories and
releases them together, also when the run fails midway: every server is
stopped and waited for, with its pool worker, and the directories are
removed.
"""

from __future__ import annotations

import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HOST = "127.0.0.1"
#: Seconds a server may take to report its port, and to exit after SIGTERM.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
#: Seconds a client waits for one response.
REQUEST_TIMEOUT = 120.0
#: 429 answers a client sits out before it gives up on an operation.
THROTTLE_RETRIES = 5

_LISTENING = re.compile(r"listening on http://[^\s:]+:(\d+)")


def _parents() -> Dict[int, int]:
    """Every running process id, mapped to its parent's."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue
            parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    return parents


def descendants(pid: int) -> List[int]:
    """The processes ``pid`` started, and theirs."""
    parents = _parents()
    found, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        children = [child for child, parent in parents.items() if parent == current]
        found += children
        frontier += children
    return found


def alive(pid: int) -> bool:
    """Whether ``pid`` still runs; a zombie has ended."""
    try:
        stat = Path("/proc", str(pid), "stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def peak_rss_kb(pid: int) -> int:
    """The peak resident set (``VmHWM``) of a running process, in KiB."""
    try:
        status = Path("/proc", str(pid), "status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def disk_counts(cache: Path) -> Tuple[int, int]:
    """``(live entries, quarantined entries)`` of a server's cache directory."""
    live = len(list(cache.glob("*.json"))) + len(list(cache.glob("units/*.json")))
    return live, len(list(cache.glob("quarantine/*.bad")))


def _await_exit(pid: int) -> None:
    """Wait for a server's pool worker, which this process did not start,
    to end; kill it if it outlives the server by :data:`STOP_TIMEOUT`."""
    for signum in (None, signal.SIGKILL):
        if signum is not None and alive(pid):
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                return
        deadline = time.monotonic() + STOP_TIMEOUT
        while alive(pid) and time.monotonic() < deadline:
            time.sleep(0.02)


class Server:
    """One ``repro serve --jobs 1`` process, on a port it picks itself."""

    def __init__(self, cache_dir: Path, traced: bool) -> None:
        entry = [str(HERE / "launcher.py")] if traced else ["-m", "repro.cli"]
        self.process = subprocess.Popen(
            [sys.executable, *entry, "serve", "--port", "0", "--jobs", "1",
             "--cache-dir", str(cache_dir)],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.output: List[str] = []
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _read(self) -> None:
        for line in self.process.stdout:
            self.output.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("repro serve did not report its port") from None
            if line is None:
                raise RuntimeError("repro serve exited:\n" + "".join(self.output))
            match = _LISTENING.search(line)
            if match:
                return int(match.group(1))

    def processes(self) -> List[int]:
        """The server's process id and its pool worker's."""
        return [self.process.pid, *descendants(self.process.pid)]

    def stop(self) -> None:
        """SIGTERM, on which the server drains; then wait for it and its
        worker to end."""
        if self.process.poll() is None:
            workers = descendants(self.process.pid)
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            for pid in workers:
                _await_exit(pid)
        self._reader.join(STOP_TIMEOUT)
        self.process.stdout.close()


class Session:
    """The servers and cache directories of one run, released together."""

    def __init__(self, parent: Path) -> None:
        self.parent = parent
        self.directory: Optional[Path] = None
        self.servers: List[Server] = []

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def cache_dir(self) -> Path:
        """A new, empty cache directory inside the run's directory."""
        if self.directory is None:
            self.parent.mkdir(parents=True, exist_ok=True)
            self.directory = Path(tempfile.mkdtemp(prefix="run-", dir=self.parent))
        return Path(tempfile.mkdtemp(prefix="cache-", dir=self.directory))

    def start(self, cache_dir: Path, traced: bool) -> Server:
        server = Server(cache_dir, traced)
        self.servers.append(server)
        return server

    def close(self) -> None:
        try:
            while self.servers:
                self.servers.pop().stop()
        finally:
            if self.directory is not None:
                shutil.rmtree(self.directory, ignore_errors=True)


def health(port: int) -> dict:
    """The server's ``/healthz`` document."""
    from repro.service.client import ServiceClient

    with ServiceClient(HOST, port, REQUEST_TIMEOUT) as client:
        return client.healthz()


@dataclass
class Exchange:
    """One request and its response."""

    op: object
    sent: float
    received: float
    #: The HTTP status; 0 when no response arrived.
    status: int
    payload: dict


@dataclass
class Loop:
    """The exchanges of one closed-loop section."""

    exchanges: List[Exchange]
    seconds: float
    #: Requests sent again after a 429, and 429 answers received.
    retries: int
    throttled: int


def closed_loop(
    port: int, ops: Iterator, request: Callable[[object], Tuple[str, dict]], clients: int
) -> Loop:
    """``POST /v1/certify`` every op from ``clients`` keep-alive
    connections; each sends its next op only after the reply to its
    previous one.  ``request`` gives an op's source and extra body fields.

    A 429 answer is sat out for its ``Retry-After`` and sent again, up to
    :data:`THROTTLE_RETRIES` times; ``ServiceClient`` itself reopens a
    reused connection the server closed in between, once.
    """
    from repro.service.client import ServiceClient, ServiceError, ServiceThrottled

    lock = threading.Lock()
    exchanges: List[Exchange] = []
    tallies = {"retries": 0, "throttled": 0}

    def certify(client: ServiceClient, source: str, extra: dict) -> Tuple[int, dict]:
        for attempt in range(THROTTLE_RETRIES + 1):
            try:
                payload = client.certify(source, **extra)
                return payload["_status"], payload
            except ServiceThrottled as throttle:
                with lock:
                    tallies["throttled"] += 1
                if attempt == THROTTLE_RETRIES:
                    return throttle.status, {"error": str(throttle)}
                with lock:
                    tallies["retries"] += 1
                time.sleep(throttle.retry_after)
            except ServiceError as error:
                return 0, {"error": str(error)}

    def client_loop() -> None:
        with ServiceClient(HOST, port, REQUEST_TIMEOUT) as client:
            while True:
                with lock:
                    op = next(ops, None)
                if op is None:
                    return
                source, extra = request(op)
                sent = time.perf_counter()
                status, payload = certify(client, source, extra)
                exchanges.append(Exchange(op, sent, time.perf_counter(), status, payload))

    started = time.perf_counter()
    threads = [threading.Thread(target=client_loop, daemon=True) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = max((e.received for e in exchanges), default=started) - started
    return Loop(exchanges, seconds, tallies["retries"], tallies["throttled"])
