"""Client connection-management tests against hostile tiny servers.

The production failure mode: a keep-alive client sits idle past the
server's idle timeout, the server closes the socket, and the client's
next request lands on the corpse — ``BadStatusLine('')`` / ECONNRESET.
That says nothing about server health, so :class:`ServiceClient` must
reconnect and retry exactly once — and only when the connection was
*reused*; a failure on a fresh connection surfaces immediately.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import List

import pytest

from repro.service.client import ServiceClient, ServiceError


class OneShotServer:
    """Accepts connections; serves ``limit`` requests per connection, then
    silently closes the socket *without* a ``Connection: close`` header —
    exactly how an idle-timeout reaper looks to the client."""

    def __init__(self, per_connection_limit: int = 1, respond: bool = True):
        self.limit = per_connection_limit
        self.respond = respond
        self.accepts: List[int] = []
        self.requests_served = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.accepts.append(len(self.accepts))
            with conn:
                for _ in range(self.limit):
                    if not self.respond:
                        break  # connection dropped with no response at all
                    try:
                        if not self._serve_one(conn):
                            break
                    except OSError:
                        break

    def _serve_one(self, conn: socket.socket) -> bool:
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                return False
            data += chunk
        head, _, rest = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        while len(rest) < length:
            rest += conn.recv(65536)
        body = json.dumps({"ok": True, "served": self.requests_served}).encode()
        # Counted before the answer leaves: once the client has read it,
        # the test may assert on the count before this thread runs again.
        self.requests_served += 1
        conn.sendall(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
        return True

    def close(self) -> None:
        self._stop.set()
        self._sock.close()


class TestStaleKeepAliveRetry:
    def test_request_on_a_server_closed_connection_retries_once(self):
        """Request 1 succeeds; the server then closes the socket without
        telling the client.  Request 2 hits the stale connection, and the
        client must transparently reconnect — two accepts, two answers,
        zero client-visible errors."""
        server = OneShotServer(per_connection_limit=1)
        try:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                first = client.healthz()
                assert first["ok"] is True
                second = client.healthz()
                assert second["ok"] is True
        finally:
            server.close()
        assert len(server.accepts) == 2
        assert server.requests_served == 2

    def test_a_healthy_keepalive_connection_is_not_reconnected(self):
        server = OneShotServer(per_connection_limit=100)
        try:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                for _ in range(3):
                    assert client.healthz()["ok"] is True
        finally:
            server.close()
        assert len(server.accepts) == 1

    def test_failure_on_a_fresh_connection_is_not_retried(self):
        """A server that accepts and drops without answering: the first
        (fresh) connection's failure must surface immediately — exactly
        one accept, no blind second attempt."""
        server = OneShotServer(respond=True)
        server.respond = False
        try:
            with ServiceClient(port=server.port, timeout=5.0) as client:
                with pytest.raises(ServiceError):
                    client.healthz()
        finally:
            server.close()
        assert len(server.accepts) == 1

    def test_connect_refused_surfaces_as_service_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        with ServiceClient(port=dead_port, timeout=2.0) as client:
            with pytest.raises(ServiceError):
                client.healthz()
