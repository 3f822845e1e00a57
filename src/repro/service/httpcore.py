"""Minimal HTTP/1.1 plumbing for the certification server.

Trust: **untrusted** transport — byte shuffling only; nothing here is
load-bearing for soundness.

:mod:`repro.service.server` speaks a deliberately small HTTP dialect:
``Content-Length`` bodies, keep-alive with pushback-capable buffered
reads, no chunked encoding.  Request framing and response writing live
here, apart from routing and admission, so the wire format can be read
and tested on its own.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

MAX_HEADER_BYTES = 16 * 1024

STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 413: "Payload Too Large", 422: "Unprocessable Entity",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: (status, body bytes, content type, extra headers) — the tuple every
#: request handler returns.
Response = Tuple[int, bytes, str, Dict[str, str]]


class BadRequest(Exception):
    """A malformed or over-limit request (carries the HTTP status)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


class Connection:
    """A buffered reader with pushback (for disconnect-watch pipelining)."""

    def __init__(self, reader: asyncio.StreamReader):
        self.reader = reader
        self.buffer = b""

    def push_back(self, data: bytes) -> None:
        self.buffer = data + self.buffer

    async def _fill(self) -> bool:
        chunk = await self.reader.read(65536)
        if not chunk:
            return False
        self.buffer += chunk
        return True

    async def read_until(self, marker: bytes, limit: int) -> Optional[bytes]:
        """Bytes through ``marker``; None on immediate EOF; raises on limit."""
        while marker not in self.buffer:
            if len(self.buffer) > limit:
                raise BadRequest("headers too large", status=413)
            if not await self._fill():
                if not self.buffer:
                    return None
                raise BadRequest("connection closed mid-request")
        index = self.buffer.index(marker) + len(marker)
        head, self.buffer = self.buffer[:index], self.buffer[index:]
        return head

    async def read_exact(self, count: int) -> bytes:
        while len(self.buffer) < count:
            if not await self._fill():
                raise BadRequest("connection closed mid-body")
        body, self.buffer = self.buffer[:count], self.buffer[count:]
        return body


async def read_request(
    conn: Connection, max_body_bytes: int, max_header_bytes: int = MAX_HEADER_BYTES
) -> Optional[Request]:
    """Read one request off the connection (None on clean EOF)."""
    head = await conn.read_until(b"\r\n\r\n", max_header_bytes)
    if head is None:
        return None
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, path, _version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError):
        raise BadRequest("malformed request line") from None
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise BadRequest(f"bad Content-Length {length_text!r}") from None
    if length < 0 or length > max_body_bytes:
        raise BadRequest(
            f"body of {length} bytes exceeds the {max_body_bytes}-byte limit",
            status=413,
        )
    body = await conn.read_exact(length) if length else b""
    return Request(method=method.upper(), path=path, headers=headers, body=body)


def json_response(
    status: int, payload: Dict[str, Any], headers: Optional[Dict[str, str]] = None
) -> Response:
    body = json.dumps(payload, sort_keys=False).encode("utf-8")
    return status, body, "application/json; charset=utf-8", dict(headers or {})


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    content_type: str,
    headers: Dict[str, str],
    keep_alive: bool,
) -> None:
    reason = STATUS_TEXT.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    writer.write(head + body)
    await writer.drain()
