"""Minimal HTTP/1.1 over asyncio streams — the service's wire layer.

The service deliberately stays on the standard library (the repo's only
hard dependency is numpy, for trace decode and replay), so
this module implements the small slice of HTTP/1.1 the endpoints need:

* request parsing (request line, headers, ``Content-Length`` bodies),
* fixed-length responses with ``ETag``/``304`` conditional handling,
* chunked transfer encoding for the job-progress event stream.

It is not a general web server: no TLS, no pipelining guarantees beyond
serial keep-alive, request bodies capped at :data:`MAX_BODY_BYTES`.
Everything a route handler returns is a :class:`Response` (one buffer)
or a :class:`StreamResponse` (an async producer fed a chunk writer) —
the connection loop in :mod:`repro.serve.app` does the writing.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qs, unquote, urlsplit

#: Longest accepted request line + single header line, bytes.
MAX_LINE_BYTES = 16 * 1024

#: Most headers accepted per request.
MAX_HEADERS = 64

#: Largest accepted request body (job specs are small JSON documents).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Reason phrases for the statuses the service emits.
REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class ProtocolError(ValueError):
    """A malformed or oversized request; maps to a 400/413 response."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str  # the raw request target, e.g. /results/fig10?pretty=1
    path: str  # decoded path component
    query: dict[str, list[str]]
    headers: dict[str, str]  # keys lower-cased
    body: bytes = b""

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    @property
    def if_none_match(self) -> set[str]:
        """ETag values offered by ``If-None-Match`` (quotes stripped)."""
        raw = self.header("if-none-match")
        if not raw:
            return set()
        return {
            candidate.strip().strip('"')
            for candidate in raw.split(",")
            if candidate.strip()
        }

    def json(self):
        """The body decoded as JSON, or :class:`ProtocolError`."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise ProtocolError(f"request body is not valid JSON: {error}")


@dataclass
class Response:
    """One fixed-length response, ready to serialise."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(
        cls,
        document,
        status: int = 200,
        headers: dict[str, str] | None = None,
    ) -> "Response":
        body = (json.dumps(document, indent=2, sort_keys=True) + "\n").encode(
            "utf-8"
        )
        return cls(
            status=status,
            body=body,
            content_type="application/json",
            headers=dict(headers or {}),
        )

    @classmethod
    def text(cls, text: str, status: int = 200) -> "Response":
        return cls(
            status=status,
            body=text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        return cls.json(
            {"error": message, "status": status}, status=status
        )

    @classmethod
    def not_modified(cls, etag: str) -> "Response":
        return cls(status=304, body=b"", headers={"ETag": f'"{etag}"'})


@dataclass
class StreamResponse:
    """A chunked response produced incrementally by ``producer``.

    ``producer`` is an async callable receiving an ``emit`` coroutine;
    every ``await emit(data)`` sends one chunk (for the job stream, one
    line-delimited JSON event).  The connection closes after the stream
    finishes — a streamed response's length is unknown up front, and
    closing keeps the protocol layer trivial for the one endpoint that
    streams.
    """

    producer: object  # async (emit) -> None
    status: int = 200
    content_type: str = "application/x-ndjson"
    headers: dict[str, str] = field(default_factory=dict)


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request off the stream; ``None`` on clean EOF."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between requests
        raise ProtocolError("connection closed mid-request-line")
    except asyncio.LimitOverrunError:
        raise ProtocolError("request line too long", status=413)
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("request line too long", status=413)
    try:
        method, target, version = line.decode("ascii").split()
    except (UnicodeDecodeError, ValueError):
        raise ProtocolError(f"malformed request line {line!r}")
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported protocol {version!r}")

    headers: dict[str, str] = {}
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise ProtocolError("connection closed mid-headers")
        if line == b"\r\n":
            break
        if len(headers) >= MAX_HEADERS:
            raise ProtocolError("too many headers", status=413)
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise ProtocolError("undecodable header line")
        if not _:
            raise ProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_text = headers.get("content-length")
    if length_text:
        try:
            length = int(length_text)
        except ValueError:
            raise ProtocolError(f"bad Content-Length {length_text!r}")
        if length < 0:
            raise ProtocolError(f"bad Content-Length {length_text!r}")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES} "
                f"byte limit",
                status=413,
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError("connection closed mid-body")
    elif headers.get("transfer-encoding"):
        raise ProtocolError("chunked request bodies are not supported")

    split = urlsplit(target)
    return Request(
        method=method.upper(),
        target=target,
        path=unquote(split.path),
        query=parse_qs(split.query),
        headers=headers,
        body=body,
    )


def _head(
    status: int,
    content_type: str | None,
    length: int | None,
    extra: dict[str, str],
    server: str,
    close: bool,
    chunked: bool = False,
) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}", f"Server: {server}"]
    if content_type is not None and status not in (204, 304):
        lines.append(f"Content-Type: {content_type}")
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    elif length is not None:
        lines.append(f"Content-Length: {length}")
    for name, value in extra.items():
        lines.append(f"{name}: {value}")
    lines.append(f"Connection: {'close' if close else 'keep-alive'}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def write_response(
    writer: asyncio.StreamWriter,
    request: Request | None,
    response: Response,
    server: str,
    close: bool,
) -> None:
    """Serialise a fixed-length response (body omitted for HEAD/204/304)."""
    body = response.body
    if response.status in (204, 304) or (
        request is not None and request.method == "HEAD"
    ):
        payload = b""
    else:
        payload = body
    writer.write(
        _head(
            response.status,
            response.content_type,
            len(body),
            response.headers,
            server,
            close,
        )
    )
    writer.write(payload)
    await writer.drain()


async def write_stream(
    writer: asyncio.StreamWriter,
    response: StreamResponse,
    server: str,
) -> None:
    """Run a streamed response: chunked encoding, connection closes after."""
    writer.write(
        _head(
            response.status,
            response.content_type,
            None,
            response.headers,
            server,
            close=True,
            chunked=True,
        )
    )
    await writer.drain()

    async def emit(data: bytes) -> None:
        if not data:
            return
        writer.write(f"{len(data):x}\r\n".encode("ascii"))
        writer.write(data)
        writer.write(b"\r\n")
        await writer.drain()

    try:
        await response.producer(emit)
    finally:
        writer.write(b"0\r\n\r\n")
        await writer.drain()
