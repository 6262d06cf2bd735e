"""The daemon's wire formats: a small HTTP/1.1 lane and a UDS IPC lane.

Both lanes are thin shells over :meth:`AdviceService.handle_request`; all
policy (validation, caching, coalescing, backpressure, draining) lives in
:mod:`repro.service.core`.  Handlers are stdlib-asyncio only — the daemon
adds no dependencies to the library.

**HTTP lane** (``asyncio.start_server``): a deliberately minimal HTTP/1.1
subset — request line, headers, ``Content-Length`` bodies, keep-alive —
enough for ``http.client``, ``curl``, and any load generator.  An HTTP/1.0
request closes its connection unless it asks for ``keep-alive``, and a
request the lane cannot read (a malformed head, a bad ``Content-Length``)
gets a ``bad_request`` 400, then a lingering close that keeps the kernel
from resetting the connection under the answer.
Endpoints:

* ``GET /healthz`` — liveness (and drain state),
* ``GET /stats`` — the service counters + cache accounting snapshot,
* ``POST /v1/jobs`` — a protocol request as the JSON body,
* ``POST /v1/advice`` / ``POST /v1/simulate`` — same, with ``job`` implied
  by the path.

**IPC lane** (``asyncio.start_unix_server``): newline-delimited JSON, one
request object per line, one envelope per line back.  A request may carry
an ``"id"`` field, echoed into the response envelope, so a pipelining
client can match answers to questions.  Without HTTP framing a cached hit
answers faster here than over HTTP, but the load generators
(``perfbench/loadgen.py``, ``benchmarks/bench_service.py``) drive the HTTP
lane, so the latencies they report include that framing.

Responses on both lanes are the *canonical JSON* encoding of the envelope
(sorted keys, compact separators) — the byte-identity contract is checked
against exactly these bytes.  A job's envelope arrives from
:meth:`AdviceService.handle_request` already encoded (a response-cache hit
is the stored bytes), so the lanes only frame it: HTTP adds its head, IPC
its newline.  The lanes encode only their own envelopes (``/healthz``,
``/stats``, malformed requests) and an echoed ``"id"``.
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from .protocol import canonical_json, error_envelope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .core import AdviceService

__all__ = ["start_http_server", "start_ipc_server"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Cap on request heads and bodies: a malformed client must not buffer
#: unbounded bytes into the daemon.
_MAX_HEAD_LINE = 16 * 1024
_MAX_BODY = 4 * 1024 * 1024

#: How long a refused connection drains its client's bytes (:func:`_refuse`).
_LINGER_S = 1.0


def _parse_body(raw: bytes) -> Tuple[Any, bool]:
    try:
        return json.loads(raw.decode("utf-8")), True
    except (ValueError, RecursionError):
        # ValueError covers bad UTF-8, bad JSON and integers past Python's
        # digit limit; RecursionError covers arrays or objects nested too
        # deep for the decoder.
        return None, False


def _content_length(headers: Dict[str, str]) -> Optional[int]:
    """The declared body length, or None unless it is a plain decimal."""
    raw = headers.get("content-length", "0") or "0"
    if not (raw.isascii() and raw.isdigit()):
        return None
    # A longer string is refused as oversize without int(), which raises
    # past Python's integer-digit limit.
    return int(raw) if len(raw) <= 16 else _MAX_BODY + 1


def _encode(envelope: Dict[str, Any]) -> bytes:
    """One of the lanes' own envelopes, as its canonical JSON bytes."""
    return canonical_json(envelope).encode("utf-8")


def _bad_request(message: str) -> bytes:
    return _encode(error_envelope("bad_request", message))


def _with_id(body: bytes, request_id: Any) -> bytes:
    """``body`` with the request's ``"id"`` echoed, as canonical JSON.

    Keys are sorted, so an envelope whose first key is ``"key"`` (every ok
    envelope) has no key before ``"id"``: the id goes in front without
    decoding the body, which may be a cached envelope of many KB.  An error
    envelope starts with ``"error"``, which sorts before ``"id"``; it is
    small, so it is decoded and encoded again with the id.
    """
    if body.startswith(b'{"key":'):
        return b'{"id":' + canonical_json(request_id).encode("utf-8") + b"," + body[1:]
    return _encode({**json.loads(body), "id": request_id})


def _wants_close(version: str, headers: Dict[str, str]) -> bool:
    """Whether the connection ends after this reply (RFC 9112, section 9.3).

    Connection options are comma-separated, case-insensitive tokens
    (RFC 9110, section 7.6.1).  A ``close`` option always ends it; an
    HTTP/1.0 request keeps it open only when it lists ``keep-alive``.
    """
    tokens = {
        token.strip().lower() for token in headers.get("connection", "").split(",")
    }
    if "close" in tokens:
        return True
    return version == "HTTP/1.0" and "keep-alive" not in tokens


async def _route(
    service: "AdviceService", method: str, path: str, body: bytes
) -> Tuple[bytes, int, Dict[str, str]]:
    if path == "/healthz":
        if method != "GET":
            return _bad_request("healthz is GET-only"), 405, {}
        status = "draining" if service.draining else "serving"
        return _encode({"ok": True, "status": status}), 200, {}
    if path == "/stats":
        if method != "GET":
            return _bad_request("stats is GET-only"), 405, {}
        return _encode(service.stats_snapshot()), 200, {}
    if path in ("/v1/jobs", "/v1/advice", "/v1/simulate"):
        if method != "POST":
            return _bad_request(f"{path} is POST-only"), 405, {}
        data, ok = _parse_body(body)
        if not ok:
            return _bad_request("request body is not valid JSON"), 400, {}
        if path != "/v1/jobs" and isinstance(data, dict):
            data = dict(data)
            data.setdefault("job", path.rsplit("/", 1)[1])
        return await service.handle_request(data, lane="http")
    return _bad_request(f"no such endpoint: {path}"), 404, {}


def _http_response(
    status: int, body: bytes, headers: Dict[str, str], close: bool
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


class _BadHead(Exception):
    """A request head the lane refuses; its message goes into the 400."""


async def _refuse(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, message: str
) -> None:
    """Answer a request the lane cannot read with a 400, then linger.

    Closing with unread input makes the kernel reset the connection, and
    a reset can overtake the 400.  So the lane half-closes, then drops
    what the client still sends, up to :data:`_MAX_BODY` bytes or for
    :data:`_LINGER_S` seconds, before the handler closes the socket.
    """
    writer.write(_http_response(400, _bad_request(message), {}, close=True))
    await writer.drain()
    writer.write_eof()
    try:
        await asyncio.wait_for(_discard(reader, _MAX_BODY), _LINGER_S)
    except asyncio.TimeoutError:
        pass


async def _discard(reader: asyncio.StreamReader, limit: int) -> None:
    """Read and drop up to ``limit`` bytes, or until the peer's EOF."""
    while limit > 0 and (chunk := await reader.read(limit)):
        limit -= len(chunk)


async def _read_head(reader: asyncio.StreamReader):
    """The request line's three parts and the headers.

    None when the peer closes before the head is complete; raises
    :class:`_BadHead` on a malformed request line or a line over
    :data:`_MAX_HEAD_LINE` bytes.
    """
    request_line = await reader.readline()
    if not request_line:
        return None
    if len(request_line) > _MAX_HEAD_LINE:
        raise _BadHead(f"request line exceeds {_MAX_HEAD_LINE} bytes")
    parts = request_line.decode("ascii", "replace").split()
    if len(parts) != 3:
        raise _BadHead("malformed request line: want METHOD TARGET VERSION")
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if not line:
            return None
        if len(line) > _MAX_HEAD_LINE:
            raise _BadHead(f"header line exceeds {_MAX_HEAD_LINE} bytes")
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("ascii", "replace").partition(":")
        headers[name.strip().lower()] = value.strip()
    return (*parts, headers)


async def _handle_http(
    service: "AdviceService",
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    service.track_connection(asyncio.current_task(), writer)
    try:
        while True:
            try:
                head = await _read_head(reader)
            except _BadHead as exc:
                await _refuse(reader, writer, str(exc))
                break
            except (ValueError, ConnectionError):
                break  # a line over the StreamReader limit, or peer reset
            if head is None:
                break
            method, target, version, headers = head
            path = target.split("?", 1)[0]
            length = _content_length(headers)
            if length is None or length > _MAX_BODY:
                await _refuse(
                    reader,
                    writer,
                    "Content-Length must be a non-negative decimal integer"
                    if length is None
                    else f"body exceeds {_MAX_BODY} bytes",
                )
                break
            body = await reader.readexactly(length) if length else b""
            service.request_started()
            try:
                reply, status, extra = await _route(service, method, path, body)
                close = service.draining or _wants_close(version, headers)
                writer.write(_http_response(status, reply, extra, close))
                await writer.drain()
            finally:
                service.request_finished()
            if close:
                break
    except (asyncio.IncompleteReadError, ConnectionError):
        pass  # client went away; nothing to answer
    finally:
        service.forget_writer(writer)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _handle_ipc(
    service: "AdviceService",
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    service.track_connection(asyncio.current_task(), writer)
    try:
        while True:
            try:
                line = await reader.readline()
            except (ValueError, ConnectionError):
                break  # line over the StreamReader limit, or peer reset
            if not line:
                break
            if not line.strip():
                continue
            data, ok = _parse_body(line)
            service.request_started()
            try:
                if not ok:
                    reply = _bad_request("request line is not valid JSON")
                else:
                    reply, _status, _extra = await service.handle_request(
                        data, lane="ipc"
                    )
                    if isinstance(data, dict) and "id" in data:
                        reply = _with_id(reply, data["id"])
                writer.write(reply + b"\n")
                await writer.drain()
            finally:
                service.request_finished()
            if service.draining:
                break
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        service.forget_writer(writer)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def start_http_server(service: "AdviceService") -> asyncio.AbstractServer:
    """Bind the HTTP lane on ``config.host:config.port`` (0 = ephemeral)."""

    async def handler(reader, writer):
        await _handle_http(service, reader, writer)

    return await asyncio.start_server(
        handler, host=service.config.host, port=service.config.port
    )


async def start_ipc_server(service: "AdviceService") -> asyncio.AbstractServer:
    """Bind the IPC lane on the ``config.uds`` socket path."""

    async def handler(reader, writer):
        await _handle_ipc(service, reader, writer)

    return await asyncio.start_unix_server(handler, path=service.config.uds)
