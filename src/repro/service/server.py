"""The daemon's wire formats: a small HTTP/1.1 lane and a UDS IPC lane.

Both lanes are thin shells over :meth:`AdviceService.handle_request`; all
policy (validation, caching, coalescing, backpressure, draining) lives in
:mod:`repro.service.core`.  Handlers are stdlib-asyncio only — the daemon
adds no dependencies to the library.

**HTTP lane** (``asyncio.start_server``): a deliberately minimal HTTP/1.1
subset — request line, headers, ``Content-Length`` bodies, keep-alive —
enough for ``http.client``, ``curl``, and any load generator.  Endpoints:

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
against exactly these bytes.
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


async def _route(
    service: "AdviceService", method: str, path: str, body: bytes
) -> Tuple[Dict[str, Any], int, Dict[str, str]]:
    if path == "/healthz":
        if method != "GET":
            return error_envelope("bad_request", "healthz is GET-only"), 405, {}
        return {"ok": True, "status": "draining" if service.draining else "serving"}, 200, {}
    if path == "/stats":
        if method != "GET":
            return error_envelope("bad_request", "stats is GET-only"), 405, {}
        return service.stats_snapshot(), 200, {}
    if path in ("/v1/jobs", "/v1/advice", "/v1/simulate"):
        if method != "POST":
            return error_envelope("bad_request", f"{path} is POST-only"), 405, {}
        data, ok = _parse_body(body)
        if not ok:
            return error_envelope("bad_request", "request body is not valid JSON"), 400, {}
        if path != "/v1/jobs" and isinstance(data, dict):
            data = dict(data)
            data.setdefault("job", path.rsplit("/", 1)[1])
        return await service.handle_request(data, lane="http")
    return error_envelope("bad_request", f"no such endpoint: {path}"), 404, {}


def _http_response(
    status: int, envelope: Dict[str, Any], headers: Dict[str, str], close: bool
) -> bytes:
    body = canonical_json(envelope).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


async def _read_head(reader: asyncio.StreamReader):
    """The request line and headers, or None at a clean EOF."""
    request_line = await reader.readline()
    if not request_line:
        return None
    if len(request_line) > _MAX_HEAD_LINE:
        raise ValueError("request line too long")
    parts = request_line.decode("ascii", "replace").split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line: {request_line!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if not line:
            raise ValueError("connection closed mid-headers")
        if len(line) > _MAX_HEAD_LINE:
            raise ValueError("header line too long")
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("ascii", "replace").partition(":")
        headers[name.strip().lower()] = value.strip()
    return method, target, headers


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
            except (ValueError, ConnectionError):
                break
            if head is None:
                break
            method, target, headers = head
            path = target.split("?", 1)[0]
            length = _content_length(headers)
            if length is None or length > _MAX_BODY:
                message = (
                    "Content-Length must be a non-negative decimal integer"
                    if length is None
                    else f"body exceeds {_MAX_BODY} bytes"
                )
                writer.write(
                    _http_response(
                        400, error_envelope("bad_request", message), {}, close=True
                    )
                )
                await writer.drain()
                break
            body = await reader.readexactly(length) if length else b""
            service.request_started()
            try:
                envelope, status, extra = await _route(service, method, path, body)
                close = service.draining or headers.get("connection") == "close"
                writer.write(_http_response(status, envelope, extra, close))
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
                    envelope = error_envelope(
                        "bad_request", "request line is not valid JSON"
                    )
                else:
                    envelope, _status, _extra = await service.handle_request(
                        data, lane="ipc"
                    )
                    if isinstance(data, dict) and "id" in data:
                        envelope = {**envelope, "id": data["id"]}
                writer.write(canonical_json(envelope).encode("utf-8") + b"\n")
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
