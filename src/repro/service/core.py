"""The service object: admission, coalescing, caching, draining.

:class:`AdviceService` is the daemon's brain, independent of any wire
format (:mod:`repro.service.server` owns the sockets).  One request flows
through four gates, cheapest first:

1. **Drain gate** — a draining service refuses new work outright.
2. **Response cache** — a bounded LRU of encoded ok envelopes keyed by
   :func:`~repro.service.protocol.request_key`.  Since payloads are pure
   functions of the canonical request, a hit is *the* answer, and the
   envelope carries no cache metadata — cached and computed responses are
   byte-identical.  Each envelope is encoded once, when its job's payload
   comes back; a hit sends those stored bytes and encodes nothing.
3. **Single-flight coalescing** — an identical request already in flight
   means this one just awaits the same future, which resolves to the
   leader's encoded envelope: N concurrent identical requests cost one
   construction and one encode.
4. **Admission** — at most ``max_pending`` *distinct* jobs compute at
   once; beyond that the service rejects with ``overloaded`` and a
   ``Retry-After`` hint rather than queueing without bound.  Rejection is
   deliberately cheap: no job state is created for refused work.

Admitted jobs run off the event loop on one job thread, which owns the
daemon's memo of built graphs and advice,
:class:`~repro.service.jobs.ConstructionCache` (one thread, so no
locking).

:meth:`AdviceService.handle_request` answers with the response's bytes:
ok envelopes from the LRU or the one encode of a compute, error envelopes
encoded where they are made.  The wire lanes only frame those bytes.

Telemetry goes through the standard :class:`~repro.obs.Observation`
machinery as the daemon's *access log*: ``service_*`` events fold into
``repro stats``-readable counters, and a drain emits the final
:class:`~repro.obs.events.ConstructionCacheStats` snapshot.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..obs.events import (
    ConstructionCacheStats,
    ServiceDrained,
    ServiceRejected,
    ServiceRequestReceived,
    ServiceResponseSent,
    ServiceStarted,
)
from ..obs.observe import Observation, resolve_obs
from .jobs import ConstructionCache, execute_job
from .protocol import (
    PROTOCOL_SCHEMA,
    RequestError,
    canonical_json,
    error_envelope,
    normalize_request,
    ok_envelope,
    request_key,
)

__all__ = ["RESPONSE_ENTRIES", "RETRY_AFTER_S", "ServiceConfig", "AdviceService"]

#: (envelope bytes, HTTP status, extra headers) — what one handled request
#: yields.
Response = Tuple[bytes, int, Dict[str, str]]

#: The response LRU's bound, in envelopes, least recently used out first.
RESPONSE_ENTRIES = 4096

#: Seconds an ``overloaded`` rejection asks the client to wait: its
#: ``retry_after_s`` field and its HTTP ``Retry-After`` header.
RETRY_AFTER_S = 1.0


def _encode(envelope: Mapping[str, Any]) -> bytes:
    """An envelope's wire bytes: its canonical JSON, UTF-8 encoded."""
    return canonical_json(envelope).encode("utf-8")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a daemon instance is parameterized by.

    ``port=0`` binds an ephemeral port (the bound address is published on
    :attr:`AdviceService.http_address`); ``uds`` additionally opens the
    Unix-socket IPC lane.
    """

    host: str = "127.0.0.1"
    port: int = 0
    uds: Optional[str] = None
    max_pending: int = 64

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")


class AdviceService:
    """The daemon's request broker; see the module docstring for the gates.

    Lifecycle: :meth:`start` inside a running event loop, then feed
    requests through :meth:`handle_request` (the wire handlers in
    :mod:`repro.service.server` do), then :meth:`drain` — or
    :meth:`request_drain` from a signal handler.  ``await
    service.stopped.wait()`` parks the daemon's main task until the drain
    completes.
    """

    def __init__(
        self, config: ServiceConfig, obs: Optional[Observation] = None
    ) -> None:
        self.config = config
        self.obs = resolve_obs(obs)
        self.cache = ConstructionCache()
        # Response LRU: key -> the ok envelope's encoded bytes.
        self._responses: "OrderedDict[str, bytes]" = OrderedDict()
        # Single-flight map: key -> future resolving to those bytes.
        self._inflight: Dict[str, "asyncio.Future[bytes]"] = {}
        self._pending = 0
        self._draining = False
        self.served = 0
        self.rejected = 0
        #: The job runner; tests may replace it with a blocking stand-in to
        #: hold requests in flight deterministically.
        self._job_fn: Callable[[Dict[str, Any]], Dict[str, Any]] = partial(
            execute_job, cache=self.cache
        )
        self._executor = None
        self._servers: list = []
        self._writers: set = set()
        self._conn_tasks: set = set()
        self._active_requests = 0
        self._idle_event: Optional[asyncio.Event] = None
        self._drain_task: Optional["asyncio.Task[None]"] = None
        self.stopped: Optional[asyncio.Event] = None
        self.http_address: Optional[Tuple[str, int]] = None
        self.ipc_path: Optional[str] = None

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open listeners, start the job thread, announce readiness."""
        self.stopped = asyncio.Event()
        self._idle_event = asyncio.Event()
        self._idle_event.set()
        # One thread: jobs run strictly serially off the event loop, so the
        # construction memo needs no locking.
        self._executor = ThreadPoolExecutor(max_workers=1)
        from .server import start_http_server, start_ipc_server

        server = await start_http_server(self)
        self._servers.append(server)
        self.http_address = server.sockets[0].getsockname()[:2]
        if self.config.uds:
            ipc = await start_ipc_server(self)
            self._servers.append(ipc)
            self.ipc_path = self.config.uds
        self.obs.emit(
            ServiceStarted(
                http=f"{self.http_address[0]}:{self.http_address[1]}",
                ipc=self.ipc_path or "",
                max_pending=self.config.max_pending,
            )
        )

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight work, refuse the rest.

        Ordering matters: flip the drain flag (new requests start getting
        ``draining`` refusals), close the listeners (no new connections),
        wait for every in-flight request to be *answered* (not merely
        computed), then tear down idle connections and the job thread, and
        emit the final accounting events.
        """
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        # In-flight jobs first: their futures must resolve before the job
        # thread may be shut down (shutdown blocks the loop until jobs finish).
        inflight = list(self._inflight.values())
        if inflight:
            await asyncio.gather(
                *(asyncio.shield(f) for f in inflight), return_exceptions=True
            )
        if self._active_requests > 0:
            assert self._idle_event is not None
            await self._idle_event.wait()
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self.obs.emit(
            ConstructionCacheStats(
                hits=self.cache.stats.hits,
                misses=self.cache.stats.misses,
                evictions=self.cache.stats.evictions,
                entries=len(self.cache),
            )
        )
        self.obs.emit(ServiceDrained(served=self.served, rejected=self.rejected))
        self.obs.close()
        if self.stopped is not None:
            self.stopped.set()

    def request_drain(self) -> "asyncio.Task[None]":
        """Schedule :meth:`drain` once; safe to call repeatedly (signals)."""
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(self.drain())
        return self._drain_task

    # ------------------------------------------------------------------
    # Connection bookkeeping (called by the wire handlers)
    # ------------------------------------------------------------------
    def track_connection(self, task: "asyncio.Task", writer) -> None:
        self._conn_tasks.add(task)
        self._writers.add(writer)
        task.add_done_callback(lambda t: self._conn_tasks.discard(t))

    def forget_writer(self, writer) -> None:
        self._writers.discard(writer)

    def request_started(self) -> None:
        self._active_requests += 1
        if self._idle_event is not None:
            self._idle_event.clear()

    def request_finished(self) -> None:
        self._active_requests -= 1
        if self._active_requests == 0 and self._idle_event is not None:
            self._idle_event.set()

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------
    async def handle_request(self, data: Any, lane: str) -> Response:
        """One job request, through the four gates; never raises."""
        if self._draining:
            self.obs.emit(
                ServiceResponseSent(
                    job=str(data.get("job", "?")) if isinstance(data, Mapping) else "?",
                    key="",
                    status="draining",
                    source="draining",
                )
            )
            return (
                _encode(error_envelope("draining", "service is draining; not accepting work")),
                503,
                {},
            )
        try:
            params = normalize_request(data)
        except RequestError as exc:
            self.obs.emit(
                ServiceResponseSent(
                    job=str(data.get("job", "?")) if isinstance(data, Mapping) else "?",
                    key="",
                    status=exc.code,
                    source="invalid",
                )
            )
            return _encode(error_envelope(exc.code, str(exc))), 400, {}
        key = request_key(params)
        job = params["job"]

        cached = self._response_get(key)
        if cached is not None:
            self._emit_request(job, key, lane)
            return self._ok(job, key, cached, "cache")

        inflight = self._inflight.get(key)
        if inflight is not None:
            self._emit_request(job, key, lane)
            try:
                body = await asyncio.shield(inflight)
            except Exception as exc:  # the leader's job failed; we share its fate
                return self._failed(job, key, exc)
            return self._ok(job, key, body, "coalesced")

        if self._pending >= self.config.max_pending:
            self.rejected += 1
            retry = RETRY_AFTER_S
            self.obs.emit(
                ServiceRejected(
                    job=job,
                    pending=self._pending,
                    max_pending=self.config.max_pending,
                    retry_after_s=retry,
                )
            )
            self.obs.emit(
                ServiceResponseSent(
                    job=job, key=key, status="overloaded", source="rejected"
                )
            )
            return (
                _encode(
                    error_envelope(
                        "overloaded",
                        f"{self._pending} jobs in flight (max {self.config.max_pending})",
                        retry_after_s=retry,
                    )
                ),
                429,
                {"Retry-After": f"{retry:g}"},
            )

        loop = asyncio.get_running_loop()
        future: "asyncio.Future[bytes]" = loop.create_future()
        self._inflight[key] = future
        self._pending += 1
        self._emit_request(job, key, lane)
        try:
            payload = await loop.run_in_executor(self._executor, self._job_fn, dict(params))
            # The one encode this key's ok envelope gets while it stays cached.
            body = _encode(ok_envelope(key, payload))
        except Exception as exc:
            future.set_exception(exc)
            # Coalesced waiters consume it; nobody else should warn.
            future.exception()
            return self._failed(job, key, exc)
        else:
            self._response_put(key, body)
            future.set_result(body)
            return self._ok(job, key, body, "computed")
        finally:
            self._pending -= 1
            self._inflight.pop(key, None)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _emit_request(self, job: str, key: str, lane: str) -> None:
        self.obs.emit(
            ServiceRequestReceived(job=job, key=key, lane=lane, pending=self._pending)
        )

    def _ok(self, job: str, key: str, body: bytes, source: str) -> Response:
        self.served += 1
        self.obs.emit(
            ServiceResponseSent(job=job, key=key, status="ok", source=source)
        )
        return body, 200, {}

    def _failed(self, job: str, key: str, exc: Exception) -> Response:
        """A job's error: a typed 400 for a :class:`RequestError`, else 500."""
        if isinstance(exc, RequestError):
            self.obs.emit(
                ServiceResponseSent(job=job, key=key, status=exc.code, source="invalid")
            )
            return _encode(error_envelope(exc.code, str(exc))), 400, {}
        self.obs.emit(
            ServiceResponseSent(job=job, key=key, status="internal", source="failed")
        )
        return (
            _encode(error_envelope("internal", f"{type(exc).__name__}: {exc}")),
            500,
            {},
        )

    def _response_get(self, key: str) -> Optional[bytes]:
        body = self._responses.get(key)
        if body is not None:
            self._responses.move_to_end(key)
        return body

    def _response_put(self, key: str, body: bytes) -> None:
        self._responses[key] = body
        self._responses.move_to_end(key)
        while len(self._responses) > RESPONSE_ENTRIES:
            self._responses.popitem(last=False)

    def stats_snapshot(self) -> Dict[str, Any]:
        """The ``GET /stats`` body: counters, cache accounting, metrics."""
        out: Dict[str, Any] = {
            "schema": PROTOCOL_SCHEMA,
            "draining": self._draining,
            "served": self.served,
            "rejected": self.rejected,
            "pending": self._pending,
            "inflight": len(self._inflight),
            "response_entries": len(self._responses),
            "max_pending": self.config.max_pending,
            "cache": {**self.cache.stats.as_dict(), "entries": len(self.cache)},
        }
        if self.obs.metrics is not None:
            out["metrics"] = self.obs.metrics.snapshot()
        return out
