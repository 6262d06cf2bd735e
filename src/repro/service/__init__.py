"""The oracle-advice serving daemon: warm constructions behind a socket.

The paper's measurements rebuild the same family members and advice maps
constantly; this package turns that redundancy into a *service*: a
long-running asyncio daemon (``repro serve``) that answers
advice-construction and simulation jobs from an in-memory
content-addressed :class:`~repro.parallel.cache.ConstructionCache`,
byte-identically to the direct library calls.

Layers, bottom-up:

* :mod:`~repro.service.protocol` — request validation, canonical JSON,
  content-addressed request keys, response envelopes;
* :mod:`~repro.service.jobs` — the job bodies (the single code path
  shared by the daemon's job thread and "direct" library use);
* :mod:`~repro.service.core` — :class:`AdviceService`: response LRU,
  single-flight coalescing, bounded admission with 429-style
  backpressure, graceful drain;
* :mod:`~repro.service.server` — the HTTP/1.1 lane and the Unix-socket
  IPC lane (stdlib asyncio only);
* :mod:`~repro.service.client` — blocking clients for both lanes;
* :mod:`~repro.service.harness` — the daemon on a background thread, for
  tests and the load generator;
* :mod:`~repro.service.daemon` — the blocking process entry point with
  signal-driven drain.

The serving contract and the load-test methodology are documented in
``docs/SERVICE.md``; ``benchmarks/bench_service.py`` measures the warm/
cold latency split recorded in ``BENCH_service.json``.
"""

from .client import HttpServiceClient, IpcServiceClient, ServiceError
from .core import AdviceService, ServiceConfig
from .daemon import ready_line, serve
from .harness import ServiceThread
from .jobs import advice_payload, build_graph, execute_job, simulate_payload
from .protocol import (
    JOB_KINDS,
    MAX_NODES,
    PROTOCOL_SCHEMA,
    RequestError,
    canonical_json,
    error_envelope,
    normalize_request,
    ok_envelope,
    request_key,
)

__all__ = [
    # protocol
    "PROTOCOL_SCHEMA",
    "JOB_KINDS",
    "MAX_NODES",
    "RequestError",
    "canonical_json",
    "normalize_request",
    "request_key",
    "ok_envelope",
    "error_envelope",
    # jobs
    "build_graph",
    "advice_payload",
    "simulate_payload",
    "execute_job",
    # core
    "ServiceConfig",
    "AdviceService",
    # clients & harness & daemon
    "ServiceError",
    "HttpServiceClient",
    "IpcServiceClient",
    "ServiceThread",
    "serve",
    "ready_line",
]
