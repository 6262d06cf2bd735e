"""The blocking daemon entry point behind ``repro serve``.

:func:`serve` owns process-level concerns the library service object
stays out of: the event loop, POSIX signals, the ready line, and the
access-log file.  SIGTERM/SIGINT trigger a graceful drain — in-flight
requests finish and are answered, new ones are refused with ``draining``
— and the process exits 0 once the drain completes, which is the contract
process supervisors (and the CI smoke job) rely on.

The ready line is machine-parseable on purpose::

    repro-serve ready http=127.0.0.1:43117 ipc=/tmp/repro.sock

Supervisors and test harnesses wait for it instead of polling the port.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from typing import Optional

from ..obs.metrics import MetricsRegistry
from ..obs.observe import Observation
from ..obs.sinks import JSONLSink
from .core import AdviceService, ServiceConfig

__all__ = ["serve", "ready_line"]


def ready_line(service: AdviceService) -> str:
    """The one-line readiness announcement for the bound listeners."""
    host, port = service.http_address
    return f"repro-serve ready http={host}:{port} ipc={service.ipc_path or '-'}"


async def _serve_async(config: ServiceConfig, obs: Observation) -> None:
    service = AdviceService(config, obs=obs)
    await service.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, service.request_drain)
    print(ready_line(service), flush=True)
    await service.stopped.wait()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.remove_signal_handler(signum)
    print(
        f"repro-serve drained served={service.served} "
        f"rejected={service.rejected}",
        flush=True,
        file=sys.stderr,
    )


def serve(config: ServiceConfig, access_log: Optional[str] = None) -> int:
    """Run the daemon until a drain completes; returns the exit code.

    ``access_log`` names a JSONL file receiving the ``service_*`` event
    stream (readable by ``repro stats``); metrics are registered alongside
    it so ``GET /stats`` reports the folded counters either way.
    """
    sink = JSONLSink(access_log) if access_log else None
    obs = Observation(sink, metrics=MetricsRegistry())
    asyncio.run(_serve_async(config, obs))
    return 0
