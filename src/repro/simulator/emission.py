"""The trace/telemetry emission half of the engine, factored out.

Every execution loop in this repository must produce the *same*
:class:`~repro.simulator.trace.ExecutionTrace` writes and the same obs
event stream, in the same order, for the same semantic run.  The legacy
reference loop in :meth:`repro.simulator.Simulation._run_legacy` does all
of its bookkeeping through this class, so the loop itself is only
responsible for the *semantic step* (who receives what, who becomes
informed, which sends follow).

The split is exact — method boundaries fall precisely on the legacy
loop's statement order, so a loop built on :class:`TraceEmitter` is
byte-identical to the historical inline code by construction:

``delivery_started``
    per-delivery record (or counters histogram), the ``RoundStarted``
    boundary event, the rounds high-water mark, and the delivered count —
    everything the legacy loop wrote *before* touching the receiver.
``informed``
    the trace-side informed mark (the runtime-side mark is semantic state
    and stays with the caller).
``delivered``
    the ``MessageDelivered`` event, emitted *after* the informed relation
    is settled, exactly as the legacy loop orders it.
``sent``
    the send counter plus the ``MessageSent`` event.
``limit`` / ``run_started`` / ``run_ended``
    the boundary events, reading their numbers off the trace so no loop
    can emit counters that disagree with what it recorded.

The synchronous core of the fast path (:mod:`repro.fastpath.engine`)
emits its run boundaries (``run_started``, ``limit``, ``run_ended``)
through this class too, but intentionally keeps inlined copies of the
per-message bookkeeping — it exists to shave attribute lookups off the
hot loop — and is held to the same bytes by ``tests/test_fastpath.py``
and ``tests/test_differential.py``.
"""

from __future__ import annotations

from typing import Hashable

from ..obs.events import (
    LimitHit,
    MessageDelivered,
    MessageSent,
    RoundStarted,
    RunEnded,
    RunStarted,
)
from .trace import DeliveryRecord

__all__ = ["TraceEmitter"]


class TraceEmitter:
    """Owns every :class:`ExecutionTrace` write and obs event of one run."""

    __slots__ = ("trace", "obs", "enabled", "emit", "full")

    def __init__(self, sim) -> None:
        self.trace = sim._trace
        self.obs = sim._obs
        self.enabled = self.obs.enabled
        self.emit = self.obs.emit
        self.full = sim._trace_level == "full"

    # -- run boundaries -------------------------------------------------
    def run_started(self, sim) -> None:
        """``RunStarted`` plus the source's step-0 informed mark."""
        if self.enabled:
            self.emit(
                RunStarted(
                    task="wakeup" if sim._wakeup else "broadcast",
                    nodes=sim._graph.num_nodes,
                    edges=sim._graph.num_edges,
                    source=sim._graph.source,
                    scheduler=type(sim._scheduler).__name__,
                    anonymous=sim._anonymous,
                    wakeup=sim._wakeup,
                )
            )
        if not sim._no_source:
            self.trace.informed_at[sim._graph.source] = 0

    def run_ended(self, nodes: int) -> None:
        """``RunEnded``, reading every figure off the finished trace."""
        if self.enabled:
            trace = self.trace
            self.emit(
                RunEnded(
                    messages=trace.messages_sent,
                    delivered=trace.delivered,
                    rounds=trace.rounds,
                    informed=len(trace.informed_at),
                    nodes=nodes,
                    undelivered=len(trace.undelivered),
                    completed=trace.completed,
                    limit_hit=trace.message_limit_hit,
                )
            )

    # -- per-message ----------------------------------------------------
    def sent(
        self,
        seq: int,
        sender: Hashable,
        receiver: Hashable,
        send_port: int,
        arrival_port: int,
        payload,
        sender_informed: bool,
        deliver_at: int,
        cause: int,
    ) -> None:
        """Count one send and emit its ``MessageSent``."""
        self.trace.messages_sent += 1
        if self.enabled:
            self.emit(
                MessageSent(
                    seq=seq,
                    sender=sender,
                    receiver=receiver,
                    send_port=send_port,
                    arrival_port=arrival_port,
                    payload=payload,
                    sender_informed=sender_informed,
                    round=deliver_at,
                    cause=cause,
                )
            )

    def delivery_started(
        self,
        step: int,
        payload,
        sender: Hashable,
        receiver: Hashable,
        send_port: int,
        arrival_port: int,
        sender_informed: bool,
        round_no: int,
    ) -> None:
        """Everything the engine records *before* the receiver reacts."""
        trace = self.trace
        if self.full:
            trace.deliveries.append(
                DeliveryRecord(
                    step=step,
                    payload=payload,
                    sender=sender,
                    receiver=receiver,
                    send_port=send_port,
                    arrival_port=arrival_port,
                    sender_informed=sender_informed,
                    round=round_no,
                )
            )
        else:
            trace.round_counts[round_no] = trace.round_counts.get(round_no, 0) + 1
        if self.enabled and round_no > trace.rounds:
            self.emit(RoundStarted(round=round_no))
        if round_no > trace.rounds:
            trace.rounds = round_no
        trace.delivered += 1

    def informed(self, label: Hashable, step: int) -> None:
        """Trace-side mark for a node informed at ``step``."""
        self.trace.informed_at[label] = step

    def delivered(
        self,
        step: int,
        seq: int,
        sender: Hashable,
        receiver: Hashable,
        arrival_port: int,
        payload,
        round_no: int,
        newly_informed: bool,
    ) -> None:
        """The ``MessageDelivered`` event (after the informed relation settles)."""
        if self.enabled:
            self.emit(
                MessageDelivered(
                    step=step,
                    seq=seq,
                    sender=sender,
                    receiver=receiver,
                    arrival_port=arrival_port,
                    payload=payload,
                    round=round_no,
                    newly_informed=newly_informed,
                )
            )

    def limit(self, reason: str) -> bool:
        """Record a tripped safety limit; returns ``True`` for the caller's flag."""
        trace = self.trace
        trace.message_limit_hit = True
        if self.enabled:
            self.emit(
                LimitHit(
                    reason=reason,
                    messages_sent=trace.messages_sent,
                    step=trace.delivered,
                )
            )
        return True
