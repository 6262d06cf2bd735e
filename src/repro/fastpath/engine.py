"""The compiled synchronous execution loop.

:meth:`repro.simulator.Simulation.run` calls :func:`run_fastpath` for a
run with a fresh :class:`~repro.simulator.schedulers.SynchronousScheduler`
unless ``REPRO_FASTPATH=0``; every other scheduler — and a pre-seeded
one — runs the reference loop, :meth:`Simulation._run_legacy`.
:func:`run_fastpath` compiles the topology and runs :func:`_run_sync`,
the scheduler-free synchronous core.

:func:`_run_sync` keeps messages as plain tuples ``(repr(receiver),
arrival_port, seq, receiver_idx, payload, sender_label, send_port,
sender_informed)`` binned by round; sorting a round's list once
reproduces exactly the order the legacy heap (key ``(deliver_at,
repr(receiver), arrival_port, seq)``) would deliver in, because ``seq``
is globally unique.  No ``InFlightMessage`` is allocated for a delivered
message — only messages left in flight when the run stops are
materialized, so the trace's ``undelivered`` list is byte-identical to
the legacy one.

The loop honors ``trace_level``: at ``"full"`` it maintains the delivery
log exactly as the legacy loop does (the byte-identity contract; a node's
history is :meth:`~repro.simulator.trace.ExecutionTrace.history_of`); at
``"counters"`` it skips the per-delivery
:class:`~repro.simulator.trace.DeliveryRecord` and maintains the
per-round histogram instead.  The obs event stream is identical at every
trace level — observability is a separate axis from trace retention.
The per-message events are emitted inline, to keep attribute lookups off
the hot loop; the run-boundary events (RunStarted, LimitHit, RunEnded)
go through the shared :class:`~repro.simulator.emission.TraceEmitter`.

This module is a *friend* of :class:`~repro.simulator.engine.Simulation`:
it reads the simulation's private configuration and writes its trace.
Behavioral changes must be made in lockstep with
``Simulation._run_legacy`` — the equivalence suite will catch you if
they drift.
"""

from __future__ import annotations

from typing import List, Tuple

from ..obs.events import MessageDelivered, MessageSent, RoundStarted
from ..simulator.emission import TraceEmitter
from ..simulator.messages import InFlightMessage
from ..simulator.node import WakeupViolation
from ..simulator.trace import DeliveryRecord
from .topology import compiled_topology

__all__ = ["run_fastpath"]


def run_fastpath(sim) -> "ExecutionTrace":  # noqa: F821 - forward ref in doc only
    """Execute a prepared :class:`~repro.simulator.Simulation` to quiescence.

    Only valid for a simulation with a fresh :class:`SynchronousScheduler`
    — the check :meth:`Simulation.run` makes before calling it.
    """
    with sim._obs.wallspan("compile"):
        topo = compiled_topology(sim._graph)
    with sim._obs.wallspan("engine"):
        return _run_sync(sim, topo)


def _run_sync(sim, topo):
    trace = sim._trace
    emitter = TraceEmitter(sim)
    enabled = emitter.enabled
    emit = emitter.emit
    full = emitter.full
    wakeup = sim._wakeup
    max_messages = sim._max_messages
    max_steps = sim._max_steps
    stop_when_informed = sim._stop_when_informed

    labels = topo.labels
    reprs = topo.reprs
    offsets = topo.offsets
    neighbor_at = topo.neighbor_at
    arrival_at = topo.arrival_at
    n = len(labels)
    runtimes = [sim._runtimes[label] for label in labels]
    contexts = [rt.context for rt in runtimes]
    processes = [rt.process for rt in runtimes]

    informed_at = trace.informed_at
    deliveries_append = trace.deliveries.append
    round_counts = trace.round_counts

    emitter.run_started(sim)

    seq = 0
    messages_sent = 0
    delivered = 0
    step = 0
    limit_hit = trace.message_limit_hit

    def enqueue(i: int, sends, deliver_at: int, out: List[Tuple], cause: int) -> None:
        """Turn one drain's send requests into round-``deliver_at`` tuples.

        Mirrors ``Simulation._enqueue`` exactly: the message limit is
        checked *before* each send, tripping it drops the rest of this
        drain and emits one LimitHit.  ``cause`` is the seq of the
        delivery that triggered the drain (0 for init sends).  The
        emitter reads its LimitHit figures off the trace, so the local
        counters are written there first.
        """
        nonlocal seq, messages_sent, limit_hit
        rt = runtimes[i]
        base = offsets[i]
        sender_label = labels[i]
        informed_flag = rt.informed
        for request in sends:
            if max_messages is not None and messages_sent >= max_messages:
                trace.messages_sent = messages_sent
                trace.delivered = delivered
                limit_hit = emitter.limit("message limit reached")
                return
            port = request.port
            j = neighbor_at[base + port]
            aport = arrival_at[base + port]
            seq += 1
            messages_sent += 1
            rt.sent_count += 1
            out.append(
                (
                    reprs[j],
                    aport,
                    seq,
                    j,
                    request.payload,
                    sender_label,
                    port,
                    informed_flag,
                )
            )
            if enabled:
                emit(
                    MessageSent(
                        seq=seq,
                        sender=sender_label,
                        receiver=labels[j],
                        send_port=port,
                        arrival_port=aport,
                        payload=request.payload,
                        sender_informed=informed_flag,
                        round=deliver_at,
                        cause=cause,
                    )
                )

    # ------------------------------------------------------------------
    # Init phase: every process sees the empty history (graph node order).
    # ------------------------------------------------------------------
    pending: List[Tuple] = []
    for i in range(n):
        ctx = contexts[i]
        processes[i].on_init(ctx)
        sends = ctx._outbox
        if sends:
            ctx._outbox = []
            if wakeup and not ctx.is_source:
                raise WakeupViolation(
                    f"node {labels[i]!r} transmitted on an empty history "
                    "during a wakeup"
                )
            enqueue(i, sends, 1, pending, 0)

    # ------------------------------------------------------------------
    # Round loop.
    # ------------------------------------------------------------------
    round_no = 1
    rounds_seen = trace.rounds
    leftover: List[Tuple] = []
    leftover_next: List[Tuple] = []
    stopped = False
    while pending:
        pending.sort()
        if limit_hit or stopped:
            leftover = pending
            break
        nxt: List[Tuple] = []
        count = len(pending)
        idx = 0
        broke = False
        while idx < count:
            if max_steps is not None and step >= max_steps:
                trace.messages_sent = messages_sent
                trace.delivered = delivered
                limit_hit = emitter.limit("step limit reached")
                broke = True
                break
            rrepr, aport, mseq, j, payload, sender_label, sport, s_informed = pending[
                idx
            ]
            idx += 1
            step += 1
            if full:
                deliveries_append(
                    DeliveryRecord(
                        step,
                        payload,
                        sender_label,
                        labels[j],
                        sport,
                        aport,
                        s_informed,
                        round_no,
                    )
                )
            else:
                round_counts[round_no] = round_counts.get(round_no, 0) + 1
            if round_no > rounds_seen:
                if enabled:
                    emit(RoundStarted(round=round_no))
                rounds_seen = round_no
            rt = runtimes[j]
            delivered += 1
            rt.received_count += 1
            newly_informed = s_informed and not rt.informed
            if newly_informed:
                rt.informed = True
                rt.informed_at = step
                informed_at[labels[j]] = step
            if enabled:
                emit(
                    MessageDelivered(
                        step=step,
                        seq=mseq,
                        sender=sender_label,
                        receiver=labels[j],
                        arrival_port=aport,
                        payload=payload,
                        round=round_no,
                        newly_informed=newly_informed,
                    )
                )
            ctx = contexts[j]
            processes[j].on_receive(ctx, payload, aport)
            sends = ctx._outbox
            if sends:
                ctx._outbox = []
                enqueue(j, sends, round_no + 1, nxt, mseq)
            if stop_when_informed and len(informed_at) == n:
                stopped = True
                broke = True
                break
            if limit_hit:
                broke = True
                break
        if broke:
            leftover = pending[idx:]
            leftover_next = nxt
            break
        pending = nxt
        round_no += 1

    # ------------------------------------------------------------------
    # Wind-down: counters, undelivered (heap drain order), outputs.
    # ------------------------------------------------------------------
    trace.messages_sent = messages_sent
    trace.delivered = delivered
    trace.rounds = rounds_seen
    trace.message_limit_hit = limit_hit
    trace.completed = not leftover and not leftover_next and not limit_hit
    sim._seq = seq
    if leftover or leftover_next:
        leftover_next.sort()
        undelivered = trace.undelivered
        for deliver_at, batch in ((round_no, leftover), (round_no + 1, leftover_next)):
            for t in batch:
                undelivered.append(
                    InFlightMessage(
                        payload=t[4],
                        sender=t[5],
                        receiver=labels[t[3]],
                        send_port=t[6],
                        arrival_port=t[1],
                        sender_informed=t[7],
                        seq=t[2],
                        deliver_at=deliver_at,
                    )
                )
    outputs = trace.outputs
    for i in range(n):
        ctx = contexts[i]
        if ctx._has_output:
            outputs[labels[i]] = ctx._output
    emitter.run_ended(n)
    return trace
