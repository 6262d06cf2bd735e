"""The message-passing simulation engine.

The engine executes one communication task on one network:

1. every node's process is initialized (the scheme evaluated on the empty
   history — where broadcast schemes may transmit spontaneously and wakeup
   schemes, enforced via ``wakeup=True``, may not);
2. while messages are in flight, the scheduler picks which one arrives next;
   the receiving node's process runs and may queue further sends;
3. the run ends at quiescence (no messages in flight — every sent message is
   eventually delivered, exactly once, unmodified) or when the message
   limit trips.

The engine maintains the *informed* relation exactly as the paper defines
it: the source starts informed, and a node becomes informed by receiving any
message whose sender was informed at send time (the source message can ride
along on any such message).  It also counts every send — the message
complexity that all four theorems are about.

Execution paths
---------------
:meth:`Simulation.run` picks one of two loops from what it observes:

* a fresh :class:`~repro.simulator.schedulers.SynchronousScheduler` runs
  :func:`repro.fastpath.engine.run_fastpath`, the scheduler-free
  synchronous core over the graph's flat-array
  :class:`~repro.fastpath.topology.CompiledTopology`;
* every other scheduler — and a pre-seeded synchronous one — runs the
  dict-walking reference loop (:meth:`Simulation._run_legacy`), kept
  runnable forever as the executable specification.

``REPRO_FASTPATH=0`` in the environment is the one switch that sends
every run to the reference loop.  Both loops are byte-identical at
``trace_level="full"`` — same trace, same obs events — and counter-exact
at ``trace_level="counters"``, a contract enforced by
``tests/test_fastpath.py`` and ``tests/test_differential.py``.  Each
loop writes its trace and emits its per-message events inline; both take
their run-boundary events from :meth:`Simulation._run_started`,
:meth:`Simulation._limit` and :meth:`Simulation._run_ended`.
"""

from __future__ import annotations

import os
from typing import Dict, Hashable, Mapping, Optional

from ..encoding import BitString
from ..network.graph import PortLabeledGraph
from ..obs.events import (
    LimitHit,
    MessageDelivered,
    MessageSent,
    RoundStarted,
    RunEnded,
    RunStarted,
)
from ..obs.observe import Observation, resolve_obs
from .messages import InFlightMessage
from .node import NodeContext, NodeRuntime, Process, WakeupViolation
from .schedulers import Scheduler, SynchronousScheduler
from .trace import TRACE_LEVELS, DeliveryRecord, ExecutionTrace

__all__ = ["Simulation"]


class Simulation:
    """One run of per-node processes over a port-labeled network.

    Parameters
    ----------
    graph:
        The network (frozen or freezable; must validate).
    processes:
        One :class:`Process` per node label.
    advice:
        Oracle output ``f``: a :class:`BitString` per node; missing nodes get
        the empty string (the oracle "gives them no information").
    scheduler:
        Delivery discipline; defaults to a fresh synchronous scheduler.
    anonymous:
        When true, processes see ``node_id=None`` — the regime in which the
        paper's upper bounds still hold.
    wakeup:
        Enforce the wakeup constraint: a non-source process that sends from
        ``on_init`` raises :class:`WakeupViolation`.
    max_messages:
        Safety limit on sends.  Tripping it truncates the run and sets
        ``message_limit_hit`` on the trace — lower-bound drivers *want* to
        observe blowups, so the limit never raises.
    no_source:
        Treat every node as a non-source (status bit 0) regardless of the
        graph's designated source, and start with no informed node.  Used by
        the Theorem 3.2 machinery, which watches how a scheme behaves inside
        a clique that no message has entered yet.
    obs:
        An :class:`repro.obs.Observation` receiving the structured event
        stream (run boundaries, rounds, sends, deliveries, limit hits).
        Defaults to the disabled null observation, whose cost in the inner
        loop is a single attribute check.
    trace_level:
        ``"full"`` (default) records a :class:`DeliveryRecord` per delivered
        message, from which :meth:`ExecutionTrace.history_of` rebuilds any
        node's history; ``"counters"`` keeps only the aggregate counters
        (messages, delivered, rounds, informed-at, per-round histogram) —
        all that the lower-bound drivers and sweep cells actually read —
        and skips the per-delivery allocations.  The obs event stream is
        identical at both levels.
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        processes: Mapping[Hashable, Process],
        advice: Optional[Mapping[Hashable, BitString]] = None,
        scheduler: Optional[Scheduler] = None,
        anonymous: bool = False,
        wakeup: bool = False,
        max_messages: Optional[int] = None,
        no_source: bool = False,
        obs: Optional[Observation] = None,
        trace_level: str = "full",
    ) -> None:
        if not graph.frozen:
            graph = graph.copy().freeze()
        if trace_level not in TRACE_LEVELS:
            raise ValueError(
                f"unknown trace_level {trace_level!r}; expected one of {TRACE_LEVELS}"
            )
        self._graph = graph
        self._scheduler = scheduler if scheduler is not None else SynchronousScheduler()
        self._obs = resolve_obs(obs)
        self._wakeup = wakeup
        self._max_messages = max_messages
        self._trace_level = trace_level
        advice = advice or {}
        missing = set(processes) ^ set(graph.nodes())
        if missing:
            raise ValueError(f"processes must cover exactly the node set; mismatch on {missing}")
        self._no_source = no_source
        self._anonymous = anonymous
        self._runtimes: Dict[Hashable, NodeRuntime] = {}
        for v in graph.nodes():
            is_source = (v == graph.source) and not no_source
            ctx = NodeContext(
                advice=advice.get(v, BitString.empty()),
                is_source=is_source,
                node_id=None if anonymous else v,
                degree=graph.degree(v),
            )
            self._runtimes[v] = NodeRuntime(
                label=v,
                context=ctx,
                process=processes[v],
                informed=is_source,
            )
        self._seq = 0
        self._trace = ExecutionTrace(trace_level=trace_level)
        self._ran = False

    # ------------------------------------------------------------------
    def run(self) -> ExecutionTrace:
        """Execute to quiescence (or the message limit) and return the trace.

        A fresh synchronous scheduler runs the compiled synchronous core;
        every other scheduler, and every run under ``REPRO_FASTPATH=0``,
        runs the reference loop.  Both produce byte-identical traces and
        events at ``trace_level="full"``.
        """
        if self._ran:
            raise RuntimeError("a Simulation object runs once; build a new one")
        self._ran = True
        scheduler = self._scheduler
        if (
            type(scheduler) is SynchronousScheduler
            and scheduler.empty()
            and os.environ.get("REPRO_FASTPATH", "1") != "0"
        ):
            from ..fastpath.engine import run_fastpath

            return run_fastpath(self)
        return self._run_legacy()

    def _run_legacy(self) -> ExecutionTrace:
        """The reference implementation: scheduler-driven, dict lookups.

        Kept runnable forever (``REPRO_FASTPATH=0``) as the executable
        specification the synchronous core is tested against, and the loop
        every non-synchronous or pre-seeded scheduler runs.
        """
        trace = self._trace
        scheduler = self._scheduler
        obs = self._obs
        full = self._trace_level == "full"
        self._run_started()

        # Init order is the graph's deterministic node order (insertion
        # order), the same order the runtimes dict was built in.  A
        # repr-sort here would interleave mixed label types and couple
        # execution order to repr formatting.
        for v, runtime in self._runtimes.items():
            runtime.process.on_init(runtime.context)
            sends = runtime.context.drain()
            if sends and self._wakeup and not runtime.context.is_source:
                raise WakeupViolation(
                    f"node {v!r} transmitted on an empty history during a wakeup"
                )
            self._enqueue(runtime, sends, deliver_at=1, cause=0)

        step = 0
        limit_hit = trace.message_limit_hit
        while not limit_hit and not scheduler.empty():
            msg = scheduler.pop()
            step += 1
            round_no = msg.deliver_at
            if full:
                trace.deliveries.append(
                    DeliveryRecord(
                        step, msg.payload, msg.sender, msg.receiver, msg.send_port,
                        msg.arrival_port, msg.sender_informed, round_no,
                    )
                )
            else:
                trace.round_counts[round_no] = trace.round_counts.get(round_no, 0) + 1
            if round_no > trace.rounds:
                if obs.enabled:
                    obs.emit(RoundStarted(round=round_no))
                trace.rounds = round_no
            trace.delivered += 1
            receiver = self._runtimes[msg.receiver]
            newly_informed = msg.sender_informed and not receiver.informed
            if newly_informed:
                receiver.informed = True
                trace.informed_at[msg.receiver] = step
            if obs.enabled:
                obs.emit(
                    MessageDelivered(
                        step=step,
                        seq=msg.seq,
                        sender=msg.sender,
                        receiver=msg.receiver,
                        arrival_port=msg.arrival_port,
                        payload=msg.payload,
                        round=round_no,
                        newly_informed=newly_informed,
                    )
                )
            receiver.process.on_receive(receiver.context, msg.payload, msg.arrival_port)
            limit_hit = self._enqueue(
                receiver, receiver.context.drain(), deliver_at=round_no + 1,
                cause=msg.seq,
            )
        trace.completed = not limit_hit
        while not scheduler.empty():
            trace.undelivered.append(scheduler.pop())
        self._run_ended()
        return trace

    def _enqueue(self, runtime: NodeRuntime, sends, deliver_at: int, cause: int) -> bool:
        """Turn send requests into in-flight messages; returns limit flag.

        ``cause`` is the seq of the delivery that triggered these sends
        (0 for the spontaneous init phase) — the happened-before edge the
        causal tracer consumes.
        """
        graph = self._graph
        trace = self._trace
        obs = self._obs
        for request in sends:
            if self._max_messages is not None and trace.messages_sent >= self._max_messages:
                return self._limit()
            neighbor = graph.neighbor_via(runtime.label, request.port)
            self._seq += 1
            msg = InFlightMessage(
                payload=request.payload,
                sender=runtime.label,
                receiver=neighbor,
                send_port=request.port,
                arrival_port=graph.port(neighbor, runtime.label),
                sender_informed=runtime.informed,
                seq=self._seq,
                deliver_at=deliver_at,
            )
            self._scheduler.push(msg)
            trace.messages_sent += 1
            if obs.enabled:
                obs.emit(
                    MessageSent(
                        seq=msg.seq,
                        sender=msg.sender,
                        receiver=msg.receiver,
                        send_port=msg.send_port,
                        arrival_port=msg.arrival_port,
                        payload=msg.payload,
                        sender_informed=msg.sender_informed,
                        round=deliver_at,
                        cause=cause,
                    )
                )
        return False

    # -- run boundaries, shared with the synchronous core ----------------
    def _run_started(self) -> None:
        """``RunStarted`` plus the source's step-0 informed mark."""
        graph = self._graph
        if self._obs.enabled:
            self._obs.emit(
                RunStarted(
                    task="wakeup" if self._wakeup else "broadcast",
                    nodes=graph.num_nodes,
                    edges=graph.num_edges,
                    source=graph.source,
                    scheduler=type(self._scheduler).__name__,
                    anonymous=self._anonymous,
                    wakeup=self._wakeup,
                )
            )
        if not self._no_source:
            self._trace.informed_at[graph.source] = 0

    def _limit(self) -> bool:
        """Record the tripped message limit; returns ``True`` for the caller's flag.

        ``LimitHit`` reads its figures off the trace, so a loop that keeps
        its counters in locals writes them there first.
        """
        trace = self._trace
        trace.message_limit_hit = True
        if self._obs.enabled:
            self._obs.emit(
                LimitHit(
                    reason="message limit reached",
                    messages_sent=trace.messages_sent,
                    step=trace.delivered,
                )
            )
        return True

    def _run_ended(self) -> None:
        """Each node's output onto the trace, then ``RunEnded`` read off it."""
        trace = self._trace
        for v, runtime in self._runtimes.items():
            if runtime.context.has_output:
                trace.outputs[v] = runtime.context.output_value
        if self._obs.enabled:
            self._obs.emit(
                RunEnded(
                    messages=trace.messages_sent,
                    delivered=trace.delivered,
                    rounds=trace.rounds,
                    informed=len(trace.informed_at),
                    nodes=self._graph.num_nodes,
                    undelivered=len(trace.undelivered),
                    completed=trace.completed,
                    limit_hit=trace.message_limit_hit,
                )
            )

    # ------------------------------------------------------------------
    @property
    def runtimes(self) -> Mapping[Hashable, NodeRuntime]:
        """Per-node runtime state (read-only view for tests and drivers)."""
        return self._runtimes
