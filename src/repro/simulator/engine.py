"""The message-passing simulation engine.

The engine executes one communication task on one network:

1. every node's process is initialized (the scheme evaluated on the empty
   history — where broadcast schemes may transmit spontaneously and wakeup
   schemes, enforced via ``wakeup=True``, may not);
2. while messages are in flight, the scheduler picks which one arrives next;
   the receiving node's process runs and may queue further sends;
3. the run ends at quiescence (no messages in flight — every sent message is
   eventually delivered, exactly once, unmodified) or when a safety limit
   trips.

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
``tests/test_fastpath.py`` and ``tests/test_differential.py``.  The
trace/event bookkeeping of the legacy loop, and the run-boundary events
of the synchronous core, live in
:class:`repro.simulator.emission.TraceEmitter`.
"""

from __future__ import annotations

import os
from typing import Dict, Hashable, Mapping, Optional

from ..encoding import BitString
from ..network.graph import PortLabeledGraph
from ..obs.observe import Observation, resolve_obs
from .emission import TraceEmitter
from .messages import InFlightMessage
from .node import NodeContext, NodeRuntime, Process, WakeupViolation
from .schedulers import Scheduler, SynchronousScheduler
from .trace import TRACE_LEVELS, ExecutionTrace

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
    max_messages / max_steps:
        Safety limits.  Tripping one truncates the run and sets
        ``message_limit_hit`` on the trace — lower-bound drivers *want* to
        observe blowups, so limits never raise.
    stop_when_informed:
        End the run as soon as every node is informed (useful to measure
        "messages until completion" rather than total scheme output).
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
        max_steps: Optional[int] = None,
        stop_when_informed: bool = False,
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
        self._max_steps = max_steps
        self._stop_when_informed = stop_when_informed
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
        self._emitter: Optional[TraceEmitter] = None
        self._ran = False

    # ------------------------------------------------------------------
    def run(self) -> ExecutionTrace:
        """Execute to quiescence (or a limit) and return the trace.

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
        emitter = self._emitter = TraceEmitter(self)
        emitter.run_started(self)

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
        while not self._scheduler.empty():
            if limit_hit:
                break
            if self._max_steps is not None and step >= self._max_steps:
                limit_hit = emitter.limit("step limit reached")
                break
            msg = self._scheduler.pop()
            step += 1
            receiver = self._runtimes[msg.receiver]
            emitter.delivery_started(
                step, msg.payload, msg.sender, msg.receiver,
                msg.send_port, msg.arrival_port, msg.sender_informed, msg.deliver_at,
            )
            receiver.received_count += 1
            newly_informed = msg.sender_informed and not receiver.informed
            if newly_informed:
                receiver.informed = True
                receiver.informed_at = step
                emitter.informed(msg.receiver, step)
            emitter.delivered(
                step, msg.seq, msg.sender, msg.receiver,
                msg.arrival_port, msg.payload, msg.deliver_at, newly_informed,
            )
            receiver.process.on_receive(receiver.context, msg.payload, msg.arrival_port)
            limit_hit = self._enqueue(
                receiver, receiver.context.drain(), deliver_at=msg.deliver_at + 1,
                cause=msg.seq,
            )
            if self._stop_when_informed and len(trace.informed_at) == self._graph.num_nodes:
                break
        trace.message_limit_hit = limit_hit
        trace.completed = self._scheduler.empty() and not limit_hit
        while not self._scheduler.empty():
            trace.undelivered.append(self._scheduler.pop())
        for v, runtime in self._runtimes.items():
            if runtime.context.has_output:
                trace.outputs[v] = runtime.context.output_value
        emitter.run_ended(self._graph.num_nodes)
        return trace

    # ------------------------------------------------------------------
    def _enqueue(
        self, runtime: NodeRuntime, sends, deliver_at: int, cause: int = 0
    ) -> bool:
        """Turn send requests into in-flight messages; returns limit flag.

        ``cause`` is the seq of the delivery that triggered these sends
        (0 for the spontaneous init phase) — the happened-before edge the
        causal tracer consumes.
        """
        graph = self._graph
        emitter = self._emitter
        for request in sends:
            if (
                self._max_messages is not None
                and self._trace.messages_sent >= self._max_messages
            ):
                return emitter.limit("message limit reached")
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
            runtime.sent_count += 1
            self._scheduler.push(msg)
            emitter.sent(
                msg.seq, msg.sender, msg.receiver, msg.send_port, msg.arrival_port,
                msg.payload, msg.sender_informed, deliver_at, cause,
            )
        return False

    # ------------------------------------------------------------------
    @property
    def runtimes(self) -> Mapping[Hashable, NodeRuntime]:
        """Per-node runtime state (read-only view for tests and drivers)."""
        return self._runtimes
