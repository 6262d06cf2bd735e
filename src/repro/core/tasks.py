"""Task orchestration: run (oracle, algorithm) pairs on networks and verify.

This is the library's main entry point.  :func:`simulate_pair` assembles
every run the library makes, whatever the task:

    oracle looks at the network  ->  advice strings
    algorithm gets each node's quadruple  ->  schemes
    engine executes the schemes under a scheduler  ->  trace

Each task then checks the trace against its own success predicate.  The
paper's two tasks go through :func:`run_task` (or its faces
:func:`run_broadcast` and :func:`run_wakeup`), which returns a
:class:`TaskResult` carrying the two numbers the paper trades off —
**oracle size** and **message complexity** — plus everything needed to
audit the run.  Gossip, tree construction and election are checked in
:mod:`repro.core.gossip`, :mod:`repro.core.construction` and
:mod:`repro.core.election`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..network.graph import PortLabeledGraph
from ..obs.events import AdviceComputed, AuditFailed
from ..obs.observe import Observation, resolve_obs
from ..simulator.engine import Simulation
from ..simulator.schedulers import Scheduler
from ..simulator.trace import ExecutionTrace
from .oracle import AdviceMap, Oracle
from .scheme import Algorithm

__all__ = [
    "TASKS", "TaskResult", "default_message_limit", "simulate_pair",
    "run_task", "run_broadcast", "run_wakeup",
]

#: The dissemination tasks :func:`run_task` runs, each mapped to its paper
#: pair by name: the oracle (a key of :data:`repro.oracles.ORACLE_FACTORIES`)
#: and the algorithm (a key of :data:`repro.algorithms.ALGORITHM_REGISTRY`).
#: ``repro trace`` and the daemon's ``simulate`` job default to this pair.
TASKS: Dict[str, Tuple[str, str]] = {
    "broadcast": ("light-tree", "SchemeB"),
    "wakeup": ("spanning-tree", "TreeWakeup"),
}


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one task run.

    ``success`` means the task's predicate held: every node was informed and
    the run ended at quiescence (not at a safety limit).
    """

    task: str
    graph_nodes: int
    graph_edges: int
    oracle_name: str
    algorithm_name: str
    oracle_bits: int
    messages: int
    success: bool
    completed: bool
    informed: int
    rounds: int
    trace: ExecutionTrace

    @property
    def bits_per_node(self) -> float:
        return self.oracle_bits / self.graph_nodes

    @property
    def messages_per_node(self) -> float:
        return self.messages / self.graph_nodes

    def summary(self) -> str:
        """One-line human-readable account of the run."""
        status = "ok" if self.success else "FAILED"
        return (
            f"{self.task} on n={self.graph_nodes}, m={self.graph_edges}: "
            f"{self.oracle_name} ({self.oracle_bits} bits) + {self.algorithm_name} "
            f"-> {self.messages} messages, informed {self.informed}/{self.graph_nodes} [{status}]"
        )


def default_message_limit(graph: PortLabeledGraph) -> int:
    """A generous runaway guard: far above any linear-message scheme.

    Ten messages per edge plus ten per node leaves room for the quadratic
    baselines while still stopping diverging schemes.
    """
    return 10 * graph.num_edges + 10 * graph.num_nodes + 100


def simulate_pair(
    graph: PortLabeledGraph,
    oracle: Oracle,
    algorithm: Algorithm,
    scheduler: Optional[Scheduler] = None,
    anonymous: bool = False,
    wakeup: bool = False,
    no_source: bool = False,
    max_messages: Optional[int] = None,
    advice: Optional[AdviceMap] = None,
    obs: Optional[Observation] = None,
    trace_level: str = "full",
) -> Tuple[PortLabeledGraph, AdviceMap, ExecutionTrace]:
    """Run one (oracle, algorithm) pair; returns ``(graph, advice, trace)``.

    The graph is frozen (a copy, if it was not) and advised under the
    ``oracle`` span unless ``advice`` is given; the
    :class:`~repro.obs.events.AdviceComputed` event follows when ``obs`` is
    enabled.  Node ``v`` runs ``algorithm``'s scheme for its quadruple: its
    advice, its source bit (``v == graph.source``; 0 everywhere under
    ``no_source``), its identity (``None`` when ``anonymous``) and its
    degree.  The engine runs under the ``simulate`` span, synchronously and
    capped at :func:`default_message_limit` unless ``scheduler`` /
    ``max_messages`` say otherwise.  The returned graph and advice are the
    ones the run used, which is what each task's verification reads.
    """
    obs = resolve_obs(obs)
    if not graph.frozen:
        graph = graph.copy().freeze()
    if advice is None:
        with obs.span("oracle"):
            advice = oracle.advise(graph)
    if obs.enabled:
        bits_histogram: dict = {}
        for v in graph.nodes():
            bits = len(advice[v])
            bits_histogram[bits] = bits_histogram.get(bits, 0) + 1
        obs.emit(
            AdviceComputed(
                oracle=oracle.name,
                nodes=graph.num_nodes,
                total_bits=advice.total_bits(),
                bits_histogram=dict(sorted(bits_histogram.items())),
            )
        )
    schemes = {
        v: algorithm.scheme_for(
            advice[v],
            not no_source and v == graph.source,
            None if anonymous else v,
            graph.degree(v),
        )
        for v in graph.nodes()
    }
    if max_messages is None:
        max_messages = default_message_limit(graph)
    # The engine's default scheduler is a fresh synchronous one.
    sim = Simulation(
        graph,
        schemes,
        advice=advice,
        scheduler=scheduler,
        anonymous=anonymous,
        wakeup=wakeup,
        no_source=no_source,
        max_messages=max_messages,
        obs=obs,
        trace_level=trace_level,
    )
    with obs.span("simulate"):
        trace = sim.run()
    return graph, advice, trace


def run_task(
    task: str,
    graph: PortLabeledGraph,
    oracle: Oracle,
    algorithm: Algorithm,
    scheduler: Optional[Scheduler] = None,
    anonymous: bool = False,
    max_messages: Optional[int] = None,
    advice: Optional[AdviceMap] = None,
    audit: bool = False,
    obs: Optional[Observation] = None,
    trace_level: str = "full",
) -> TaskResult:
    """Run a broadcast or a wakeup, by name; the one dispatch between them.

    ``task`` is a key of :data:`TASKS`; any other name raises
    :class:`ValueError`.  The keyword arguments are those of
    :func:`run_broadcast`.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {tuple(TASKS)}")
    if audit and trace_level != "full":
        raise ValueError(
            "audit=True replays the delivery log and requires trace_level='full'"
        )
    obs = resolve_obs(obs)
    graph, advice, trace = simulate_pair(
        graph,
        oracle,
        algorithm,
        scheduler=scheduler,
        anonymous=anonymous,
        wakeup=task == "wakeup",
        max_messages=max_messages,
        advice=advice,
        obs=obs,
        trace_level=trace_level,
    )
    if audit:
        from .audit import AuditFailure, replay_audit

        if not trace.completed:
            raise AuditFailure(
                f"{task} run hit a safety limit before quiescence; the replay "
                "audit is only meaningful for complete runs"
            )
        with obs.span("audit"):
            report = replay_audit(graph, algorithm, advice, trace, anonymous=anonymous)
        if not report.faithful:
            if obs.enabled:
                obs.emit(
                    AuditFailed(
                        algorithm=algorithm.name, mismatches=len(report.mismatches)
                    )
                )
            preview = "; ".join(str(m) for m in report.mismatches[:3])
            raise AuditFailure(
                f"{algorithm.name} failed the replay audit "
                f"({len(report.mismatches)} mismatch(es)): {preview}",
                report,
            )
    informed = len(trace.informed_at)
    success = trace.completed and informed == graph.num_nodes
    return TaskResult(
        task=task,
        graph_nodes=graph.num_nodes,
        graph_edges=graph.num_edges,
        oracle_name=oracle.name,
        algorithm_name=algorithm.name,
        oracle_bits=advice.total_bits(),
        messages=trace.messages_sent,
        success=success,
        completed=trace.completed,
        informed=informed,
        rounds=trace.rounds,
        trace=trace,
    )


def run_broadcast(
    graph: PortLabeledGraph,
    oracle: Oracle,
    algorithm: Algorithm,
    scheduler: Optional[Scheduler] = None,
    anonymous: bool = False,
    max_messages: Optional[int] = None,
    advice: Optional[AdviceMap] = None,
    audit: bool = False,
    obs: Optional[Observation] = None,
    trace_level: str = "full",
) -> TaskResult:
    """Run a broadcast: nodes may transmit spontaneously.

    Pass ``advice`` to reuse a precomputed :class:`AdviceMap` (e.g. when
    sweeping schedulers over one network).  With ``audit=True`` the run is
    replay-audited after quiescence and :class:`repro.core.audit.AuditFailure`
    is raised on any mismatch — the dynamic model check composed into one
    call (the static half is ``python -m repro lint``).  ``obs`` threads an
    :class:`repro.obs.Observation` through the whole pipeline: phase spans
    (oracle/simulate/audit), the advice-size event, and the engine's
    send/delivery stream.  ``trace_level="counters"`` skips the per-delivery
    log (see :mod:`repro.simulator.trace`); it is incompatible with
    ``audit=True``, which replays that log.  ``REPRO_FASTPATH=0`` in the
    environment runs the reference loop instead of the fast path.
    """
    return run_task(
        "broadcast", graph, oracle, algorithm, scheduler, anonymous, max_messages,
        advice, audit, obs, trace_level,
    )


def run_wakeup(
    graph: PortLabeledGraph,
    oracle: Oracle,
    algorithm: Algorithm,
    scheduler: Optional[Scheduler] = None,
    anonymous: bool = False,
    max_messages: Optional[int] = None,
    advice: Optional[AdviceMap] = None,
    audit: bool = False,
    obs: Optional[Observation] = None,
    trace_level: str = "full",
) -> TaskResult:
    """Run a wakeup: the engine *enforces* that only awake nodes transmit.

    A non-source node sending on an empty history raises
    :class:`repro.simulator.WakeupViolation` — by definition such an
    algorithm is not a wakeup algorithm.  ``audit=True`` replay-audits the
    completed run and raises :class:`repro.core.audit.AuditFailure` on
    mismatch, as in :func:`run_broadcast`; ``obs`` threads telemetry as in
    :func:`run_broadcast`.
    """
    return run_task(
        "wakeup", graph, oracle, algorithm, scheduler, anonymous, max_messages,
        advice, audit, obs, trace_level,
    )
