"""Dispatch target for ``Simulation.run(engine="vectorized")``.

The numpy core (:func:`repro.vectorized.core.run_batch`) runs when
nothing is observable per delivery: a fresh synchronous scheduler,
counters trace level, obs disabled and no ``stop_when_informed``.  Whole
rounds then drain as array ops and :func:`apply_counters` writes the
aggregate results back into the trace and runtimes.  The core never
calls ``on_init``/``on_receive``; the compiler's job
(:mod:`repro.vectorized.program`) is to certify that those callbacks are
fully captured by the program tables.

Every other run goes to the fast path
(:func:`repro.fastpath.engine.run_fastpath`): a full trace, an obs event
stream, ``stop_when_informed``, a non-synchronous or pre-seeded
scheduler, a scheme the compiler declines, and a
:class:`VectorLimitAbort` (a safety limit would truncate the run — the
fast path reproduces the truncation byte-exactly).  The applicability
check runs before any program is compiled, so those runs pay nothing
for this lane.  ``tests/test_differential.py`` holds both routes to the
legacy loop's bytes.
"""

from __future__ import annotations

import numpy as np

from ..fastpath.engine import run_fastpath
from ..fastpath.topology import compiled_topology
from ..simulator.schedulers import SynchronousScheduler
from .core import ReplicaProgram, VectorLimitAbort, run_batch
from .program import VectorProgram, VectorTopology, compile_program

__all__ = ["run_vectorized"]


def run_vectorized(sim) -> "ExecutionTrace":  # noqa: F821 - forward ref in doc only
    """Execute a prepared Simulation; byte-identical to the legacy loop."""
    scheduler = sim._scheduler
    if not (
        type(scheduler) is SynchronousScheduler
        and scheduler.empty()
        and sim._trace_level == "counters"
        and not sim._obs.enabled
        and not sim._stop_when_informed
    ):
        return run_fastpath(sim)
    with sim._obs.wallspan("compile"):
        topo = compiled_topology(sim._graph)
        vt = VectorTopology(topo)
        program = compile_program(sim, vt)
    if program is None:
        return run_fastpath(sim)
    with sim._obs.wallspan("engine"):
        try:
            counters = run_batch([build_replica(sim, vt, program)])[0]
        except VectorLimitAbort:
            pass
        else:
            apply_counters(sim, vt, counters)
            return sim._trace
    return run_fastpath(sim)


def build_replica(sim, vt: VectorTopology, program: VectorProgram) -> ReplicaProgram:
    """Package one prepared Simulation for :func:`run_batch`."""
    runtimes = [sim._runtimes[label] for label in vt.labels]
    init_informed = np.fromiter(
        (rt.informed for rt in runtimes), dtype=bool, count=len(runtimes)
    )
    kwargs = dict(
        num_nodes=vt.num_nodes,
        kind=program.kind,
        rank=vt.rank,
        init_active=program.init_active,
        init_informed=init_informed,
        max_messages=sim._max_messages,
        max_steps=sim._max_steps,
    )
    if program.kind == "flood":
        kwargs.update(
            degrees=vt.degrees,
            offsets=vt.offsets,
            neighbor_at=vt.neighbor_at,
            arrival_at=vt.arrival_at,
        )
    else:
        kwargs.update(
            send_counts=np.diff(program.send_offsets),
            send_dest=program.send_dest,
            send_aport=program.send_aport,
        )
    return ReplicaProgram(**kwargs)


def apply_counters(sim, vt: VectorTopology, rc) -> None:
    """Write one replica's counters back as the trace/runtimes would read.

    Counter-exact with a legacy counters-level run: same aggregate
    counters, same ``informed_at`` content (source at step 0, then nodes
    in informing-step order — the legacy insertion order), same per-node
    runtime counters.  Only valid for completed runs (the core aborts
    rather than truncate).
    """
    trace = sim._trace
    if not sim._no_source:
        trace.informed_at[sim._graph.source] = 0
    trace.messages_sent = rc.messages_sent
    trace.delivered = rc.delivered
    trace.rounds = rc.rounds
    for round_no, count in rc.round_counts.items():
        trace.round_counts[round_no] = count
    trace.completed = True
    labels = vt.labels
    runtimes = sim._runtimes
    steps = rc.informed_step
    informed_idx = np.flatnonzero(steps >= 0)
    for i in informed_idx[np.argsort(steps[informed_idx], kind="stable")]:
        step = int(steps[i])
        label = labels[i]
        trace.informed_at[label] = step
        rt = runtimes[label]
        rt.informed = True
        rt.informed_at = step
    for i, label in enumerate(labels):
        rt = runtimes[label]
        rt.received_count = int(rc.received[i])
        rt.sent_count = int(rc.sent[i])
    sim._seq = rc.messages_sent

