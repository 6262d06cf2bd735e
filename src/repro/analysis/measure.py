"""Parameter sweeps: run a measurement over (family, size) grids.

Experiments are mostly of one shape — "for every graph family and every
size, run some (oracle, algorithm) pairs and record a row".  This module is
that loop, with reproducible family builders and failure capture (a failed
run becomes a row with ``success=False``; a builder's refusal of a size
becomes a row with ``skipped=True`` and the exception type — never a
silently missing cell).

The loop body lives in :func:`run_sweep_cell` so that the serial sweep here
and the process-pool fan-out in :mod:`repro.runner` execute *the same
code* per cell — that shared body is what makes the parallel path's rows
and event stream byte-identical to a serial run.

Row keys: every row carries both ``n`` (the actual ``graph.num_nodes`` for
measured cells) and ``requested_n`` (the grid coordinate handed to the
builder).  The two differ for families like ``grid`` that round to a
feasible size, and skipped cells only ever knew the request — recording
both keeps grids joinable on either axis.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence

from ..core.oracle import Oracle
from ..core.scheme import Algorithm
from ..core.tasks import TaskResult, run_broadcast, run_wakeup
from ..network.builders import FAMILY_BUILDERS
from ..network.graph import GraphError, PortLabeledGraph
from ..obs.events import SweepCellMeasured, SweepCellSkipped
from ..obs.observe import Observation, resolve_obs

__all__ = [
    "sweep_families",
    "run_sweep_cell",
    "measurement_keywords",
    "skipped_row",
    "failed_row",
    "run_pair",
    "task_result_row",
]

GraphBuilder = Callable[[int], PortLabeledGraph]
Measurement = Callable[[str, int, PortLabeledGraph], Dict[str, Any]]

#: Optional keyword arguments a measurement may declare to receive the
#: sweep's context: ``obs`` (the cell's Observation — in a parallel run
#: this is a worker-local handle whose events are re-emitted in grid
#: order) and ``cache`` (the run's ConstructionCache, when one is active).
MEASUREMENT_KEYWORDS = frozenset({"obs", "cache"})


def measurement_keywords(measurement: Measurement) -> FrozenSet[str]:
    """Which of :data:`MEASUREMENT_KEYWORDS` ``measurement`` accepts.

    Plain three-argument measurements get exactly the historical call;
    measurements that also declare ``obs=``/``cache=`` (or ``**kwargs``)
    receive the sweep's telemetry handle and construction cache.
    """
    try:
        params = inspect.signature(measurement).parameters
    except (TypeError, ValueError):
        return frozenset()
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return MEASUREMENT_KEYWORDS
    return MEASUREMENT_KEYWORDS & frozenset(params)


def skipped_row(family: str, n: int, error: str, detail: str) -> Dict[str, Any]:
    """The structured row for a cell whose *builder* failed (deterministic;
    part of the sweep's result stream)."""
    return {
        "family": family,
        "n": n,
        "requested_n": n,
        "skipped": True,
        "error": error,
        "detail": detail,
    }


def failed_row(
    family: str, n: int, error: str, detail: str, attempts: int
) -> Dict[str, Any]:
    """The structured row for a cell the fault-tolerant runner gave up on
    (crash/timeout/exception after exhausting retries — host-dependent, so
    it appears only in faulted runs; see :mod:`repro.runner`)."""
    return {
        "family": family,
        "n": n,
        "requested_n": n,
        "failed": True,
        "error": error,
        "detail": detail,
        "attempts": attempts,
    }


def run_sweep_cell(
    family: str,
    n: int,
    measurement: Measurement,
    obs: Observation,
    cache=None,
    accepts: Optional[FrozenSet[str]] = None,
) -> Dict[str, Any]:
    """Execute one (family, n) cell: build, measure, emit, return the row.

    This is the single cell body shared by :func:`sweep_families` and the
    runner's pool workers.  A builder's :class:`~repro.network.GraphError`
    — its refusal of an infeasible size — becomes a structured skipped row
    (with a :class:`repro.obs.SweepCellSkipped` event).  Any other builder
    exception, and every measurement failure, propagates: a broken builder
    or measurement is a bug, not a grid gap.  When ``cache`` is given,
    graph construction goes through ``cache.graph(family, n)``.
    """
    builder = FAMILY_BUILDERS[family]
    try:
        if cache is not None:
            graph = cache.graph(family, n, builder=lambda: builder(n))
        else:
            graph = builder(n)
    except GraphError as exc:
        row = skipped_row(family, n, type(exc).__name__, str(exc))
        if obs.enabled:
            obs.emit(
                SweepCellSkipped(
                    family=family, n=n, error=type(exc).__name__, detail=str(exc)
                )
            )
        return row
    if accepts is None:
        accepts = measurement_keywords(measurement)
    kwargs: Dict[str, Any] = {}
    if "obs" in accepts:
        kwargs["obs"] = obs
    if "cache" in accepts and cache is not None:
        kwargs["cache"] = cache
    # Profiler-only span (never an event): per-cell cost attribution for
    # `repro profile`, invisible to the deterministic stream contracts.
    with obs.wallspan(f"cell/{family}/{n}"):
        row = measurement(family, n, graph, **kwargs)
    row.setdefault("family", family)
    row.setdefault("n", graph.num_nodes)
    row.setdefault("requested_n", n)
    if obs.enabled:
        obs.emit(SweepCellMeasured(family=family, n=graph.num_nodes))
    return row


def sweep_families(
    sizes: Sequence[int],
    measurement: Measurement,
    families: Optional[Iterable[str]] = None,
    obs: Optional[Observation] = None,
    cache=None,
) -> List[Dict[str, Any]]:
    """Apply ``measurement(family, n, graph)`` over the grid; one row each.

    ``families`` defaults to every named family in
    :data:`repro.network.FAMILY_BUILDERS`.  A builder that refuses the size
    with :class:`~repro.network.GraphError` (e.g. a family that needs a
    larger minimum size) does not silently skip the cell: it records a
    structured row ``{"family", "n", "requested_n", "skipped": True,
    "error": "GraphError", "detail": <message>}`` and emits a
    :class:`repro.obs.SweepCellSkipped` event, so a sweep can never
    under-cover the grid without the gap showing up in its own output.
    Any other builder exception is a bug and propagates.  Filter with
    ``[r for r in rows if not r.get("skipped")]`` where only measured
    cells are wanted.

    ``cache`` — an optional
    :class:`repro.parallel.ConstructionCache` — memoizes graph
    construction across cells and runs; measurements that declare a
    ``cache=`` keyword receive it too (see :func:`measurement_keywords`).
    For multi-process execution of the same grid, see
    :func:`repro.runner.resilient_sweep_families`, whose rows, event
    stream and metrics match this function's byte for byte at any worker
    count.
    """
    obs = resolve_obs(obs)
    chosen = list(families) if families is not None else sorted(FAMILY_BUILDERS)
    accepts = measurement_keywords(measurement)
    rows: List[Dict[str, Any]] = []
    for family in chosen:
        for n in sizes:
            rows.append(
                run_sweep_cell(family, n, measurement, obs, cache=cache, accepts=accepts)
            )
    return rows


def run_pair(
    graph: PortLabeledGraph,
    oracle: Oracle,
    algorithm: Algorithm,
    task: str = "broadcast",
    **kwargs,
) -> TaskResult:
    """Run one (oracle, algorithm) pair; ``task`` is ``broadcast``/``wakeup``.

    Keyword arguments (including ``obs=`` for telemetry and
    ``trace_level="counters"`` for log-free counting runs) pass straight
    through to :func:`repro.core.run_broadcast` / :func:`repro.core.run_wakeup`.
    """
    if task == "broadcast":
        return run_broadcast(graph, oracle, algorithm, **kwargs)
    if task == "wakeup":
        return run_wakeup(graph, oracle, algorithm, **kwargs)
    raise ValueError(f"unknown task {task!r}")


def task_result_row(result: TaskResult) -> Dict[str, Any]:
    """Flatten a :class:`TaskResult` into a table row."""
    return {
        "task": result.task,
        "n": result.graph_nodes,
        "m": result.graph_edges,
        "oracle": result.oracle_name,
        "algorithm": result.algorithm_name,
        "oracle_bits": result.oracle_bits,
        "messages": result.messages,
        "success": result.success,
        "rounds": result.rounds,
    }
