"""Run one (oracle, algorithm) pair on a graph and flatten it into a row.

:func:`run_pair` dispatches to the broadcast or wakeup task runner, and
:func:`task_result_row` turns the :class:`~repro.core.tasks.TaskResult`
into a flat table row for :func:`repro.analysis.format_table`.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.oracle import Oracle
from ..core.scheme import Algorithm
from ..core.tasks import TaskResult, run_broadcast, run_wakeup
from ..network.graph import PortLabeledGraph

__all__ = [
    "run_pair",
    "task_result_row",
]


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
