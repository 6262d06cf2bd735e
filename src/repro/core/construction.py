"""Spanning-tree construction: an output task measured by oracle size.

The paper's conclusion conjectures oracle size can assess "e.g., spanner
construction or exploration by mobile agents."  This module implements the
simplest representative — **rooted spanning tree construction** — as an
*output* task: every non-source node must end the run outputting the local
port leading to its parent in some spanning tree rooted at the source
(the source outputs nothing, or ``None``).

Verification is structural and algorithm-independent: follow each node's
output port to its claimed parent and check the parent pointers form a
tree reaching the source from everywhere.

The interesting economics (experiment E11): with a
:class:`repro.oracles.ParentPointerOracle` of ``~n log(max deg)`` bits the
task needs **zero messages** — the oracle hands everyone their answer —
while with zero advice a DFS token pays ``Theta(m)`` messages to discover
the same tree.  Knowledge substitutes for communication completely here,
which is exactly the trade the paper quantifies for dissemination tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from ..network.graph import PortLabeledGraph
from ..simulator.schedulers import Scheduler
from ..simulator.trace import ExecutionTrace
from .oracle import AdviceMap, Oracle
from .scheme import Algorithm
from .tasks import simulate_pair

__all__ = ["TreeConstructionResult", "verify_parent_outputs", "run_tree_construction"]


@dataclass(frozen=True)
class TreeConstructionResult:
    """Outcome of one tree-construction run."""

    graph_nodes: int
    graph_edges: int
    oracle_name: str
    algorithm_name: str
    oracle_bits: int
    messages: int
    valid_tree: bool
    quiescent: bool
    outputs: Dict[Hashable, Optional[int]]
    trace: ExecutionTrace

    @property
    def success(self) -> bool:
        return self.valid_tree and self.quiescent

    def summary(self) -> str:
        """One-line human-readable account of the run."""
        status = "ok" if self.success else "FAILED"
        return (
            f"tree-construction on n={self.graph_nodes}, m={self.graph_edges}: "
            f"{self.oracle_name} ({self.oracle_bits} bits) + {self.algorithm_name} "
            f"-> {self.messages} messages, valid={self.valid_tree} [{status}]"
        )


def verify_parent_outputs(
    graph: PortLabeledGraph, outputs: Dict[Hashable, Optional[int]]
) -> bool:
    """Do the output ports form a spanning tree rooted at the source?

    Requirements: every non-source node outputs a valid local port; the
    source outputs ``None`` (or nothing); following parents from any node
    reaches the source without cycling.
    """
    source = graph.source
    parent: Dict[Hashable, Hashable] = {}
    for v in graph.nodes():
        if v == source:
            if outputs.get(v) is not None:
                return False
            continue
        port = outputs.get(v)
        if port is None or not 0 <= port < graph.degree(v):
            return False
        parent[v] = graph.neighbor_via(v, port)
    for v in parent:
        seen = {v}
        cur = v
        while cur != source:
            cur = parent.get(cur)
            if cur is None or cur in seen:
                return False
            seen.add(cur)
    return True


def run_tree_construction(
    graph: PortLabeledGraph,
    oracle: Oracle,
    algorithm: Algorithm,
    scheduler: Optional[Scheduler] = None,
    max_messages: Optional[int] = None,
    advice: Optional[AdviceMap] = None,
) -> TreeConstructionResult:
    """Run a construction algorithm and verify the announced tree."""
    graph, advice, trace = simulate_pair(
        graph, oracle, algorithm, scheduler=scheduler, max_messages=max_messages,
        advice=advice,
    )
    outputs = dict(trace.outputs)
    valid = verify_parent_outputs(graph, outputs)
    return TreeConstructionResult(
        graph_nodes=graph.num_nodes,
        graph_edges=graph.num_edges,
        oracle_name=oracle.name,
        algorithm_name=algorithm.name,
        oracle_bits=advice.total_bits(),
        messages=trace.messages_sent,
        valid_tree=valid,
        quiescent=trace.completed,
        outputs=outputs,
        trace=trace,
    )
