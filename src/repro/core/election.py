"""Leader election: one bit of advice versus messages versus impossibility.

Leader election is the first problem the paper's introduction lists among
those whose solvability hinges on what nodes know.  As an output task it is
a striking data point for the oracle-size measure:

* **one advice bit in total** solves it with zero messages — the oracle
  points at a leader (:class:`repro.algorithms.AdvisedElection`);
* with **zero advice but unique identifiers**, flooding extrema costs
  ``Theta(n * m)`` messages (:class:`repro.algorithms.MinIdElection`);
* with **zero advice and anonymous nodes**, deterministic election is
  *impossible* on port-symmetric networks — a classical impossibility
  [Angluin 1980] that this library can exhibit concretely: on a
  rotation-symmetric ring every anonymous deterministic algorithm keeps all
  nodes in identical states forever, so either everyone elects themselves
  or no one does (see ``tests/test_election.py``).

A run succeeds when exactly one node outputs ``"leader"`` and every other
node outputs ``"follower"`` (quiescently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from ..network.graph import PortLabeledGraph
from ..simulator.schedulers import Scheduler
from ..simulator.trace import ExecutionTrace
from .oracle import AdviceMap, Oracle
from .scheme import Algorithm
from .tasks import default_message_limit, simulate_pair

__all__ = ["LEADER", "FOLLOWER", "ElectionResult", "run_election"]

#: Output value announcing leadership.
LEADER = "leader"
#: Output value announcing deference.
FOLLOWER = "follower"


@dataclass(frozen=True)
class ElectionResult:
    """Outcome of one election run."""

    graph_nodes: int
    graph_edges: int
    oracle_name: str
    algorithm_name: str
    oracle_bits: int
    messages: int
    leaders: int
    followers: int
    quiescent: bool
    outputs: Dict[Hashable, object]
    trace: ExecutionTrace

    @property
    def success(self) -> bool:
        """Exactly one leader, everyone else a follower, at quiescence."""
        return (
            self.quiescent
            and self.leaders == 1
            and self.followers == self.graph_nodes - 1
        )

    def summary(self) -> str:
        """One-line human-readable account of the run."""
        status = "ok" if self.success else "FAILED"
        return (
            f"election on n={self.graph_nodes}, m={self.graph_edges}: "
            f"{self.oracle_name} ({self.oracle_bits} bits) + {self.algorithm_name} "
            f"-> {self.messages} messages, {self.leaders} leader(s) [{status}]"
        )


def run_election(
    graph: PortLabeledGraph,
    oracle: Oracle,
    algorithm: Algorithm,
    scheduler: Optional[Scheduler] = None,
    anonymous: bool = False,
    max_messages: Optional[int] = None,
    advice: Optional[AdviceMap] = None,
) -> ElectionResult:
    """Run an election algorithm and verify the single-leader predicate.

    Election has no distinguished source; the engine runs sourceless (every
    status bit 0) and spontaneous transmissions are allowed — symmetry
    breaking has to start somewhere.
    """
    if max_messages is None:
        max_messages = graph.num_nodes * default_message_limit(graph)
    graph, advice, trace = simulate_pair(
        graph, oracle, algorithm, scheduler=scheduler, anonymous=anonymous,
        no_source=True, max_messages=max_messages, advice=advice,
    )
    outputs = dict(trace.outputs)
    leaders = sum(1 for v in outputs.values() if v == LEADER)
    followers = sum(1 for v in outputs.values() if v == FOLLOWER)
    return ElectionResult(
        graph_nodes=graph.num_nodes,
        graph_edges=graph.num_edges,
        oracle_name=oracle.name,
        algorithm_name=algorithm.name,
        oracle_bits=advice.total_bits(),
        messages=trace.messages_sent,
        leaders=leaders,
        followers=followers,
        quiescent=trace.completed,
        outputs=outputs,
        trace=trace,
    )
