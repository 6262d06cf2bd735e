"""Gossip: the third task the paper's conclusion points at.

In gossip every node starts with a private *rumor* and the task completes
when every node knows every rumor.  The paper conjectures oracle size can
measure the difficulty of "a broader range of distributed network problems"
— gossip is its first example, and this module makes the measurement
runnable (experiment E10).

Conventions (shared by all gossip algorithms here):

* node ``v``'s rumor is the token ``("rumor", v)`` — gossip is inherently
  non-anonymous;
* every gossip message has payload ``("gossip", frozenset_of_rumors)``;
  message *count* is the complexity measure, as in the rest of the paper,
  but rumor sets make messages unbounded-size — :class:`GossipResult`
  reports the largest payload so the regime difference from
  broadcast/wakeup (two constant tokens) stays visible.

Verification replays the trace in one pass over the delivery log: each
node's knowledge starts at its own rumor and grows with every delivered
gossip payload, and the same pass finds the largest payload; the task
succeeded iff every node ends knowing all ``n`` rumors.  The replay only
trusts the engine's delivery log, never the schemes' internal state.  A
malformed gossip payload — anything but ``("gossip", frozenset)`` — is
ignored: it neither adds knowledge nor counts as the largest payload, so
a scheme sending one fails verification instead of crashing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Set, Tuple

from ..network.graph import PortLabeledGraph
from ..simulator.schedulers import Scheduler, make_scheduler
from ..simulator.trace import ExecutionTrace
from .oracle import AdviceMap, Oracle
from .scheme import Algorithm
from .tasks import default_message_limit

__all__ = ["GOSSIP_KIND", "rumor_of", "GossipResult", "run_gossip"]

#: Payload tag for gossip messages: ``(GOSSIP_KIND, frozenset(rumors))``.
GOSSIP_KIND = "gossip"


def rumor_of(node: Hashable) -> Tuple[str, Hashable]:
    """The rumor initially held by ``node``."""
    return ("rumor", node)


@dataclass(frozen=True)
class GossipResult:
    """Outcome of one gossip run."""

    graph_nodes: int
    graph_edges: int
    oracle_name: str
    algorithm_name: str
    oracle_bits: int
    messages: int
    complete: bool
    quiescent: bool
    max_payload_rumors: int
    min_final_knowledge: int
    trace: ExecutionTrace

    @property
    def success(self) -> bool:
        """Complete and quiescent (finished on its own, not at a limit)."""
        return self.complete and self.quiescent

    def summary(self) -> str:
        """One-line human-readable account of the run."""
        status = "ok" if self.success else "FAILED"
        return (
            f"gossip on n={self.graph_nodes}, m={self.graph_edges}: "
            f"{self.oracle_name} ({self.oracle_bits} bits) + {self.algorithm_name} "
            f"-> {self.messages} messages, max payload {self.max_payload_rumors} "
            f"rumors [{status}]"
        )


def _replay(
    graph: PortLabeledGraph, trace: ExecutionTrace
) -> Tuple[Dict[Hashable, Set], int]:
    """Every node's final rumor knowledge and the largest payload's size,
    from one pass over the delivery log."""
    knowledge: Dict[Hashable, Set] = {v: {rumor_of(v)} for v in graph.nodes()}
    max_payload = 0
    for d in trace.deliveries:
        payload = d.payload
        if (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == GOSSIP_KIND
            and isinstance(payload[1], frozenset)
        ):
            rumors = payload[1]
            knowledge[d.receiver] |= rumors
            if len(rumors) > max_payload:
                max_payload = len(rumors)
    return knowledge, max_payload


def run_gossip(
    graph: PortLabeledGraph,
    oracle: Oracle,
    algorithm: Algorithm,
    scheduler: Optional[Scheduler] = None,
    max_messages: Optional[int] = None,
    advice: Optional[AdviceMap] = None,
) -> GossipResult:
    """Run a gossip algorithm and verify all-to-all dissemination.

    Gossip is broadcast-like: spontaneous transmissions are allowed (leaves
    must start the convergecast unprompted), so no wakeup constraint is
    enforced.
    """
    from ..simulator.engine import Simulation

    if not graph.frozen:
        graph = graph.copy().freeze()
    if advice is None:
        advice = oracle.advise(graph)
    schemes = {
        v: algorithm.scheme_for(advice[v], v == graph.source, v, graph.degree(v))
        for v in graph.nodes()
    }
    if scheduler is None:
        scheduler = make_scheduler("sync")
    if max_messages is None:
        # flooding gossip can legitimately use ~n*m messages
        max_messages = graph.num_nodes * default_message_limit(graph)
    sim = Simulation(
        graph,
        schemes,
        advice=advice,
        scheduler=scheduler,
        max_messages=max_messages,
    )
    trace = sim.run()
    knowledge, max_payload = _replay(graph, trace)
    everything = frozenset(rumor_of(v) for v in graph.nodes())
    complete = all(k == everything for k in knowledge.values())
    return GossipResult(
        graph_nodes=graph.num_nodes,
        graph_edges=graph.num_edges,
        oracle_name=oracle.name,
        algorithm_name=algorithm.name,
        oracle_bits=advice.total_bits(),
        messages=trace.messages_sent,
        complete=complete,
        quiescent=trace.completed,
        max_payload_rumors=max_payload,
        min_final_knowledge=min(len(k) for k in knowledge.values()),
        trace=trace,
    )
