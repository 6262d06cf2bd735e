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

Verification is a per-delivery check made while the run happens, not a
replay of a delivery log: :func:`run_gossip` wraps each node's scheme in a
verifier-owned witness, and the engine hands every delivery to the witness
before the scheme sees it.  Each node's knowledge starts at its own rumor
and grows with every delivered gossip payload, and the witnesses keep the
largest payload; the task succeeded iff every node ends knowing all ``n``
rumors.  The check trusts only what the engine delivered, never the
schemes' internal state, so it holds at every ``trace_level``.  A
malformed gossip payload — anything but ``("gossip", frozenset)`` — is
ignored: it neither adds knowledge nor counts as the largest payload, so
a scheme sending one fails verification instead of crashing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Set, Tuple

from ..network.graph import PortLabeledGraph
from ..simulator.messages import Payload
from ..simulator.node import NodeContext, Process
from ..simulator.schedulers import Scheduler
from ..simulator.trace import ExecutionTrace
from .oracle import AdviceMap, Oracle
from .scheme import Algorithm
from .tasks import default_message_limit, simulate_pair

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


class _Witness:
    """A node's scheme as the verifier runs it: every delivery is checked
    against the gossip convention, then handed to the scheme unchanged."""

    __slots__ = ("scheme", "knowledge", "largest")

    def __init__(self, scheme: Process, rumor: Tuple[str, Hashable]) -> None:
        self.scheme = scheme
        self.knowledge: Set = {rumor}
        self.largest = 0

    def on_init(self, ctx: NodeContext) -> None:
        self.scheme.on_init(ctx)

    def on_receive(self, ctx: NodeContext, payload: Payload, port: int) -> None:
        if (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == GOSSIP_KIND
            and isinstance(payload[1], frozenset)
        ):
            rumors = payload[1]
            self.knowledge |= rumors
            if len(rumors) > self.largest:
                self.largest = len(rumors)
        self.scheme.on_receive(ctx, payload, port)


class _Witnessed(Algorithm):
    """``algorithm`` with each node's scheme wrapped in a :class:`_Witness`
    that starts from the node's rumor (gossip runs are never anonymous, so
    ``node_id`` is the node's label)."""

    def __init__(self, algorithm: Algorithm) -> None:
        self._algorithm = algorithm
        self.witnesses: List[_Witness] = []

    def scheme_for(self, advice, is_source, node_id, degree) -> Process:
        witness = _Witness(
            self._algorithm.scheme_for(advice, is_source, node_id, degree),
            rumor_of(node_id),
        )
        self.witnesses.append(witness)
        return witness


def run_gossip(
    graph: PortLabeledGraph,
    oracle: Oracle,
    algorithm: Algorithm,
    scheduler: Optional[Scheduler] = None,
    max_messages: Optional[int] = None,
    advice: Optional[AdviceMap] = None,
    trace_level: str = "full",
) -> GossipResult:
    """Run a gossip algorithm and verify all-to-all dissemination.

    Gossip is broadcast-like: spontaneous transmissions are allowed (leaves
    must start the convergecast unprompted), so no wakeup constraint is
    enforced.  The verification does not read the trace, so
    ``trace_level="counters"`` gives the same result without keeping the
    delivery log.
    """
    if max_messages is None:
        # flooding gossip can legitimately use ~n*m messages
        max_messages = graph.num_nodes * default_message_limit(graph)
    witnessed = _Witnessed(algorithm)
    graph, advice, trace = simulate_pair(
        graph, oracle, witnessed, scheduler=scheduler, max_messages=max_messages,
        advice=advice, trace_level=trace_level,
    )
    witnesses = witnessed.witnesses
    everything = frozenset(rumor_of(v) for v in graph.nodes())
    complete = all(w.knowledge == everything for w in witnesses)
    return GossipResult(
        graph_nodes=graph.num_nodes,
        graph_edges=graph.num_edges,
        oracle_name=oracle.name,
        algorithm_name=algorithm.name,
        oracle_bits=advice.total_bits(),
        messages=trace.messages_sent,
        complete=complete,
        quiescent=trace.completed,
        max_payload_rumors=max(w.largest for w in witnesses),
        min_final_knowledge=min(len(w.knowledge) for w in witnesses),
        trace=trace,
    )
