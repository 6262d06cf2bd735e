"""Knowledge/efficiency tradeoff: a tunable family between the extremes.

The paper's conclusion conjectures that oracles "could be potentially used
to establish precise tradeoffs between the amount of knowledge available to
nodes of a network and the efficiency ... of accomplishing a given task."
This module realizes one such tradeoff *inside the paper's own formalism*,
interpolating between the two endpoints the paper studies:

* full spanning-tree advice (Theorem 2.1): ``~n log n`` bits, ``n - 1``
  messages;
* no advice (flooding): 0 bits, ``2m - n + 1`` messages.

:class:`DepthLimitedTreeOracle` gives children-port advice only to nodes at
BFS depth ``< depth`` ("the network core knows its tree; the fringe is on
its own"), plus a 1-bit "you are advised" marker so the companion algorithm
:class:`repro.algorithms.HybridTreeFloodWakeup` can tell the two regimes
apart.  The hybrid wakeup forwards along the tree while advice lasts and
floods beyond it.

Sweeping ``depth`` produces a monotone advice-vs-messages curve — the
tradeoff experiment E9.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from ..core.oracle import AdviceMap, Oracle
from ..encoding import BitString, encode_children_ports
from ..network.graph import PortLabeledGraph
from .spanning_tree import build_spanning_tree, children_port_map

__all__ = ["DepthLimitedTreeOracle", "bfs_depths"]

Node = Hashable

#: First advice bit: 1 = "tree-advised node", 0 = "fringe node, flood".
ADVISED_MARKER = BitString("1")
FRINGE_MARKER = BitString("0")


def bfs_depths(graph: PortLabeledGraph) -> Dict[Node, int]:
    """Distance from the source along the BFS tree used by the oracle."""
    depths = {graph.source: 0}
    frontier = [graph.source]
    while frontier:
        nxt: List[Node] = []
        for u in frontier:
            for port in graph.ports(u):
                w = graph.neighbor_via(u, port)
                if w not in depths:
                    depths[w] = depths[u] + 1
                    nxt.append(w)
        frontier = nxt
    return depths


class DepthLimitedTreeOracle(Oracle):
    """Children-port advice for nodes at BFS depth below ``depth`` only.

    ``depth = 0`` gives every node a bare fringe marker (1 bit each; pure
    flooding); ``depth >= eccentricity(source)`` reproduces the full
    Theorem 2.1 oracle plus the marker bit.  Advice strings are
    ``marker . children_ports`` — the marker costs one bit and keeps the
    hybrid algorithm oracle-agnostic.
    """

    def __init__(self, depth: int, kind: str = "bfs") -> None:
        if depth < 0:
            raise ValueError("depth must be non-negative")
        self._depth = depth
        self._kind = kind

    @property
    def depth(self) -> int:
        """BFS depth below which a node gets its children ports."""
        return self._depth

    def advise(self, graph: PortLabeledGraph) -> AdviceMap:
        parent = build_spanning_tree(graph, self._kind)
        ports = children_port_map(graph, parent)
        depths = bfs_depths(graph)
        n = graph.num_nodes
        strings: Dict[Node, BitString] = {}
        for v in graph.nodes():
            if depths[v] < self._depth:
                strings[v] = ADVISED_MARKER + encode_children_ports(ports[v], n)
            else:
                strings[v] = FRINGE_MARKER
        return AdviceMap(strings)

    def advised_nodes(self, graph: PortLabeledGraph) -> int:
        """How many nodes receive tree advice at this depth."""
        depths = bfs_depths(graph)
        return sum(1 for v in graph.nodes() if depths[v] < self._depth)

    @property
    def name(self) -> str:
        return f"DepthLimitedTreeOracle(depth={self._depth})"
