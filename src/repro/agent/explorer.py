"""Mobile-agent substrate: one walker exploring a port-labeled network.

"Exploration by mobile agents" is the last problem the paper's conclusion
names as a candidate for the oracle-size measure, and the related work
([2], [7] in the paper) is all about how knowledge changes exploration
cost.  This module provides the minimal agent model those comparisons
need:

* a single agent starts at a node (default: the source), sees the current
  node's oracle advice, degree, label (unless anonymous), and the port it
  entered through, carries arbitrary private memory, and repeatedly either
  *moves* through a local port or *halts*;
* the cost measure is the number of edge traversals (*moves*) — the agent
  analogue of message complexity;
* :func:`run_exploration` drives the walk and reports whether every node
  was visited, in how many moves, with the full trail for auditing.

Oracles are reused unchanged: advice lives at nodes, and the agent reads
the advice of the node it stands on — knowledge about the network placed
*in* the network, exactly the paper's model transplanted to the agent
setting.

The walk reads the graph's compiled tables
(:func:`repro.fastpath.topology.compiled_topology`): each node's advice is
looked up once, and degree, neighbour and arrival port come from the CSR
arrays, so a move costs a few list indexings and one :class:`AgentView`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Hashable, List, NamedTuple, Optional, Protocol, runtime_checkable

from ..core.oracle import AdviceMap, Oracle
from ..encoding import BitString
from ..fastpath.topology import compiled_topology
from ..network.graph import PortLabeledGraph

__all__ = ["AgentView", "Explorer", "ExplorationResult", "run_exploration"]


class AgentView(NamedTuple):
    """What the agent perceives at its current node.

    A named tuple, like the engine's message records: the walk builds one
    per move.
    """

    advice: BitString
    degree: int
    entry_port: Optional[int]  # None at the start node
    node_label: Optional[Hashable]  # None in anonymous runs


#: Builds an :class:`AgentView` from a 4-tuple without the Python-level
#: ``__new__`` a named tuple adds: half the cost of the walk's one view
#: per move.
_new_view = tuple.__new__


@runtime_checkable
class Explorer(Protocol):
    """The agent's program: look at the current node, move or halt."""

    def choose_port(self, view: AgentView) -> Optional[int]:  # pragma: no cover
        """Return a local port to leave through, or ``None`` to halt."""
        ...


@dataclass
class ExplorationResult:
    """Outcome of one exploration run."""

    graph_nodes: int
    graph_edges: int
    oracle_name: str
    explorer_name: str
    oracle_bits: int
    moves: int
    visited: int
    halted: bool
    trail: List[Hashable] = field(default_factory=list)

    @property
    def success(self) -> bool:
        """Visited every node and halted on its own."""
        return self.halted and self.visited == self.graph_nodes

    def summary(self) -> str:
        """One line: sizes, oracle and explorer, moves, nodes visited, status."""
        status = "ok" if self.success else "FAILED"
        return (
            f"exploration on n={self.graph_nodes}, m={self.graph_edges}: "
            f"{self.oracle_name} ({self.oracle_bits} bits) + {self.explorer_name} "
            f"-> {self.moves} moves, visited {self.visited}/{self.graph_nodes} [{status}]"
        )


def run_exploration(
    graph: PortLabeledGraph,
    oracle: Oracle,
    explorer: Explorer,
    start: Optional[Hashable] = None,
    anonymous: bool = False,
    max_moves: Optional[int] = None,
    advice: Optional[AdviceMap] = None,
) -> ExplorationResult:
    """Walk the agent until it halts (or the move limit trips).

    A port the explorer chooses must be an integer (anything
    :func:`operator.index` accepts) in ``range(degree)``; any other choice
    raises :class:`ValueError`.
    """
    if not graph.frozen:
        graph = graph.copy().freeze()
    if advice is None:
        advice = oracle.advise(graph)
    position = start if start is not None else graph.source
    if not graph.has_node(position):
        raise ValueError(f"start node {position!r} is not in the graph")
    if max_moves is None:
        max_moves = 8 * graph.num_edges + 4 * graph.num_nodes + 16
    topo = compiled_topology(graph)
    labels = topo.labels
    degrees = topo.degrees
    offsets = topo.offsets
    neighbor_at = topo.neighbor_at
    arrival_at = topo.arrival_at
    advice_at = [advice[v] for v in labels]
    choose_port = explorer.choose_port
    i = topo.index[position]
    seen = bytearray(len(labels))
    seen[i] = 1
    visited = 1
    trail = [position]
    entry_port: Optional[int] = None
    moves = 0
    halted = False
    while moves < max_moves:
        degree = degrees[i]
        port = choose_port(
            _new_view(
                AgentView,
                (advice_at[i], degree, entry_port, None if anonymous else position),
            )
        )
        if port is None:
            halted = True
            break
        if type(port) is not int:
            try:
                port = operator.index(port)
            except TypeError:
                raise ValueError(
                    f"explorer chose port {port!r} at node {position!r}, "
                    "which is not an integer"
                ) from None
        if not 0 <= port < degree:
            raise ValueError(
                f"explorer chose port {port} at node {position!r} of degree {degree}"
            )
        slot = offsets[i] + port
        entry_port = arrival_at[slot]
        i = neighbor_at[slot]
        position = labels[i]
        if not seen[i]:
            seen[i] = 1
            visited += 1
        trail.append(position)
        moves += 1
    explorer_name = getattr(explorer, "name", type(explorer).__name__)
    return ExplorationResult(
        graph_nodes=graph.num_nodes,
        graph_edges=graph.num_edges,
        oracle_name=oracle.name,
        explorer_name=explorer_name,
        oracle_bits=advice.total_bits(),
        moves=moves,
        visited=visited,
        halted=halted,
        trail=trail,
    )
