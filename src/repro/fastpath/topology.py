"""Flat-array (CSR-style) compilation of a port-labeled graph.

The legacy engine answers "who is behind port ``p`` of node ``v``, and on
which of *their* ports does the message arrive?" with two nested-dict
walks per delivered message
(``graph.neighbor_via(v, p)`` + ``graph.port(u, v)``).
:class:`CompiledTopology` precomputes both answers for every ``(node,
port)`` pair into flat arrays so the inner loop does two list indexings
instead:

    base = offsets[i]                  # node i's slice of the port space
    j     = neighbor_at[base + p]      # dense index of the neighbor
    aport = arrival_at[base + p]       # arrival port at that neighbor

Nodes are numbered ``0..n-1`` in the graph's deterministic insertion
order (the same order ``graph.nodes()`` yields, which is also the
engine's init order), so a compiled index is meaningful across every
consumer of the same frozen graph.  ``reprs`` additionally precomputes
``repr(label)`` per node — the component of the synchronous delivery key
that is by far the most expensive to recompute per message.

Compilation happens once, at :meth:`PortLabeledGraph.freeze` time, and
the result is cached on the graph itself (``graph._compiled``); a frozen
graph cannot change, so the cache never goes stale.  The serving
daemon's memo (:meth:`repro.service.jobs.ConstructionCache.graph`) hands
out frozen graphs, so a graph it serves again carries its compiled
topology.

The engines are not the only readers.  Claim 3.1's light tree
(:func:`repro.oracles.light_spanning_tree`) reads each edge weight as
``min(p, arrival_at[offsets[i] + p])``, the BFS/DFS/random trees of
:func:`repro.oracles.build_spanning_tree` read each node's neighbours in
port order from ``neighbor_at``, and the mobile agent's walk
(:func:`repro.agent.run_exploration`) reads each move's degree,
neighbour and arrival port from ``degrees``, ``neighbor_at`` and
``arrival_at``.  :func:`compile_topology` reads the graph's two port maps
row by row; outside ``network/graph.py`` it is the only code that does.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Dict, Hashable, Tuple

__all__ = ["CompiledTopology", "compile_topology", "compiled_topology"]


class CompiledTopology:
    """The flat-array form of one frozen port-labeled graph.

    Attributes
    ----------
    labels:
        Node labels, dense index -> label (graph insertion order).
    index:
        label -> dense index (the inverse of ``labels``).
    reprs:
        ``repr(label)`` per dense index (synchronous delivery keys).
    degrees:
        ``deg(v)`` per dense index.
    offsets:
        CSR row starts: node ``i`` owns slots ``offsets[i] ..
        offsets[i+1] - 1`` of the two port arrays; ``offsets[n]`` is
        ``2 * num_edges``.
    neighbor_at:
        ``neighbor_at[offsets[i] + p]`` is the dense index of the node
        behind port ``p`` of node ``i``.
    arrival_at:
        ``arrival_at[offsets[i] + p]`` is the port on which that message
        arrives at the neighbor.
    source_index:
        Dense index of the source, or ``-1`` if none is designated.
    """

    __slots__ = (
        "labels",
        "index",
        "reprs",
        "degrees",
        "offsets",
        "neighbor_at",
        "arrival_at",
        "source_index",
    )

    def __init__(
        self,
        labels: Tuple[Hashable, ...],
        index: Dict[Hashable, int],
        reprs: Tuple[str, ...],
        degrees: "array",
        offsets: "array",
        neighbor_at: "array",
        arrival_at: "array",
        source_index: int,
    ) -> None:
        self.labels = labels
        self.index = index
        self.reprs = reprs
        self.degrees = degrees
        self.offsets = offsets
        self.neighbor_at = neighbor_at
        self.arrival_at = arrival_at
        self.source_index = source_index

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self.neighbor_at) // 2

    def neighbor_via(self, i: int, port: int) -> int:
        """Dense index of the node behind port ``port`` of node ``i``."""
        if not 0 <= port < self.degrees[i]:
            raise IndexError(f"no port {port} at compiled node {i}")
        return self.neighbor_at[self.offsets[i] + port]

    def arrival_port(self, i: int, port: int) -> int:
        """Arrival port of a message sent through port ``port`` of node ``i``."""
        if not 0 <= port < self.degrees[i]:
            raise IndexError(f"no port {port} at compiled node {i}")
        return self.arrival_at[self.offsets[i] + port]

    def __repr__(self) -> str:
        return f"CompiledTopology(n={self.num_nodes}, m={self.num_edges})"


def compile_topology(graph) -> CompiledTopology:
    """Compile a validated :class:`~repro.network.graph.PortLabeledGraph`.

    Called by ``freeze()``; use :func:`compiled_topology` to get the
    cached instance of an already-frozen graph.
    """
    labels: Tuple[Hashable, ...] = tuple(graph.nodes())
    index = {label: i for i, label in enumerate(labels)}
    behind = graph._port_to_neighbor
    port_of = graph._neighbor_to_port
    degrees = array("l", [len(behind[v]) for v in labels])
    offsets = array("l", [0])
    offsets.extend(accumulate(degrees))
    neighbor_at = array("l")
    arrival_at = array("l")
    for v in labels:
        row = behind[v]
        nbrs = [row[p] for p in range(len(row))]
        neighbor_at.extend([index[u] for u in nbrs])
        arrival_at.extend([port_of[u][v] for u in nbrs])
    reprs = tuple(repr(v) for v in labels)
    source_index = index[graph.source] if graph.has_source else -1
    return CompiledTopology(
        labels, index, reprs, degrees, offsets, neighbor_at, arrival_at, source_index
    )


def compiled_topology(graph) -> CompiledTopology:
    """The cached :class:`CompiledTopology` of a frozen graph.

    Graphs frozen since this module exists carry their topology already;
    older pickles (or exotic construction paths) get compiled here on
    first use.  Raises :class:`ValueError` for unfrozen graphs — a
    mutable graph could invalidate the cache.
    """
    topo = getattr(graph, "_compiled", None)
    if topo is None:
        if not graph.frozen:
            raise ValueError("compiled_topology requires a frozen graph")
        topo = compile_topology(graph)
        graph._compiled = topo
    return topo
