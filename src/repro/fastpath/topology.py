"""Flat-array (CSR-style) compilation of a port-labeled graph.

The legacy engine answers "who is behind port ``p`` of node ``v``, and on
which of *their* ports does the message arrive?" once per sent message
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

:func:`compile_topology` is also the one check of the network model,
made while it reads each node's ``{neighbor: port}`` row once.
:meth:`PortLabeledGraph.freeze` attaches the result to the graph
(``graph._compiled``): a frozen graph cannot change, so its tables never
go stale, and pickling carries them along.

The engines are not the only readers.  A frozen graph's
``neighbor_via`` reads ``neighbor_at``; Claim 3.1's light tree
(:func:`repro.oracles.light_spanning_tree`) reads each edge weight as
``min(p, arrival_at[offsets[i] + p])``, the BFS/DFS/random trees of
:func:`repro.oracles.build_spanning_tree` read each node's neighbours in
port order from ``neighbor_at``, and the mobile agent's walk
(:func:`repro.agent.run_exploration`) reads each move's degree,
neighbour and arrival port from ``degrees``, ``neighbor_at`` and
``arrival_at``.  Outside ``network/graph.py``, :func:`compile_topology`
is the only code that reads the graph's rows.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Dict, Hashable, Tuple

from ..network.graph import GraphError

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
        Dense index of the source.
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

    def __repr__(self) -> str:
        return f"CompiledTopology(n={self.num_nodes}, m={self.num_edges})"


def compile_topology(graph) -> CompiledTopology:
    """Check the network model on ``graph`` and compile its tables.

    :meth:`PortLabeledGraph.freeze` runs this check and keeps the tables;
    :meth:`PortLabeledGraph.validate` runs it alone.  It raises
    :class:`~repro.network.graph.GraphError` for a graph with no nodes,
    ports at a node that are not exactly the integers ``0..deg-1``, a
    self-loop, an edge missing from one endpoint's row, no source, or a
    disconnected graph.
    """
    rows = graph._neighbor_to_port
    if not rows:
        raise GraphError("graph has no nodes")
    labels: Tuple[Hashable, ...] = tuple(rows)
    index = {label: i for i, label in enumerate(labels)}
    degrees = array("l", map(len, rows.values()))
    offsets = array("l", [0])
    offsets.extend(accumulate(degrees))
    neighbor_at = array("l")
    arrival_at = array("l")
    for v, row in rows.items():
        ports = row.values()
        if not {int}.issuperset(map(type, ports)):
            raise GraphError(f"ports at node {v!r} are not all integers: {list(ports)}")
        if sorted(ports) != list(range(len(row))):
            raise GraphError(f"ports at node {v!r} are {sorted(ports)}, expected 0..{len(row) - 1}")
        if v in row:
            raise GraphError(f"self-loop at node {v!r}")
        nbrs = sorted(row, key=row.__getitem__)  # neighbours in port order
        try:
            neighbor_at.extend([index[u] for u in nbrs])
            arrival_at.extend([rows[u][v] for u in nbrs])
        except KeyError:
            u = next(u for u in nbrs if v not in rows.get(u, ()))
            raise GraphError(f"asymmetric edge {{{v!r}, {u!r}}}") from None
    if not graph.has_source:
        raise GraphError("no source designated")
    seen = bytearray(len(labels))
    seen[0] = 1
    stack = [0]
    while stack:
        i = stack.pop()
        for j in neighbor_at[offsets[i] : offsets[i + 1]]:
            if not seen[j]:
                seen[j] = 1
                stack.append(j)
    if 0 in seen:
        raise GraphError("graph is not connected")
    reprs = tuple(repr(v) for v in labels)
    return CompiledTopology(
        labels, index, reprs, degrees, offsets, neighbor_at, arrival_at, index[graph.source]
    )


def compiled_topology(graph) -> CompiledTopology:
    """The :class:`CompiledTopology` a frozen graph carries.

    Raises :class:`ValueError` for a mutable graph, which has no tables.
    """
    topo = graph._compiled
    if topo is None:
        raise ValueError("compiled_topology requires a frozen graph")
    return topo
