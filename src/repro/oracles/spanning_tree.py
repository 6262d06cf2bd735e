"""The wakeup oracle of Theorem 2.1.

Fix any spanning tree ``T`` of the network rooted at the source.  The oracle
gives every internal node of ``T`` the port numbers leading to its children
(self-delimitingly encoded — see
:func:`repro.encoding.encode_children_ports`) and every leaf the empty
string.  Total size: ``sum_v c(v) ceil(log n) + O(log log n)``-per-internal-
node ``= n log n + o(n log n)`` bits, since the child counts sum to
``n - 1``.

The companion algorithm (:class:`repro.algorithms.TreeWakeup`) forwards the
source message down the encoded tree, using exactly ``n - 1`` messages —
which is optimal, as every node other than the source must receive at least
one message.

Tree selection is pluggable (BFS, DFS, or a uniformly random spanning tree);
the size bound holds for any of them, and experiment E1 compares the
constants.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Optional, Tuple

from ..core.oracle import AdviceMap, Oracle
from ..encoding import children_ports_code_length, encode_children_ports
from ..fastpath.topology import compiled_topology
from ..network.graph import GraphError, PortLabeledGraph

__all__ = ["build_spanning_tree", "children_port_map", "SpanningTreeWakeupOracle"]

Node = Hashable


def build_spanning_tree(
    graph: PortLabeledGraph,
    kind: str = "bfs",
    rng: Optional[random.Random] = None,
) -> Dict[Node, Optional[Node]]:
    """A spanning tree rooted at the source, as a ``child -> parent`` map.

    ``kind``:

    * ``"bfs"`` — breadth-first from the source (deterministic, neighbor
      order = port order);
    * ``"dfs"`` — depth-first from the source (deterministic);
    * ``"random"`` — BFS/DFS over a randomly permuted port order per node
      (requires ``rng``), giving a random — not uniformly random — spanning
      tree; plenty for exercising the size bound across tree shapes.

    The root maps to ``None``.  Neighbours are read in port order from
    the graph's :class:`~repro.fastpath.CompiledTopology`; an unfrozen
    graph is frozen on a copy first.
    """
    if kind not in ("bfs", "dfs", "random"):
        raise GraphError(f"unknown spanning tree kind {kind!r}")
    if kind == "random" and rng is None:
        raise GraphError("kind='random' requires an rng")
    if not graph.frozen:
        graph = graph.copy().freeze()
    topo = compiled_topology(graph)
    offsets, neighbor_at = topo.offsets, topo.neighbor_at
    root = topo.source_index
    # Dense child -> parent indices, in the order parents are fixed.
    up: Dict[int, int] = {root: -1}

    def neighbor_order(i: int) -> List[int]:
        nbrs = list(neighbor_at[offsets[i] : offsets[i + 1]])
        if kind == "random":
            rng.shuffle(nbrs)
        return nbrs

    if kind in ("bfs", "random"):
        frontier = [root]
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for w in neighbor_order(u):
                    if w not in up:
                        up[w] = u
                        nxt.append(w)
            frontier = nxt
    else:
        # parent is fixed when a node is *visited* (popped), not when first
        # seen — otherwise K_n would yield a star instead of a path
        stack = [(root, -1)]
        visited = bytearray(topo.num_nodes)
        while stack:
            u, via = stack.pop()
            if visited[u]:
                continue
            visited[u] = 1
            up[u] = via
            for w in reversed(neighbor_order(u)):
                if not visited[w]:
                    stack.append((w, u))
    if len(up) != topo.num_nodes:
        raise GraphError("graph is not connected")
    labels = topo.labels
    return {labels[c]: None if p < 0 else labels[p] for c, p in up.items()}


def children_port_map(
    graph: PortLabeledGraph, parent: Dict[Node, Optional[Node]]
) -> Dict[Node, List[int]]:
    """For each node, the sorted ports leading to its children in the tree."""
    children: Dict[Node, List[int]] = {v: [] for v in graph.nodes()}
    for child, par in parent.items():
        if par is not None:
            children[par].append(graph.port(par, child))
    return {v: sorted(ports) for v, ports in children.items()}


class SpanningTreeWakeupOracle(Oracle):
    """Theorem 2.1's oracle: children ports along a rooted spanning tree."""

    def __init__(self, kind: str = "bfs", seed: int = 0) -> None:
        self._kind = kind
        self._seed = seed

    def advise(self, graph: PortLabeledGraph) -> AdviceMap:
        rng = random.Random(self._seed) if self._kind == "random" else None
        parent = build_spanning_tree(graph, self._kind, rng)
        ports = children_port_map(graph, parent)
        n = graph.num_nodes
        return AdviceMap(
            {v: encode_children_ports(plist, n) for v, plist in ports.items()}
        )

    def predicted_size(self, graph: PortLabeledGraph) -> int:
        """Exact size this oracle will have on ``graph`` (no encoding run).

        Matches ``advise(graph).total_bits()``; used by tests to pin the
        accounting and by E1 to cross-check the ``n log n + o(n log n)``
        bound cheaply.
        """
        rng = random.Random(self._seed) if self._kind == "random" else None
        parent = build_spanning_tree(graph, self._kind, rng)
        ports = children_port_map(graph, parent)
        n = graph.num_nodes
        return sum(children_ports_code_length(len(p), n) for p in ports.values())

    @property
    def name(self) -> str:
        return f"SpanningTreeWakeupOracle({self._kind})"

    @staticmethod
    def size_upper_bound(n: int) -> int:
        """The analytic bound: ``(n - 1) ceil(log n) + n (2 #2(ceil(log n)) + 2)``.

        Child counts over the tree sum to ``n - 1`` (each non-root is some
        node's child); at most ``n`` internal nodes pay the
        ``2 #2(ceil(log n)) + 2``-bit self-delimiting header.
        """
        from ..encoding import code_length, port_field_width

        width = port_field_width(n)
        return (n - 1) * width + n * (2 * code_length(width) + 2)


def tree_edges(parent: Dict[Node, Optional[Node]]) -> List[Tuple[Node, Node]]:
    """The tree's edge list ``(child, parent)``, root excluded."""
    return [(c, p) for c, p in parent.items() if p is not None]


__all__.append("tree_edges")
