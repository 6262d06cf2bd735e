"""Claim 3.1's light spanning tree and Theorem 3.1's broadcast oracle.

**Edge weights.**  Every edge ``e = {u, v}`` gets weight
``w(e) = min(port_u(e), port_v(e))`` and *contribution* ``#2(w(e))`` — the
bits needed to write that weight down.

**Claim 3.1.**  Some spanning tree ``T0`` has total contribution at most
``4n``.  The construction is a phase-based variant of Kruskal/Borůvka: in
phase ``k`` every "small" tree (fewer than ``2^k`` nodes) selects a
minimum-weight edge leaving it; all selected edges are added and one edge per
created cycle is erased.  Since a tree of size ``|T|`` always has a leaving
edge of weight at most ``|T| - 1`` (some node of ``T`` with an outgoing edge
has at most ``|T| - 1`` ports pointing inside), phase ``k`` contributes at
most ``k * n / 2^(k-1)`` bits, and the total telescopes to ``4n``.

**The oracle.**  For each tree edge, the binary representation of its weight
is handed to the endpoint *whose local port number equals the weight* —
that endpoint can interpret the weight directly as one of its own ports.
A node's weights are packed at 2 bits per contribution bit
(:func:`repro.encoding.encode_weight_list`), so the oracle size is at most
``2 * 4n = 8n``.  Scheme B (:class:`repro.algorithms.SchemeB`) then
broadcasts over ``T0`` with at most ``2(n - 1)`` messages.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

from ..core.oracle import AdviceMap, Oracle
from ..encoding import code_length, encode_weight_list
from ..fastpath.topology import compiled_topology
from ..network.graph import GraphError, PortLabeledGraph, edge_key, label_key

__all__ = [
    "edge_contribution",
    "tree_contribution",
    "light_spanning_tree",
    "LightTreeBroadcastOracle",
    "assign_weight_advice",
]

Node = Hashable
Edge = Tuple[Node, Node]


def edge_contribution(graph: PortLabeledGraph, u: Node, v: Node) -> int:
    """``#2(w(e))`` for the edge ``{u, v}``."""
    return code_length(graph.edge_weight(u, v))


def tree_contribution(graph: PortLabeledGraph, edges) -> int:
    """Total contribution ``sum #2(w(e))`` of an edge set."""
    return sum(edge_contribution(graph, u, v) for u, v in edges)


def light_spanning_tree(graph: PortLabeledGraph) -> Set[Edge]:
    """Build ``T0`` per Claim 3.1; returns its canonical edge set.

    Deterministic: ties among minimum-weight outgoing edges break on
    ``(weight, repr(edge))``.  The result is a spanning tree whose total
    contribution is at most ``4n`` (asserted cheaply here; certified broadly
    by the tests and experiment E3).

    The scan reads the graph's :class:`~repro.fastpath.CompiledTopology`
    (an unfrozen graph is frozen on a copy first): a slot's weight is
    ``min(port, arrival port)``, and an edge's ``repr`` is formed only
    when its weight ties or beats the component's best so far.
    """
    n = graph.num_nodes
    if n == 1:
        return set()
    if not graph.frozen:
        graph = graph.copy().freeze()
    topo = compiled_topology(graph)
    labels, index = topo.labels, topo.index
    offsets, neighbor_at, arrival_at = topo.offsets, topo.neighbor_at, topo.arrival_at
    # Union-find over dense indices: comp[i] is the root of i's component
    # and members[root] its nodes in merge order.  The smaller component
    # is relabelled on a union (ties keep the first endpoint's root), and
    # members keeps the surviving roots in node order.
    comp = list(range(n))
    members: Dict[int, List[int]] = {i: [i] for i in range(n)}
    tree: Set[Edge] = set()
    phase = 1
    while len(members) > 1:
        threshold = 1 << phase  # components smaller than 2^k are "small"
        selected: List[Tuple[int, str, Edge]] = []
        for root, group in members.items():
            if len(group) >= threshold:
                continue
            best_w, best_r, best = n, "", None
            for i in group:
                lo, hi = offsets[i], offsets[i + 1]
                for p, j, q in zip(range(hi - lo), neighbor_at[lo:hi], arrival_at[lo:hi]):
                    w = p if p < q else q
                    if w > best_w or comp[j] == root:
                        continue
                    edge = edge_key(labels[i], labels[j])
                    r = repr(edge)
                    if w < best_w or r < best_r:
                        best_w, best_r, best = w, r, edge
            if best is None:
                raise GraphError("graph is not connected")
            selected.append((best_w, best_r, best))
        # Merge: add selected edges, erasing those that would close a cycle.
        for __, __, (u, v) in sorted(selected, key=lambda t: (t[0], t[1])):
            a, b = comp[index[u]], comp[index[v]]
            if a == b:
                continue
            if len(members[a]) < len(members[b]):
                a, b = b, a
            for i in members[b]:
                comp[i] = a
            members[a].extend(members.pop(b))
            tree.add((u, v))
        phase += 1
        if phase > 2 * n:  # defensive: cannot happen on a connected graph
            raise GraphError("light tree construction failed to converge")
    assert len(tree) == n - 1
    return tree


def assign_weight_advice(
    graph: PortLabeledGraph, tree: Set[Edge]
) -> Dict[Node, List[int]]:
    """Distribute tree-edge weights to endpoints, per Theorem 3.1.

    Edge ``e`` goes to the endpoint ``x`` with ``port_x(e) = w(e)``; when
    both ports equal the weight the smaller-``repr`` endpoint wins (the
    paper breaks ties arbitrarily).  Each node's list is sorted — the set of
    values is what matters to Scheme B.
    """
    weights: Dict[Node, List[int]] = {}
    for u, v in sorted(tree, key=label_key):
        pu, pv = graph.port(u, v), graph.port(v, u)
        w = min(pu, pv)
        if pu == w and pv == w:
            x = u if label_key(u) <= label_key(v) else v
        else:
            x = u if pu == w else v
        weights.setdefault(x, []).append(w)
    return {x: sorted(ws) for x, ws in weights.items()}


class LightTreeBroadcastOracle(Oracle):
    """Theorem 3.1's oracle: light-tree edge weights, ``<= 8n`` bits total."""

    def advise(self, graph: PortLabeledGraph) -> AdviceMap:
        tree = light_spanning_tree(graph)
        weights = assign_weight_advice(graph, tree)
        return AdviceMap({x: encode_weight_list(ws) for x, ws in weights.items()})

    def contribution(self, graph: PortLabeledGraph) -> int:
        """``sum_{e in T0} #2(w(e))`` — the Claim 3.1 quantity (``<= 4n``)."""
        return tree_contribution(graph, light_spanning_tree(graph))

    @staticmethod
    def size_upper_bound(n: int) -> int:
        """The analytic bound from Claim 3.1: ``8n`` bits."""
        return 8 * n
