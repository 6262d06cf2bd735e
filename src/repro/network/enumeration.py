"""Exhaustive enumeration of small port-labeled networks.

The theorems quantify over *all* networks; for tiny sizes we can actually
visit all of them.  :func:`all_connected_port_graphs` yields every
connected graph on ``n`` labeled nodes under every possible port
assignment (every node independently permutes its incident edges) and
every source choice — the complete universe the model allows at that size.

Counts grow fast (``n = 4`` already gives tens of thousands of
(graph, ports, source) triples), so this is a verification tool for
``n <= 4``-ish, used by the exhaustive test suite to certify the
Theorem 2.1/3.1 guarantees with no sampling gap at small scale.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Iterator, List, Optional, Tuple

from .builders import _DisjointSets
from .graph import PortLabeledGraph

__all__ = [
    "all_connected_edge_sets",
    "all_port_assignments",
    "all_connected_port_graphs",
    "count_connected_port_graphs",
]

Edge = Tuple[int, int]


def all_connected_edge_sets(n: int) -> Iterator[List[Edge]]:
    """Every connected graph on nodes ``0..n-1``, as a sorted edge list."""
    universe = list(combinations(range(n), 2))
    for size in range(n - 1, len(universe) + 1):
        for edges in combinations(universe, size):
            if edges and _DisjointSets(n).join(*zip(*edges)) == 1:
                yield list(edges)


def all_port_assignments(n: int, edges: List[Edge]) -> Iterator[PortLabeledGraph]:
    """Every port labeling of one edge set (no source set yet).

    Each node independently assigns ports ``0..deg-1`` to its incident
    edges; the iterator runs over the product of all per-node permutations.
    """
    incident: List[List[Edge]] = [[] for __ in range(n)]
    for e in edges:
        incident[e[0]].append(e)
        incident[e[1]].append(e)
    per_node_perms = [list(permutations(range(len(inc)))) for inc in incident]
    for combo in product(*per_node_perms):
        g = PortLabeledGraph()
        for v in range(n):
            g.add_node(v)
        port_of = {}
        for v, perm in enumerate(combo):
            for slot, e in zip(perm, incident[v]):
                port_of[(v, e)] = slot
        for e in edges:
            u, v = e
            g.add_edge(u, v, port_u=port_of[(u, e)], port_v=port_of[(v, e)])
        yield g


def all_connected_port_graphs(
    n: int, sources: Optional[str] = "all"
) -> Iterator[PortLabeledGraph]:
    """Every (edge set, port assignment, source) triple at size ``n``.

    ``sources='all'`` yields one frozen graph per source choice;
    ``sources='first'`` fixes node 0 as the source (an ``n``-fold speedup
    when source symmetry is irrelevant to the property under test).
    """
    for edges in all_connected_edge_sets(n):
        for unfrozen in all_port_assignments(n, edges):
            source_choices = range(n) if sources == "all" else (0,)
            for s in source_choices:
                g = unfrozen.copy()
                g.set_source(s)
                yield g.freeze()


def count_connected_port_graphs(n: int, sources: str = "all") -> int:
    """Size of the universe (convenience for test parametrization)."""
    return sum(1 for __ in all_connected_port_graphs(n, sources))
