"""Stock network topologies with explicit port labelings.

Two kinds of builders live here:

* The paper's canonical labeled complete graph ``K*_n``
  (:func:`complete_graph_star`), which both lower-bound constructions start
  from.  The paper labels the port at node ``i`` of the edge to ``j`` as
  ``(i - j) mod (n - 1)``; as stated that map is not injective for interior
  ``i`` (ports of ``j`` and ``j + n - 1`` collide), so we use the standard
  *rotational* labeling ``(j - i - 1) mod n``, which is a bijection onto
  ``{0, ..., n - 2}`` at every node and serves the identical role in the
  proofs: a fixed, explicit, canonical port labeling of ``K_n``.
* General families used by the benchmarks and tests: paths, cycles, stars,
  complete bipartite graphs, grids, hypercubes, balanced trees, random trees,
  connected Erdős–Rényi graphs, and random regular graphs.  Every random
  builder takes an explicit :class:`random.Random` — or a ``seed`` from
  which one is constructed — so graph generation never touches the
  module-level RNG and is reproducible end to end; every builder returns a
  frozen, validated :class:`PortLabeledGraph` with node ``1`` (or the
  family's natural origin) as source.

Each family lays out its nodes, and each node's neighbours, in the order
the networkx 3.6 generator of the same name inserts them, and one port
assigner (shared with :meth:`PortLabeledGraph.from_networkx`) numbers
them, so every graph is the one the generator would have given.  Only
:func:`random_regular` still calls networkx, imported when it runs.
"""

from __future__ import annotations

import random
from itertools import combinations, pairwise
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .graph import GraphError, Node, PortLabeledGraph, _assign_ports

#: Seed used when a random builder is called with neither ``rng`` nor
#: ``seed`` — an arbitrary but fixed default, so bare calls are still
#: deterministic.
DEFAULT_SEED = 0


def resolve_rng(
    rng: Optional[random.Random] = None,
    seed: Optional[int] = None,
    default_seed: int = DEFAULT_SEED,
) -> random.Random:
    """An explicit RNG for graph generation: ``rng`` wins, else a fresh
    ``random.Random(seed)`` (``seed`` defaulting to ``default_seed``).

    Centralizing this keeps every builder off the module-level ``random``
    state (lint rule MDL003's concern) without forcing callers to build
    their own :class:`random.Random` instances.
    """
    if rng is not None:
        return rng
    return random.Random(default_seed if seed is None else seed)


__all__ = [
    "DEFAULT_SEED",
    "resolve_rng",
    "complete_graph_star",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_bipartite",
    "grid_graph",
    "hypercube_graph",
    "balanced_tree",
    "random_tree",
    "random_connected_gnp",
    "random_regular",
    "lollipop_graph",
    "barbell_graph",
    "wheel_graph",
    "caterpillar_graph",
    "FAMILY_BUILDERS",
]


def complete_graph_star(n: int) -> PortLabeledGraph:
    """The canonically port-labeled complete graph ``K*_n``.

    Nodes are labeled ``1..n``; the port at node ``i`` of the edge towards
    node ``j`` is ``(j - i - 1) mod n``, a bijection onto ``{0, ..., n - 2}``
    at every node.  Node ``1`` is the source, as in both lower-bound proofs.
    Each node's row lists its neighbours in ascending order, the order an
    ``add_edge`` loop over ``i < j`` would insert them in.
    """
    if n < 2:
        raise GraphError("K*_n needs n >= 2")
    nodes = range(1, n + 1)
    rows = ((i, {j: (j - i - 1) % n for j in nodes if j != i}) for i in nodes)
    return PortLabeledGraph.from_port_rows(rows, source=1).freeze()


Adjacency = Dict[Node, Dict[Node, None]]


def _nodes(labels: Iterable[Node]) -> Adjacency:
    """An adjacency holding ``labels`` and no edges."""
    return {v: {} for v in labels}


def _add_edges(adj: Adjacency, edges: Iterable[Tuple[Node, Node]]) -> Adjacency:
    """Add ``edges`` to ``adj`` in order, as ``networkx.Graph.add_edges_from`` does.

    A new endpoint joins the nodes last (``u`` before ``v``), and a
    neighbour keeps the place where it first joined a node's neighbours.
    """
    for u, v in edges:
        if u not in adj:
            adj[u] = {}
        if v not in adj:
            adj[v] = {}
        adj[u][v] = None
        adj[v][u] = None
    return adj


def _finish(adj, source: Node, port_order: str = "sorted", rng=None) -> PortLabeledGraph:
    return _assign_ports(adj, source, port_order, rng).freeze()


def path_graph(n: int, port_order: str = "sorted", rng=None) -> PortLabeledGraph:
    """Path on nodes ``0..n-1`` with source ``0``."""
    if n < 1:
        raise GraphError("path needs n >= 1... and n >= 2 to be a network")
    adj = _add_edges(_nodes(range(n)), pairwise(range(n)))
    return _finish(adj, 0, port_order, rng)


def cycle_graph(n: int, port_order: str = "sorted", rng=None) -> PortLabeledGraph:
    """Cycle on nodes ``0..n-1`` with source ``0``."""
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    adj = _add_edges(_nodes(range(n)), zip(range(n), [*range(1, n), 0]))
    return _finish(adj, 0, port_order, rng)


def star_graph(n: int, center_source: bool = True) -> PortLabeledGraph:
    """Star with center ``0`` and leaves ``1..n-1``.

    ``center_source=False`` puts the source on leaf ``1``, which maximizes
    broadcast distance.
    """
    if n < 2:
        raise GraphError("star needs n >= 2")
    adj = _add_edges(_nodes(range(n)), ((0, leaf) for leaf in range(1, n)))
    return _finish(adj, 0 if center_source else 1)


def complete_bipartite(a: int, b: int, port_order: str = "sorted", rng=None) -> PortLabeledGraph:
    """Complete bipartite graph ``K_{a,b}`` with source on the first side."""
    if a < 1 or b < 1:
        raise GraphError("both sides must be non-empty")
    adj = _add_edges(_nodes(range(a + b)), ((u, v) for u in range(a) for v in range(a, a + b)))
    return _finish(adj, 0, port_order, rng)


def grid_graph(rows: int, cols: int, port_order: str = "sorted", rng=None) -> PortLabeledGraph:
    """2D grid with tuple-labeled nodes and source at the origin corner."""
    if rows < 1 or cols < 1:
        raise GraphError("grid needs positive dimensions")
    adj = _nodes((i, j) for i in range(rows) for j in range(cols))
    # networkx adds the edges between rows first, then those within rows.
    _add_edges(adj, (((i + 1, j), (i, j)) for i in range(rows - 1) for j in range(cols)))
    _add_edges(adj, (((i, j + 1), (i, j)) for i in range(rows) for j in range(cols - 1)))
    return _finish(adj, (0, 0), port_order, rng)


def hypercube_graph(dim: int, port_order: str = "sorted", rng=None) -> PortLabeledGraph:
    """``dim``-dimensional hypercube on ``2^dim`` integer-labeled nodes."""
    if dim < 1:
        raise GraphError("hypercube needs dim >= 1")
    # networkx builds the cube as a product of paths, then relabels it
    # twice (to bit tuples, here to ints).  Each relabel re-adds the edges
    # in edge-iteration order, which leaves every node's lower neighbours
    # first, ascending, then its higher ones, descending.
    bits = [1 << j for j in reversed(range(dim))]
    adj = {
        v: [v ^ b for b in bits if v & b] + [v ^ b for b in bits if not v & b]
        for v in range(1 << dim)
    }
    return _finish(adj, 0, port_order, rng)


def balanced_tree(branching: int, height: int) -> PortLabeledGraph:
    """Complete ``branching``-ary tree of the given height, root as source."""
    if branching < 1 or height < 1:
        raise GraphError("balanced tree needs branching >= 1 and height >= 1")
    n = sum(branching**k for k in range(height + 1))
    # Breadth-first labels: node c's parent is (c - 1) // branching.
    adj = _add_edges(_nodes(range(n)), (((c - 1) // branching, c) for c in range(1, n)))
    return _finish(adj, 0)


def random_tree(
    n: int,
    rng: Optional[random.Random] = None,
    port_order: str = "sorted",
    seed: Optional[int] = None,
) -> PortLabeledGraph:
    """Uniform random labeled tree on ``0..n-1`` (via a random Prüfer sequence)."""
    if n < 2:
        raise GraphError("random tree needs n >= 2")
    rng = resolve_rng(rng, seed)
    if n == 2:
        edges = [(0, 1)]
    else:
        edges = _prufer_edges([rng.randrange(n) for __ in range(n - 2)])
    return _finish(_add_edges(_nodes(range(n)), edges), 0, port_order, rng)


def _prufer_edges(sequence: List[int]) -> List[Tuple[int, int]]:
    """The tree edges of a Prüfer sequence, in the order
    ``networkx.from_prufer_sequence`` adds them."""
    n = len(sequence) + 2
    degree = [1] * n
    for v in sequence:
        degree[v] += 1
    orphaned = [True] * n
    edges = []
    index = u = degree.index(1)
    for v in sequence:
        edges.append((u, v))
        orphaned[u] = False
        degree[v] -= 1
        if v < index and degree[v] == 1:
            u = v
        else:
            index = u = next(k for k in range(index + 1, n) if degree[k] == 1)
    # networkx unpacks the last two orphans from a set.  Their order does
    # not matter: both nodes exist, and each gets the other as its last
    # neighbour either way.
    edges.append(tuple(k for k in range(n) if orphaned[k]))
    return edges


#: Pairs drawn per block of rows when sampling ``G(n, p)``.  It sets how
#: far a try reads between isolated-node checks, never what a try returns.
_GNP_BLOCK_PAIRS = 1024


class _DisjointSets:
    """Union-find over ``0..n-1`` (path halving) that counts its sets."""

    __slots__ = ("parent", "count")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.count = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Join the sets of ``a`` and ``b``; False if they were one already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        self.count -= 1
        return True

    def join(self, us: Iterable[int], vs: Iterable[int]) -> int:
        """Union the edges ``(us[i], vs[i])`` until one set is left; the set count."""
        for a, b in zip(us, vs):
            if self.union(a, b) and self.count == 1:
                break
        return self.count


def _gnp_edges(
    state: np.random.RandomState,
    draw_seed: int,
    p: float,
    offsets: np.ndarray,
    starts: List[int],
    stop_at_isolated: bool,
) -> Optional[Tuple[List[int], List[int]]]:
    """The edges ``nx.gnp_random_graph(n, p, seed=draw_seed)`` adds, in its order.

    ``state.seed([draw_seed])`` is the MT19937 state of
    ``random.Random(draw_seed)``, so ``random_sample`` returns the doubles
    networkx draws, one per pair of ``combinations(range(n), 2)``.  Row
    ``u`` holds the pairs ``(u, u+1..n-1)`` from ``offsets[u]`` on; the
    rows are drawn in blocks from ``starts``.  With ``stop_at_isolated``
    the draw ends, returning None, at the first block that leaves a node
    with all its pairs drawn and none kept: the sample is disconnected.
    """
    state.seed([draw_seed])
    seen = np.zeros(len(offsets) - 1, dtype=bool)
    us: List[np.ndarray] = []
    vs: List[np.ndarray] = []
    for r0, r1 in zip(starts, starts[1:]):
        lo, hi = offsets[r0], offsets[r1]
        kept = np.flatnonzero(state.random_sample(hi - lo) < p) + lo
        u = np.searchsorted(offsets, kept, side="right") - 1
        v = kept - offsets[u] + u + 1
        us.append(u)
        vs.append(v)
        if stop_at_isolated:
            seen[u] = True
            seen[v] = True
            # Rows 0..r1-1 are drawn, so nodes 0..r1-1 have their final degree.
            if not seen[r0:r1].all():
                return None
    return np.concatenate(us).tolist(), np.concatenate(vs).tolist()


def random_connected_gnp(
    n: int,
    p: float,
    rng: Optional[random.Random] = None,
    port_order: str = "sorted",
    max_tries: int = 200,
    seed: Optional[int] = None,
) -> PortLabeledGraph:
    """Connected Erdős–Rényi ``G(n, p)``.

    Samples until connected (up to ``max_tries``).  If every try is
    disconnected, the last sample is joined up instead of failing, so the
    builder is total: ``rng`` shuffles the nodes, and each consecutive
    pair of that order not yet connected gets an edge — one edge per
    extra component.

    Stream contract: the graph, down to node and neighbour insertion
    order, and the state ``rng`` is left in are exactly those of the
    networkx loop

    .. code-block:: python

        for __ in range(max_tries):
            g = nx.gnp_random_graph(n, p, seed=rng.randrange(2**32))
            if nx.is_connected(g):
                break
        else:
            order = list(g.nodes())
            rng.shuffle(order)
            for prev, cur in zip(order, order[1:]):
                if not nx.has_path(g, prev, cur):
                    g.add_edge(prev, cur)

    followed by the port assignment.  Each try replays networkx's
    ``random()`` stream in numpy row blocks and ends at its first
    isolated node; only the accepted sample becomes a graph.
    """
    if n < 2:
        raise GraphError("G(n, p) needs n >= 2")
    if not 0.0 <= p <= 1.0:
        raise GraphError("p must be in [0, 1]")
    if max_tries < 1:
        raise GraphError("max_tries must be >= 1")
    rng = resolve_rng(rng, seed)
    rows = np.arange(n + 1, dtype=np.int64)
    offsets = rows * (n - 1) - rows * (rows - 1) // 2
    # A block is the rows whose first pair falls in one span of
    # _GNP_BLOCK_PAIRS pairs: at least one row, about that many pairs.
    starts = np.unique(offsets[:-1] // _GNP_BLOCK_PAIRS, return_index=True)[1].tolist() + [n]
    # One generator per call, so concurrent callers share no state; every
    # try reseeds it before drawing.
    state = np.random.RandomState(0)
    for __ in range(max_tries):
        draw_seed = rng.randrange(2**32)
        edges = _gnp_edges(state, draw_seed, p, offsets, starts, stop_at_isolated=True)
        if edges is not None and _DisjointSets(n).join(*edges) == 1:
            joins = []
            break
    else:
        edges = _gnp_edges(state, draw_seed, p, offsets, starts, stop_at_isolated=False)
        sets = _DisjointSets(n)
        sets.join(*edges)
        order = list(range(n))
        rng.shuffle(order)
        joins = [(prev, cur) for prev, cur in zip(order, order[1:]) if sets.union(prev, cur)]
    adj = _add_edges(_nodes(range(n)), zip(*edges))
    return _finish(_add_edges(adj, joins), 0, port_order, rng)


def random_regular(
    n: int,
    degree: int,
    rng: Optional[random.Random] = None,
    port_order: str = "sorted",
    seed: Optional[int] = None,
) -> PortLabeledGraph:
    """Connected random ``degree``-regular graph on ``0..n-1``.

    The one builder that still samples with networkx, imported here.
    """
    import networkx as nx

    if degree < 0:
        raise GraphError("degree must be >= 0")
    if degree * n % 2 != 0:
        raise GraphError("degree * n must be even")
    if degree >= n:
        raise GraphError("degree must be < n")
    rng = resolve_rng(rng, seed)
    for __ in range(200):
        g = nx.random_regular_graph(degree, n, seed=rng.randrange(2**32))
        if nx.is_connected(g):
            return _finish(g.adj, 0, port_order, rng)
    raise GraphError("could not sample a connected regular graph")


def lollipop_graph(clique: int, tail: int, source_in_clique: bool = True) -> PortLabeledGraph:
    """A ``clique``-clique with a ``tail``-node path attached.

    The classic worst case for sequential token traversal; with the source
    in the clique, flooding pays the clique before the tail hears anything.
    """
    if clique < 3 or tail < 1:
        raise GraphError("lollipop needs clique >= 3 and tail >= 1")
    adj = _add_edges(_nodes(range(clique + tail)), combinations(range(clique), 2))
    _add_edges(adj, pairwise(range(clique, clique + tail)))
    _add_edges(adj, [(clique - 1, clique)])
    return _finish(adj, 0 if source_in_clique else clique + tail - 1)


def barbell_graph(bell: int, bridge: int) -> PortLabeledGraph:
    """Two ``bell``-cliques joined by a ``bridge``-node path; source in one bell."""
    if bell < 3 or bridge < 0:
        raise GraphError("barbell needs bell >= 3 and bridge >= 0")
    right = bell + bridge
    # networkx holds the left bell and all but the bridge's last node
    # before it adds an edge.  The last one joins with its first edge; a
    # one-node bridge's node joins last, with the edge to the left bell.
    adj = _add_edges(_nodes(range(max(bell, right - 1))), combinations(range(bell), 2))
    _add_edges(adj, pairwise(range(bell, right)))
    _add_edges(adj, combinations(range(right, right + bell), 2))
    _add_edges(adj, [(bell - 1, bell)])
    if bridge > 0:
        _add_edges(adj, [(right - 1, right)])
    return _finish(adj, 0)


def wheel_graph(n: int, center_source: bool = False) -> PortLabeledGraph:
    """Wheel on ``n`` nodes (hub 0 + cycle); source on the rim by default."""
    if n < 4:
        raise GraphError("wheel needs n >= 4")
    adj = _add_edges(_nodes(range(n)), ((0, v) for v in range(1, n)))
    _add_edges(adj, zip(range(1, n), [*range(2, n), 1]))
    return _finish(adj, 0 if center_source else 1)


def caterpillar_graph(spine: int, legs_per_node: int) -> PortLabeledGraph:
    """A spine path with ``legs_per_node`` leaves hanging off every spine node."""
    if spine < 2 or legs_per_node < 0:
        raise GraphError("caterpillar needs spine >= 2 and legs >= 0")
    adj = _add_edges(_nodes(range(spine)), pairwise(range(spine)))
    # Spine node s carries the legs spine + s * legs_per_node onwards.
    _add_edges(adj, ((s, spine + s * legs_per_node + k) for s in range(spine) for k in range(legs_per_node)))
    return _finish(adj, 0)


def _sized(family: str, build: Callable[[int], PortLabeledGraph]) -> Callable[[int], PortLabeledGraph]:
    """``build`` behind a :class:`GraphError` for sizes below 1.

    Several families clamp small sizes up to their minimum, which must not
    turn a size of zero or less into a graph.
    """

    def builder(n: int) -> PortLabeledGraph:
        if n < 1:
            raise GraphError(f"{family} needs n >= 1, got {n}")
        return build(n)

    return builder


#: Named builders of ``n -> graph`` used by the experiments, the CLI and the
#: daemon.  Every one refuses n < 1 with :class:`GraphError`.  Random
#: families get a fixed seed derived from ``n`` (the historical values, so
#: sweeps stay byte-for-byte reproducible across versions).
FAMILY_BUILDERS = {
    family: _sized(family, build)
    for family, build in {
        "path": lambda n: path_graph(n),
        "cycle": lambda n: cycle_graph(max(3, n)),
        "star": lambda n: star_graph(n),
        "complete": lambda n: complete_graph_star(n),
        # The paper's name for the canonically port-labeled complete graph.
        "kstar": lambda n: complete_graph_star(n),
        "grid": lambda n: grid_graph(max(1, int(n**0.5)), max(1, (n + int(n**0.5) - 1) // max(1, int(n**0.5)))),
        "random_tree": lambda n: random_tree(n, seed=10_000 + n),
        "gnp_sparse": lambda n: random_connected_gnp(n, min(1.0, 3.0 / max(1, n - 1)), seed=20_000 + n),
        "gnp_dense": lambda n: random_connected_gnp(n, 0.5, seed=30_000 + n),
        "lollipop": lambda n: lollipop_graph(max(3, n // 2), max(1, n - max(3, n // 2))),
        "barbell": lambda n: barbell_graph(max(3, n // 2), max(0, n - 2 * max(3, n // 2))),
        "wheel": lambda n: wheel_graph(max(4, n)),
        "caterpillar": lambda n: caterpillar_graph(max(2, n // 4), 3),
    }.items()
}
