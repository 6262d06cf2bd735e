"""Port-labeled network model.

The paper's networks are undirected connected graphs in which

* every node has a distinct label,
* the edges incident to a node ``v`` of degree ``deg(v)`` are locally
  numbered by *ports* ``0, 1, ..., deg(v) - 1`` (a bijection per node), and
* one node is distinguished as the *source*.

:class:`PortLabeledGraph` implements exactly that model.  Ports are the
load-bearing feature: algorithms address messages by local port number, not
by neighbor identity, and the broadcast oracle of Theorem 3.1 derives edge
weights ``w(e) = min(port_u(e), port_v(e))`` from them.

The class is mutable during construction and is expected to be frozen
(:meth:`PortLabeledGraph.freeze`) before simulation; the task runners freeze
defensively.

Each node keeps one port map, its insertion-ordered ``{neighbor: port}``
*row*; the rows fix the order of nodes, edges, neighbours and
serialization.  Freezing checks the model as it compiles the rows into a
:class:`repro.fastpath.CompiledTopology`, which the graph then carries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["PortLabeledGraph", "GraphError", "edge_key", "label_key"]

Node = Hashable
Edge = Tuple[Node, Node]


class GraphError(ValueError):
    """Raised when a graph operation would violate the network model."""


def label_key(v: Node) -> str:
    """Deterministic sort key for a node label: its content-based ``repr``.

    Labels whose ``repr`` falls back to ``object.__repr__`` embed a memory
    address, and set-typed labels render in hash order — orderings built on
    either would differ between runs, so both are rejected outright rather
    than silently producing an unstable order.
    """
    if isinstance(v, (set, frozenset)):
        raise GraphError(
            f"set-typed node label {v!r}: its repr depends on PYTHONHASHSEED "
            "and cannot order nodes deterministically"
        )
    if type(v).__repr__ is object.__repr__:
        raise GraphError(
            f"node label of type {type(v).__name__} has no content-based "
            "repr: the default repr embeds a memory address and cannot "
            "order nodes deterministically"
        )
    return repr(v)


def edge_key(u: Node, v: Node) -> Edge:
    """Canonical representation of the undirected edge ``{u, v}``.

    Endpoints are ordered by their sort key so that ``edge_key(u, v) ==
    edge_key(v, u)``; mixed-type labels fall back to a :func:`label_key`
    (content-repr) order.
    """
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if label_key(u) <= label_key(v) else (v, u)


class PortLabeledGraph:
    """An undirected connected graph with per-node port numbering.

    Typical construction::

        g = PortLabeledGraph()
        for v in range(4):
            g.add_node(v)
        g.add_edge(0, 1)          # ports auto-assigned (next free on each side)
        g.add_edge(1, 2, port_u=3, port_v=0)   # explicit ports
        g.set_source(0)
        g.freeze()                # validates the model

    Port numbers may be assigned sparsely during construction; ``freeze``
    verifies that at every node they form exactly ``{0, ..., deg - 1}``.
    """

    def __init__(self) -> None:
        self._neighbor_to_port: Dict[Node, Dict[Node, int]] = {}
        self._source: Optional[Node] = None
        self._compiled = None  # freeze()'s CompiledTopology; frozen iff set

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _check_mutable(self) -> None:
        if self._compiled is not None:
            raise GraphError("graph is frozen; copy it to modify")

    def add_node(self, v: Node) -> None:
        """Add an isolated node with label ``v``."""
        self._check_mutable()
        if v in self._neighbor_to_port:
            raise GraphError(f"duplicate node label {v!r}")
        self._neighbor_to_port[v] = {}

    def add_edge(
        self,
        u: Node,
        v: Node,
        port_u: Optional[int] = None,
        port_v: Optional[int] = None,
    ) -> None:
        """Add the undirected edge ``{u, v}``.

        Explicit port numbers may be given for either endpoint; otherwise the
        smallest unused port at that endpoint is assigned.
        """
        self._check_mutable()
        if u == v:
            raise GraphError("self-loops are not part of the network model")
        rows = self._neighbor_to_port
        for w in (u, v):
            if w not in rows:
                raise GraphError(f"unknown node {w!r}; add_node it first")
        if v in rows[u]:
            raise GraphError(f"edge {{{u!r}, {v!r}}} already present")
        pu = self._next_port(u) if port_u is None else port_u
        pv = self._next_port(v) if port_v is None else port_v
        for w, p in ((u, pu), (v, pv)):
            if p < 0:
                raise GraphError(f"negative port {p} at node {w!r}")
            if p in rows[w].values():
                raise GraphError(f"port {p} already used at node {w!r}")
        rows[u][v] = pu
        rows[v][u] = pv

    def _next_port(self, v: Node) -> int:
        used = set(self._neighbor_to_port[v].values())
        port = 0
        while port in used:
            port += 1
        return port

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``{u, v}``, leaving a port gap to be reassigned."""
        self._check_mutable()
        if v not in self._neighbor_to_port.get(u, {}):
            raise GraphError(f"edge {{{u!r}, {v!r}}} not present")
        del self._neighbor_to_port[u][v]
        del self._neighbor_to_port[v][u]

    def set_port(self, v: Node, neighbor: Node, port: int) -> None:
        """Reassign the port at ``v`` of the edge towards ``neighbor``."""
        self._check_mutable()
        row = self._neighbor_to_port.get(v, {})
        if neighbor not in row:
            raise GraphError(f"edge {{{v!r}, {neighbor!r}}} not present")
        if any(p == port and u != neighbor for u, p in row.items()):
            raise GraphError(f"port {port} already used at node {v!r}")
        row[neighbor] = port

    def set_source(self, v: Node) -> None:
        """Designate ``v`` as the source (the node whose status bit is 1)."""
        self._check_mutable()
        if v not in self._neighbor_to_port:
            raise GraphError(f"unknown node {v!r}")
        self._source = v

    def freeze(self) -> "PortLabeledGraph":
        """Check the model, compile the graph and make it immutable.  Returns self.

        :func:`repro.fastpath.topology.compile_topology` checks the whole
        network model while it compiles the rows into the flat arrays of
        :class:`repro.fastpath.CompiledTopology`, which the graph then
        carries (a frozen graph cannot change, so they never go stale).
        """
        from ..fastpath.topology import compile_topology

        self._compiled = compile_topology(self)
        return self

    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has checked and compiled the graph."""
        return self._compiled is not None

    def copy(self) -> "PortLabeledGraph":
        """A mutable deep copy (the copy is never frozen)."""
        out = PortLabeledGraph()
        out._neighbor_to_port = {v: dict(row) for v, row in self._neighbor_to_port.items()}
        out._source = self._source
        return out

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._neighbor_to_port)

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return sum(len(nbrs) for nbrs in self._neighbor_to_port.values()) // 2

    @property
    def source(self) -> Node:
        """The source node; :class:`GraphError` if none is designated."""
        if self._source is None:
            raise GraphError("no source designated")
        return self._source

    @property
    def has_source(self) -> bool:
        """Whether a source is designated."""
        return self._source is not None

    def nodes(self) -> Iterator[Node]:
        """Iterate over node labels (insertion order)."""
        return iter(self._neighbor_to_port)

    def edges(self) -> Iterator[Edge]:
        """Iterate over canonical edges, each reported once."""
        seen: set = set()
        for u, nbrs in self._neighbor_to_port.items():
            for v in nbrs:
                key = edge_key(u, v)
                if key not in seen:
                    seen.add(key)
                    yield key

    def has_node(self, v: Node) -> bool:
        """Whether a node with label ``v`` exists."""
        return v in self._neighbor_to_port

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        return v in self._neighbor_to_port.get(u, {})

    def degree(self, v: Node) -> int:
        """Number of edges incident to ``v``."""
        return len(self._neighbor_to_port[v])

    def neighbors(self, v: Node) -> Iterator[Node]:
        """Iterate over the neighbors of ``v`` (port order not guaranteed)."""
        return iter(self._neighbor_to_port[v])

    def port(self, v: Node, neighbor: Node) -> int:
        """The port number at ``v`` of the edge towards ``neighbor``."""
        try:
            return self._neighbor_to_port[v][neighbor]
        except KeyError:
            raise GraphError(f"edge {{{v!r}, {neighbor!r}}} not present") from None

    def neighbor_via(self, v: Node, port: int) -> Node:
        """The node reached from ``v`` through local port ``port``.

        A frozen graph reads its compiled tables; a mutable one scans
        ``v``'s row.
        """
        topo = self._compiled
        if topo is not None:
            i = topo.index.get(v)
            if i is not None and 0 <= port < topo.degrees[i]:
                return topo.labels[topo.neighbor_at[topo.offsets[i] + port]]
        else:
            for u, p in self._neighbor_to_port.get(v, {}).items():
                if p == port:
                    return u
        raise GraphError(f"no port {port} at node {v!r}")

    def ports(self, v: Node) -> List[int]:
        """Sorted list of port numbers at ``v``."""
        return sorted(self._neighbor_to_port[v].values())

    def edge_weight(self, u: Node, v: Node) -> int:
        """The paper's edge weight ``w(e) = min(port_u(e), port_v(e))``."""
        return min(self.port(u, v), self.port(v, u))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the whole network model; raise :class:`GraphError` if violated.

        The check is the one :meth:`freeze` runs,
        :func:`repro.fastpath.topology.compile_topology`.
        """
        from ..fastpath.topology import compile_topology

        compile_topology(self)

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self) -> "nx.Graph":
        """Export to a :class:`networkx.Graph` with ports as edge attributes.

        Each edge carries ``ports={u: port_u, v: port_v}`` and the graph
        carries ``source`` in ``G.graph``.  networkx is imported here, on
        the first call: nothing else in the library needs it.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._neighbor_to_port)
        for u, v in self.edges():
            g.add_edge(u, v, ports={u: self.port(u, v), v: self.port(v, u)})
        if self._source is not None:
            g.graph["source"] = self._source
        return g

    @classmethod
    def from_networkx(
        cls,
        g: "nx.Graph",
        source: Optional[Node] = None,
        port_order: str = "sorted",
        rng=None,
    ) -> "PortLabeledGraph":
        """Import a :class:`networkx.Graph`, assigning ports.

        ``port_order`` selects the port assignment when the edges carry no
        ``ports`` attribute:

        * ``"sorted"`` — ports follow the sorted order of neighbor labels
          (deterministic);
        * ``"random"`` — a random permutation per node (pass ``rng``, a
          :class:`random.Random`).

        The source defaults to ``g.graph['source']`` or the smallest label.
        """
        if source is None:
            source = g.graph.get("source")
        if source is None:
            source = min(g.nodes(), key=label_key)
        explicit = all("ports" in data for __, __, data in g.edges(data=True)) and g.number_of_edges() > 0
        if not explicit:
            return _assign_ports(g.adj, source, port_order, rng)
        out = cls()
        for v in sorted(g.nodes(), key=label_key):
            out.add_node(v)
        for u, v, data in g.edges(data=True):
            out.add_edge(u, v, port_u=data["ports"][u], port_v=data["ports"][v])
        out.set_source(source)
        return out

    @classmethod
    def from_port_rows(
        cls, rows: Iterable[Tuple[Node, Dict[Node, int]]], source: Node
    ) -> "PortLabeledGraph":
        """Build a graph from each node's ``{neighbor: port}`` row in one pass.

        ``rows`` yields ``(node, row)`` for every node in insertion order;
        ``row`` maps the node's neighbours, in insertion order, to its
        port towards each.  Each row is copied.  The input is not
        validated here: the result is unfrozen, and :meth:`freeze`
        validates it like any other graph, so a row that names a
        self-loop, two neighbours on one port or a one-sided edge raises
        :class:`GraphError` there.
        """
        out = cls()
        out._neighbor_to_port = {v: dict(row) for v, row in rows}
        out.set_source(source)
        return out

    def __repr__(self) -> str:
        src = f", source={self._source!r}" if self._source is not None else ""
        return f"PortLabeledGraph(n={self.num_nodes}, m={self.num_edges}{src})"


def _assign_ports(
    adjacency: Mapping[Node, Iterable[Node]],
    source: Node,
    port_order: str = "sorted",
    rng=None,
) -> PortLabeledGraph:
    """The unfrozen graph in which node ``v`` has the neighbours ``adjacency[v]``.

    ``adjacency`` holds the nodes, and each node's neighbours, in the
    order a :class:`networkx.Graph` holds them (its ``adj`` is one such
    mapping).  Nodes are stored in :func:`label_key` order.  Each node
    numbers its neighbours in that order too (``"sorted"``), or in a
    permutation of it shuffled per node, in adjacency order, by ``rng``
    (``"random"``).  A row lists the neighbours in the order
    ``networkx.Graph.edges()`` meets their edges.  The ports are a
    bijection by construction, so no edge goes through :meth:`add_edge`'s
    checks; a self-loop raises :class:`GraphError`.
    """
    by_label = {v: label_key(v) for v in adjacency}.__getitem__
    ports: Dict[Node, Dict[Node, int]] = {}
    for v, nbrs in adjacency.items():
        order = sorted(nbrs, key=by_label)
        if port_order == "random":
            if rng is None:
                raise GraphError("port_order='random' requires an rng")
            rng.shuffle(order)
        elif port_order != "sorted":
            raise GraphError(f"unknown port_order {port_order!r}")
        ports[v] = {u: i for i, u in enumerate(order)}
    rows: Dict[Node, Dict[Node, int]] = {v: {} for v in sorted(adjacency, key=by_label)}
    met = set()
    for u, nbrs in adjacency.items():
        row, port_u = rows[u], ports[u]
        for v in nbrs:
            if v not in met:
                if u == v:
                    raise GraphError("self-loops are not part of the network model")
                row[v] = port_u[v]
                rows[v][u] = ports[v][u]
        met.add(u)
    out = PortLabeledGraph()
    out._neighbor_to_port = rows
    out.set_source(source)
    return out
