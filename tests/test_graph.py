"""Unit and property tests for the port-labeled graph model."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastpath.topology import CompiledTopology, compile_topology
from repro.network import GraphError, PortLabeledGraph, edge_key
from repro.network.graph import label_key


class TestConstruction:
    def test_add_nodes_and_edges(self):
        g = PortLabeledGraph()
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b")
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert g.degree("a") == 1

    def test_duplicate_node(self):
        g = PortLabeledGraph()
        g.add_node(1)
        with pytest.raises(GraphError):
            g.add_node(1)

    def test_duplicate_edge(self):
        g = PortLabeledGraph()
        g.add_node(1)
        g.add_node(2)
        g.add_edge(1, 2)
        with pytest.raises(GraphError):
            g.add_edge(2, 1)

    def test_self_loop_rejected(self):
        g = PortLabeledGraph()
        g.add_node(1)
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_unknown_endpoint(self):
        g = PortLabeledGraph()
        g.add_node(1)
        with pytest.raises(GraphError):
            g.add_edge(1, 2)

    def test_auto_port_assignment(self):
        g = PortLabeledGraph()
        for v in range(4):
            g.add_node(v)
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        g.add_edge(0, 3)
        assert sorted(g.ports(0)) == [0, 1, 2]

    def test_explicit_ports(self):
        g = PortLabeledGraph()
        g.add_node("x")
        g.add_node("y")
        g.add_edge("x", "y", port_u=0, port_v=0)
        assert g.port("x", "y") == 0
        assert g.port("y", "x") == 0

    def test_port_collision(self):
        g = PortLabeledGraph()
        for v in range(3):
            g.add_node(v)
        g.add_edge(0, 1, port_u=0, port_v=0)
        with pytest.raises(GraphError):
            g.add_edge(0, 2, port_u=0, port_v=0)

    def test_negative_port(self):
        g = PortLabeledGraph()
        g.add_node(0)
        g.add_node(1)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, port_u=-1, port_v=0)

    def test_remove_edge(self):
        g = PortLabeledGraph()
        for v in range(3):
            g.add_node(v)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.num_edges == 1

    def test_remove_missing_edge(self):
        g = PortLabeledGraph()
        g.add_node(0)
        g.add_node(1)
        with pytest.raises(GraphError):
            g.remove_edge(0, 1)

    def test_set_port(self):
        g = PortLabeledGraph()
        g.add_node(0)
        g.add_node(1)
        g.add_edge(0, 1)
        g.set_port(0, 1, 5)
        assert g.port(0, 1) == 5
        assert g.neighbor_via(0, 5) == 1


class TestSourceAndFreeze:
    def test_source_required_to_validate(self):
        g = PortLabeledGraph()
        g.add_node(0)
        g.add_node(1)
        g.add_edge(0, 1)
        with pytest.raises(GraphError):
            g.validate()
        g.set_source(0)
        g.validate()

    def test_unknown_source(self):
        g = PortLabeledGraph()
        g.add_node(0)
        with pytest.raises(GraphError):
            g.set_source(9)

    def test_frozen_blocks_mutation(self, triangle):
        with pytest.raises(GraphError):
            triangle.add_node(99)
        with pytest.raises(GraphError):
            triangle.add_edge(0, 1)
        with pytest.raises(GraphError):
            triangle.remove_edge(0, 1)
        # The compiled tables hold the source's index, which the spanning
        # trees root at: a new source would disagree with them.
        with pytest.raises(GraphError, match="frozen"):
            triangle.set_source(2)
        assert triangle.source == 0

    def test_copy_is_mutable(self, triangle):
        c = triangle.copy()
        assert not c.frozen
        c.add_node(99)
        c.add_edge(0, 99)
        assert c.num_nodes == 4
        assert triangle.num_nodes == 3  # original untouched

    def test_validate_gap_in_ports(self):
        g = PortLabeledGraph()
        g.add_node(0)
        g.add_node(1)
        g.add_edge(0, 1, port_u=1, port_v=0)  # port 0 missing at node 0
        g.set_source(0)
        with pytest.raises(GraphError):
            g.validate()

    def test_validate_disconnected(self):
        g = PortLabeledGraph()
        for v in range(4):
            g.add_node(v)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        g.set_source(0)
        with pytest.raises(GraphError):
            g.validate()

    def test_validate_empty(self):
        with pytest.raises(GraphError):
            PortLabeledGraph().validate()


def _edge_01():
    g = PortLabeledGraph()
    g.add_node(0)
    g.add_node(1)
    g.add_edge(0, 1)
    g.set_source(0)
    return g


def _no_source():
    g = PortLabeledGraph()
    for v in (0, 1):
        g.add_node(v)
    g.add_edge(0, 1)
    return g


#: One graph per violation of the network model, built from raw rows
#: (except the empty and the sourceless graph: ``from_port_rows`` needs a
#: source node), and the message ``compile_topology`` gives.
MODEL_VIOLATIONS = {
    "no-nodes": (PortLabeledGraph, "graph has no nodes"),
    "port-gap": (
        lambda: PortLabeledGraph.from_port_rows([(0, {1: 1}), (1, {0: 0})], source=0),
        r"ports at node 0 are \[1\], expected 0..0",
    ),
    "port-repeat": (
        lambda: PortLabeledGraph.from_port_rows(
            [(0, {1: 0, 2: 0}), (1, {0: 0}), (2, {0: 0})], source=0
        ),
        r"ports at node 0 are \[0, 0\], expected 0..1",
    ),
    "port-not-an-integer": (
        lambda: PortLabeledGraph.from_port_rows(
            [(0, {1: 0, 2: 1.0}), (1, {0: 0}), (2, {0: 0})], source=0
        ),
        r"ports at node 0 are not all integers: \[0, 1.0\]",
    ),
    "self-loop": (
        lambda: PortLabeledGraph.from_port_rows([(0, {1: 0, 0: 1}), (1, {0: 0})], source=0),
        "self-loop at node 0",
    ),
    "one-sided-edge": (
        lambda: PortLabeledGraph.from_port_rows([(0, {1: 0}), (1, {})], source=0),
        r"asymmetric edge \{0, 1\}",
    ),
    "edge-to-a-non-node": (
        lambda: PortLabeledGraph.from_port_rows([(0, {9: 0})], source=0),
        r"asymmetric edge \{0, 9\}",
    ),
    "no-source": (_no_source, "no source designated"),
    "disconnected": (
        lambda: PortLabeledGraph.from_port_rows(
            [(0, {1: 0}), (1, {0: 0}), (2, {3: 0}), (3, {2: 0})], source=0
        ),
        "graph is not connected",
    ),
}


class TestValidateWholeModel:
    """Corruptions ``add_edge`` cannot make but raw rows can."""

    @pytest.mark.parametrize("check", ("freeze", "validate"))
    @pytest.mark.parametrize("violation", sorted(MODEL_VIOLATIONS))
    def test_every_violation_raises(self, violation, check):
        build, message = MODEL_VIOLATIONS[violation]
        g = build()
        with pytest.raises(GraphError, match=message):
            getattr(g, check)()
        assert not g.frozen

    def test_self_loop(self):
        g = _edge_01()
        g._neighbor_to_port[0][0] = 1
        assert (g.degree(0), g.num_edges) == (2, 1)
        with pytest.raises(GraphError, match="self-loop at node 0"):
            g.validate()

    def test_two_neighbours_on_one_port(self):
        g = _edge_01()
        g.add_node(2)
        g.add_edge(0, 2)
        g._neighbor_to_port[0][2] = 0
        with pytest.raises(GraphError, match=r"ports at node 0 are \[0, 0\], expected 0..1"):
            g.validate()

    def test_self_loop_row(self):
        g = PortLabeledGraph.from_port_rows([(0, {1: 0, 0: 1}), (1, {0: 0})], source=0)
        with pytest.raises(GraphError, match="self-loop at node 0"):
            g.freeze()

    def test_two_neighbours_on_one_port_row(self):
        rows = [(0, {1: 0, 2: 0}), (1, {0: 0}), (2, {0: 0})]
        g = PortLabeledGraph.from_port_rows(rows, source=0)
        with pytest.raises(GraphError, match=r"ports at node 0 are \[0, 0\]"):
            g.freeze()

    def test_one_sided_row(self):
        g = PortLabeledGraph.from_port_rows([(0, {1: 0}), (1, {})], source=0)
        with pytest.raises(GraphError):
            g.freeze()


class TestFromPortRows:
    def test_rebuilds_the_graph_unfrozen(self, zoo_graph):
        rows = [(v, {u: zoo_graph.port(v, u) for u in zoo_graph.neighbors(v)}) for v in zoo_graph.nodes()]
        g = PortLabeledGraph.from_port_rows(rows, source=zoo_graph.source)
        assert not g.frozen
        assert vars(g) == vars(zoo_graph.copy())
        g.freeze()
        assert list(g.edges()) == list(zoo_graph.edges())

    def test_rows_are_copied(self):
        rows = [(0, {1: 0}), (1, {0: 0})]
        g = PortLabeledGraph.from_port_rows(rows, source=0)
        rows[0][1][2] = 1
        assert g.freeze().num_edges == 1

    def test_unknown_source(self):
        with pytest.raises(GraphError):
            PortLabeledGraph.from_port_rows([(0, {})], source=9)


class TestQueries:
    def test_ports_and_neighbors(self, triangle):
        for v in triangle.nodes():
            assert sorted(triangle.ports(v)) == [0, 1]
            for p in triangle.ports(v):
                u = triangle.neighbor_via(v, p)
                assert triangle.port(v, u) == p

    def test_missing_port(self, triangle):
        with pytest.raises(GraphError):
            triangle.neighbor_via(0, 7)

    def test_missing_edge_port(self, path4):
        with pytest.raises(GraphError):
            path4.port(0, 3)

    def test_edges_each_once(self, k5):
        edges = list(k5.edges())
        assert len(edges) == 10
        assert len(set(edges)) == 10

    def test_edge_weight(self):
        g = PortLabeledGraph()
        g.add_node(0)
        g.add_node(1)
        g.add_edge(0, 1, port_u=3, port_v=1)
        assert g.edge_weight(0, 1) == 1
        assert g.edge_weight(1, 0) == 1

    def test_edge_key(self):
        assert edge_key(2, 1) == (1, 2)
        assert edge_key(1, 2) == (1, 2)
        assert edge_key("b", "a") == ("a", "b")
        # mixed types fall back to repr ordering, consistently
        assert edge_key(1, "a") == edge_key("a", 1)


class TestNetworkxInterop:
    def test_roundtrip(self, zoo_graph):
        nxg = zoo_graph.to_networkx()
        back = PortLabeledGraph.from_networkx(nxg)
        assert back.num_nodes == zoo_graph.num_nodes
        assert back.num_edges == zoo_graph.num_edges
        assert back.source == zoo_graph.source
        for u, v in zoo_graph.edges():
            assert back.port(u, v) == zoo_graph.port(u, v)
            assert back.port(v, u) == zoo_graph.port(v, u)

    def test_from_networkx_sorted_ports(self):
        nxg = nx.path_graph(3)
        g = PortLabeledGraph.from_networkx(nxg, source=0)
        g.validate()
        assert g.port(1, 0) == 0  # neighbor 0 sorts first
        assert g.port(1, 2) == 1

    def test_from_networkx_random_ports(self):
        nxg = nx.complete_graph(6)
        g = PortLabeledGraph.from_networkx(
            nxg, source=0, port_order="random", rng=random.Random(3)
        )
        g.validate()

    def test_random_requires_rng(self):
        with pytest.raises(GraphError):
            PortLabeledGraph.from_networkx(nx.path_graph(3), port_order="random")

    def test_unknown_port_order(self):
        with pytest.raises(GraphError):
            PortLabeledGraph.from_networkx(nx.path_graph(3), port_order="bogus")

    def test_default_source_is_min(self):
        g = PortLabeledGraph.from_networkx(nx.path_graph(4))
        assert g.source == 0


@st.composite
def random_connected_graphs(draw):
    """Hypothesis strategy: a connected nx graph with 2..12 nodes."""
    n = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        g.add_edge(a, b)
    extra = draw(st.integers(min_value=0, max_value=n * 2))
    for __ in range(extra):
        u, v = rng.sample(range(n), 2)
        g.add_edge(u, v)
    return g


class TestModelInvariants:
    @settings(max_examples=60)
    @given(random_connected_graphs())
    def test_ports_are_bijective(self, nxg):
        g = PortLabeledGraph.from_networkx(nxg, source=0)
        g.validate()  # includes bijectivity
        for v in g.nodes():
            deg = g.degree(v)
            seen = {g.neighbor_via(v, p) for p in range(deg)}
            assert len(seen) == deg

    @settings(max_examples=60)
    @given(random_connected_graphs())
    def test_port_symmetry(self, nxg):
        g = PortLabeledGraph.from_networkx(nxg, source=0)
        for u, v in g.edges():
            assert g.neighbor_via(u, g.port(u, v)) == v
            assert g.neighbor_via(v, g.port(v, u)) == u


def _reference_from_networkx(g, source=None, port_order="sorted", rng=None):
    """``from_networkx`` before it cached ``label_key`` per node."""
    out = PortLabeledGraph()
    for v in sorted(g.nodes(), key=label_key):
        out.add_node(v)
    explicit = all("ports" in data for __, __, data in g.edges(data=True)) and g.number_of_edges() > 0
    if explicit:
        for u, v, data in g.edges(data=True):
            out.add_edge(u, v, port_u=data["ports"][u], port_v=data["ports"][v])
    else:
        order = {}
        for v in g.nodes():
            nbrs = sorted(g.neighbors(v), key=label_key)
            if port_order == "random":
                if rng is None:
                    raise GraphError("port_order='random' requires an rng")
                rng.shuffle(nbrs)
            elif port_order != "sorted":
                raise GraphError(f"unknown port_order {port_order!r}")
            order[v] = nbrs
        ports = {v: {u: i for i, u in enumerate(nbrs)} for v, nbrs in order.items()}
        for u, v in g.edges():
            out.add_edge(u, v, port_u=ports[u][v], port_v=ports[v][u])
    if source is None:
        source = g.graph.get("source")
    if source is None:
        source = min(g.nodes(), key=label_key)
    out.set_source(source)
    return out


def _reference_compile_topology(graph):
    """``compile_topology`` as one ``neighbor_via`` and ``port`` call per slot.

    The calls go to a mutable copy, which answers from its rows: a frozen
    graph's ``neighbor_via`` reads the very tables under test.
    """
    from array import array

    graph = graph.copy()
    labels = tuple(graph.nodes())
    n = len(labels)
    index = {label: i for i, label in enumerate(labels)}
    degrees = array("l", (graph.degree(v) for v in labels))
    offsets = array("l", [0] * (n + 1))
    total = 0
    for i in range(n):
        total += degrees[i]
        offsets[i + 1] = total
    neighbor_at = array("l", [0] * total)
    arrival_at = array("l", [0] * total)
    for i, v in enumerate(labels):
        base = offsets[i]
        for p in range(degrees[i]):
            u = graph.neighbor_via(v, p)
            neighbor_at[base + p] = index[u]
            arrival_at[base + p] = graph.port(u, v)
    reprs = tuple(repr(v) for v in labels)
    source_index = index[graph.source] if graph.has_source else -1
    return CompiledTopology(
        labels, index, reprs, degrees, offsets, neighbor_at, arrival_at, source_index
    )


#: Label maps exercising int, str, tuple and mixed int/str labels.
RELABELS = {
    "int": lambda v: v,
    "str": lambda v: f"v{v:03d}",
    "tuple": lambda v: (v % 3, v),
    "mixed": lambda v: v if v % 2 else f"s{v}",
}


class TestAgainstReferences:
    """``from_networkx`` and ``compile_topology`` match their original code."""

    @settings(max_examples=60, deadline=None)
    @given(
        random_connected_graphs(),
        st.sampled_from(sorted(RELABELS)),
        st.sampled_from(["sorted", "random"]),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_from_networkx_matches_reference(self, nxg, relabel, port_order, seed):
        nxg = nx.relabel_nodes(nxg, RELABELS[relabel])
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = PortLabeledGraph.from_networkx(nxg, port_order=port_order, rng=got_rng)
        want = _reference_from_networkx(nxg, port_order=port_order, rng=want_rng)
        assert vars(got) == vars(want)
        for v in want.nodes():
            assert list(got._neighbor_to_port[v].items()) == list(want._neighbor_to_port[v].items())
        assert got_rng.getstate() == want_rng.getstate()

    @pytest.mark.parametrize("edges", ([(1, frozenset({2}))], [(0, 0), (0, 1)]))
    def test_from_networkx_errors_match_reference(self, edges):
        messages = []
        for build in (PortLabeledGraph.from_networkx, _reference_from_networkx):
            with pytest.raises(GraphError) as info:
                build(nx.Graph(edges))
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @settings(max_examples=60, deadline=None)
    @given(
        random_connected_graphs(),
        st.sampled_from(sorted(RELABELS)),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_compile_matches_reference(self, nxg, relabel, seed):
        nxg = nx.relabel_nodes(nxg, RELABELS[relabel])
        g = PortLabeledGraph.from_networkx(nxg, port_order="random", rng=random.Random(seed)).freeze()
        got, want = compile_topology(g), _reference_compile_topology(g)
        for name in CompiledTopology.__slots__:
            assert getattr(got, name) == getattr(want, name), name
