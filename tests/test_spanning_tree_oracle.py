"""Tests for Theorem 2.1's spanning-tree wakeup oracle."""

import hashlib
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pinned_tree_graph
from repro.core.oracle import advice_to_json
from repro.encoding import decode_children_ports
from repro.network import (
    GraphError,
    PortLabeledGraph,
    clique_family_graph,
    complete_graph_star,
    grid_graph,
    path_graph,
    random_connected_gnp,
    sample_edge_tuple,
    star_graph,
    subdivision_family_graph,
)
from repro.oracles import (
    SpanningTreeWakeupOracle,
    build_spanning_tree,
    children_port_map,
    tree_edges,
)


class TestBuildSpanningTree:
    def test_bfs_covers_all(self, zoo_graph):
        parent = build_spanning_tree(zoo_graph, "bfs")
        assert set(parent) == set(zoo_graph.nodes())
        assert parent[zoo_graph.source] is None
        assert len(tree_edges(parent)) == zoo_graph.num_nodes - 1

    def test_dfs_covers_all(self, zoo_graph):
        parent = build_spanning_tree(zoo_graph, "dfs")
        assert set(parent) == set(zoo_graph.nodes())
        assert len(tree_edges(parent)) == zoo_graph.num_nodes - 1

    def test_random_covers_all(self, zoo_graph):
        parent = build_spanning_tree(zoo_graph, "random", random.Random(3))
        assert set(parent) == set(zoo_graph.nodes())

    def test_random_requires_rng(self, k5):
        with pytest.raises(GraphError):
            build_spanning_tree(k5, "random")

    def test_unknown_kind(self, k5):
        with pytest.raises(GraphError):
            build_spanning_tree(k5, "prim")

    def test_tree_edges_are_graph_edges(self, zoo_graph):
        parent = build_spanning_tree(zoo_graph, "bfs")
        for child, par in tree_edges(parent):
            assert zoo_graph.has_edge(child, par)

    def test_parents_form_rooted_tree(self, k5):
        parent = build_spanning_tree(k5, "dfs")
        # every node reaches the root by following parents
        for v in k5.nodes():
            steps = 0
            cur = v
            while parent[cur] is not None:
                cur = parent[cur]
                steps += 1
                assert steps <= k5.num_nodes
            assert cur == k5.source


class TestChildrenPortMap:
    def test_child_counts_sum(self, zoo_graph):
        parent = build_spanning_tree(zoo_graph, "bfs")
        ports = children_port_map(zoo_graph, parent)
        assert sum(len(p) for p in ports.values()) == zoo_graph.num_nodes - 1

    def test_ports_lead_to_children(self, k5):
        parent = build_spanning_tree(k5, "bfs")
        ports = children_port_map(k5, parent)
        for v, plist in ports.items():
            for p in plist:
                child = k5.neighbor_via(v, p)
                assert parent[child] == v


class TestOracle:
    def test_advice_decodes_to_children(self, zoo_graph):
        oracle = SpanningTreeWakeupOracle()
        advice = oracle.advise(zoo_graph)
        parent = build_spanning_tree(zoo_graph, "bfs")
        ports = children_port_map(zoo_graph, parent)
        for v in zoo_graph.nodes():
            assert decode_children_ports(advice[v]) == ports[v]

    def test_predicted_size_matches(self, zoo_graph):
        oracle = SpanningTreeWakeupOracle()
        assert oracle.predicted_size(zoo_graph) == oracle.size_on(zoo_graph)

    def test_size_within_analytic_bound(self, zoo_graph):
        oracle = SpanningTreeWakeupOracle()
        n = zoo_graph.num_nodes
        assert oracle.size_on(zoo_graph) <= SpanningTreeWakeupOracle.size_upper_bound(n)

    def test_size_rate_is_n_log_n(self):
        # constant in front of n log n should approach 1 from above
        ratios = []
        for n in (64, 256, 1024):
            g = complete_graph_star(n)
            size = SpanningTreeWakeupOracle().size_on(g)
            ratios.append(size / (n * math.log2(n)))
        assert ratios[0] > ratios[-1]  # decreasing toward 1
        assert ratios[-1] < 1.5

    def test_star_center_gets_everything(self):
        g = star_graph(8)  # center 0 is source, has 7 children
        advice = SpanningTreeWakeupOracle().advise(g)
        assert len(decode_children_ports(advice[0])) == 7
        for leaf in range(1, 8):
            assert len(advice[leaf]) == 0

    def test_leaves_get_empty_advice(self):
        g = path_graph(5)
        advice = SpanningTreeWakeupOracle().advise(g)
        assert len(advice[4]) == 0  # the far endpoint is a leaf

    def test_kinds_give_different_trees_same_bound(self):
        rng = random.Random(11)
        g = random_connected_gnp(24, 0.3, rng)
        sizes = {}
        for kind in ("bfs", "dfs", "random"):
            oracle = SpanningTreeWakeupOracle(kind, seed=5)
            sizes[kind] = oracle.size_on(g)
            assert sizes[kind] <= SpanningTreeWakeupOracle.size_upper_bound(g.num_nodes)
        assert len(sizes) == 3

    def test_name(self):
        assert "dfs" in SpanningTreeWakeupOracle("dfs").name

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_size_bound_random_graphs(self, seed):
        rng = random.Random(seed)
        g = random_connected_gnp(14, 0.35, rng)
        n = g.num_nodes
        assert SpanningTreeWakeupOracle().size_on(g) <= SpanningTreeWakeupOracle.size_upper_bound(n)


#: sha256 over ``bfs``, ``dfs`` and ``random`` of ``advice_to_json`` of
#: Theorem 2.1's oracle and ``list(build_spanning_tree(...).items())``
#: (``random`` draws from ``random.Random(0)``), one per line, per
#: :func:`conftest.pinned_tree_graph`.  Measured with the per-node
#: ``ports`` sort and ``neighbor_via`` walk of the original builder.
SPANNING_TREE_DIGESTS = {
    ("path", 16): "bb5b74de26655ff25e091bbe14b65faac3f8757b4a78e75da184f27917828363",
    ("path", 32): "195c6b5de1a1cf19da18939499d6ad86eb07929b81f544cd62a2d98f4bf89295",
    ("path", 64): "d0d694e690f61a8a938be76e63b973f3b6d99d0be80ebedcb533aeaa3f7945c4",
    ("path", 128): "abd0867b9e8a4dc433387fdff3dba4e351d401895e5de305d959962f97f5ecaf",
    ("path", 256): "6433c3752c090346bd0aefb36079c7e9d5306ce024e2635cecb5d4af3618e0ba",
    ("cycle", 16): "2747c8d46d8a69cde7d761a13e7285a73d7e19fb7614c912a84ad65cbdc304d0",
    ("cycle", 32): "ff0952b16402e0de43af7ddba51f2f065f79d33a4e5e55003023d74e24b4bee9",
    ("cycle", 64): "3688365e1df55fe0100a3e7e528eb063b5e7d0f9c8c72e123e8d29c260e6acf7",
    ("cycle", 128): "c25754ba298e289b4ec7a897e509e69028e4af6a23d19dd324a32f1c71eb524f",
    ("cycle", 256): "9ef7bc3d03e25a2f741e31bb1047d6a903689a154bdc4968fc72076ad1a360bd",
    ("random_tree", 16): "04773b309d8045a913e6b4a7574bf24c84ff31bcfd283606a14fdc1811bea65d",
    ("random_tree", 32): "bde6b2dc8670007eaf04b94722818b5c0d44f1ad0c5c1971922e7e9a4a996e28",
    ("random_tree", 64): "29eb5e5d249a01bcdeb554a601e267be939817e3e6f63fcf2f7b6b21ccfb1b1a",
    ("random_tree", 128): "303e8967f53d3e76f9910b2403b99de3352b27b1dab732dd506a2e154bff2582",
    ("random_tree", 256): "a7413bb4ceafc828b21d05dbe77e6e799ff1816bf8dfaa9102a474094fc47422",
    ("gnp_sparse", 16): "3db0f63998f6ed9076f17d4146143365cefa74ab27aa3f0e3248d791b27e2844",
    ("gnp_sparse", 32): "61a5b33706f080bfd2f4662ea5f1f000b41fcb4baf5d89c98d4438da10d16d33",
    ("gnp_sparse", 64): "be2e599c224847f637adfdad52d326118f365e5ed0647e94dbd1c4ffb00b9a69",
    ("gnp_sparse", 128): "a92f775d42c3e1b41685b68c912397d3007ddb08279e3fd7e843b1b21c8982b9",
    ("gnp_sparse", 256): "5dd7fb1769d91a24165e05ba5a475d2223efb3d8b1434668b3766b726b7d52a3",
    ("gnp_dense", 16): "f6ec54e90cbad654e9c4452f5f5caa4caad89d23e80ab149aa0af475e78ad927",
    ("gnp_dense", 32): "27f52e0629bd42ea188447949c08d3a614e9f97bd28cc09b2dbcce386a7cd68f",
    ("gnp_dense", 64): "6dcbc64c3f6fea31203bb8606c39ae1ca03ed4d15b6f3492f001874da7cc00cd",
    ("gnp_dense", 128): "39b0f2463c6868f5d33e88338be0902c20e6bdd742a3ede59ad4ad7b496725e5",
    ("gnp_dense", 256): "1a16d8bee181791446cb8662f820369f49a6425ad43cfbd13cbff46f526319c5",
    ("complete", 16): "e818e73215a2c7ef8658b5a980b8c87e285a884052730dd1980a00d4086d6d72",
    ("complete", 32): "faeca76df158520cc925846541f46d71b21ab30d73327eca499d67aef9cbe966",
    ("complete", 64): "29598b44f3d9c7c78cb028b40125f7790a9861bc4d0517515c283bd5cff68399",
    ("complete", 128): "b9847ce543f8d65e1f77683bc56a1e345262dd0d7665dc7aa5be72506ad2c15f",
    ("complete", 256): "0ad4e9bea5004f6fb2381acbde7129fd94b95b802e3e1c21868c970721df1516",
    ("subdivision", 1): "eddd61b14f151febb58f26ee6e2a6df257055cf44eb21c6be263f38ee1f36152",
    ("subdivision", 2): "49c800d10c4ff44f16e934c5af52eb8390d9fa3632b2b0cbd309bce54cfe80ba",
    ("clique", 1): "1840df9ea2c2304676d6bad6a374069a9f0bb9b18ca4f9851eaf388b8a742d08",
    ("clique", 2): "1cd9fc54b511de13a1f59ce2de922e79fcda541d8b42ece8a6eb558d9fd3d0ef",
}


class TestPinnedSpanningTrees:
    @pytest.mark.parametrize("family,n", sorted(SPANNING_TREE_DIGESTS))
    def test_trees_and_advice_are_pinned(self, family, n):
        g = pinned_tree_graph(family, n)
        parts = []
        for kind in ("bfs", "dfs", "random"):
            parts.append(advice_to_json(SpanningTreeWakeupOracle(kind).advise(g)))
            rng = random.Random(0) if kind == "random" else None
            parts.append(repr(list(build_spanning_tree(g, kind, rng).items())))
        text = "\n".join(parts)
        assert hashlib.sha256(text.encode()).hexdigest() == SPANNING_TREE_DIGESTS[family, n]


def _reference_build_spanning_tree(graph, kind="bfs", rng=None):
    """The original builder: a ``ports`` sort and ``neighbor_via`` per node."""
    root = graph.source
    parent = {root: None}

    def neighbor_order(v):
        nbrs = [graph.neighbor_via(v, p) for p in graph.ports(v)]
        if kind == "random":
            if rng is None:
                raise GraphError("kind='random' requires an rng")
            rng.shuffle(nbrs)
        return nbrs

    if kind in ("bfs", "random"):
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in neighbor_order(u):
                    if w not in parent:
                        parent[w] = u
                        nxt.append(w)
            frontier = nxt
    elif kind == "dfs":
        stack = [(root, None)]
        visited = set()
        while stack:
            u, via = stack.pop()
            if u in visited:
                continue
            visited.add(u)
            if via is not None:
                parent[u] = via
            for w in reversed(neighbor_order(u)):
                if w not in visited:
                    stack.append((w, u))
    else:
        raise GraphError(f"unknown spanning tree kind {kind!r}")
    if len(parent) != graph.num_nodes:
        raise GraphError("graph is not connected")
    return parent


def _assert_matches_reference(graph, seed=0):
    for kind in ("bfs", "dfs", "random"):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = build_spanning_tree(graph, kind, got_rng)
        want = _reference_build_spanning_tree(graph, kind, want_rng)
        assert list(got.items()) == list(want.items()), kind
        assert got_rng.getstate() == want_rng.getstate(), kind


class TestAgainstReference:
    """The compiled-table walk returns the original parent dicts and draws."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=0.02, max_value=1.0),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_random_port_gnp(self, n, p, seed):
        g = random_connected_gnp(n, p, port_order="random", seed=seed)
        _assert_matches_reference(g, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_tuple_labels(self, seed):
        _assert_matches_reference(grid_graph(4, 5, port_order="random", rng=random.Random(seed)), seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_string_labels(self, seed):
        nxg = nx.relabel_nodes(nx.gnp_random_graph(24, 0.3, seed=seed), lambda v: f"v{v}")
        nxg.add_edges_from((f"v{v}", f"v{v + 1}") for v in range(23))
        g = PortLabeledGraph.from_networkx(nxg, port_order="random", rng=random.Random(seed))
        _assert_matches_reference(g.freeze(), seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_gadget_families(self, seed):
        _assert_matches_reference(subdivision_family_graph(16, sample_edge_tuple(16, 16, seed=seed)), seed)
        _assert_matches_reference(clique_family_graph(16, 4, seed=seed)[0], seed)

    def test_zoo(self, zoo_graph):
        _assert_matches_reference(zoo_graph)

    def test_unfrozen_input(self, zoo_graph):
        g = zoo_graph.copy()
        _assert_matches_reference(g)
        assert not g.frozen

    def test_unfrozen_disconnected_input(self):
        g = PortLabeledGraph()
        for v in range(4):
            g.add_node(v)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        g.set_source(0)
        for kind in ("bfs", "dfs"):
            messages = []
            for build in (build_spanning_tree, _reference_build_spanning_tree):
                with pytest.raises(GraphError) as info:
                    build(g, kind)
                messages.append(str(info.value))
            assert messages == ["graph is not connected"] * 2
