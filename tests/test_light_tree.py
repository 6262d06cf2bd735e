"""Tests for Claim 3.1's light spanning tree and Theorem 3.1's oracle."""

import hashlib
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pinned_tree_graph
from repro.core.oracle import advice_to_json
from repro.encoding import code_length, decode_weight_list
from repro.network import (
    GraphError,
    PortLabeledGraph,
    clique_family_graph,
    complete_graph_star,
    edge_key,
    grid_graph,
    random_connected_gnp,
    sample_edge_tuple,
    subdivision_family_graph,
)
from repro.oracles import (
    LightTreeBroadcastOracle,
    assign_weight_advice,
    edge_contribution,
    light_spanning_tree,
    tree_contribution,
)


def is_spanning_tree(graph, edges):
    g = nx.Graph()
    g.add_nodes_from(graph.nodes())
    g.add_edges_from(edges)
    return g.number_of_edges() == graph.num_nodes - 1 and nx.is_connected(g)


class TestLightSpanningTree:
    def test_is_spanning_tree(self, zoo_graph):
        tree = light_spanning_tree(zoo_graph)
        assert is_spanning_tree(zoo_graph, tree)

    def test_edges_exist(self, zoo_graph):
        for u, v in light_spanning_tree(zoo_graph):
            assert zoo_graph.has_edge(u, v)

    def test_claim31_bound(self, zoo_graph):
        tree = light_spanning_tree(zoo_graph)
        n = zoo_graph.num_nodes
        assert tree_contribution(zoo_graph, tree) <= 4 * n

    def test_deterministic(self, k5):
        assert light_spanning_tree(k5) == light_spanning_tree(k5)

    def test_single_edge_graph(self):
        g = PortLabeledGraph()
        g.add_node(0)
        g.add_node(1)
        g.add_edge(0, 1)
        g.set_source(0)
        assert light_spanning_tree(g.freeze()) == {(0, 1)}

    def test_adversarial_ports(self):
        # random port permutations (high-weight tree edges possible):
        # the bound must hold regardless of the labeling
        for seed in range(6):
            rng = random.Random(seed)
            g = random_connected_gnp(20, 0.4, rng, port_order="random")
            tree = light_spanning_tree(g)
            assert is_spanning_tree(g, tree)
            assert tree_contribution(g, tree) <= 4 * g.num_nodes

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=4, max_value=24),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_claim31_property(self, n, seed):
        rng = random.Random(seed)
        g = random_connected_gnp(n, 0.4, rng, port_order="random")
        tree = light_spanning_tree(g)
        assert is_spanning_tree(g, tree)
        assert tree_contribution(g, tree) <= 4 * g.num_nodes


class TestContribution:
    def test_edge_contribution_is_code_length_of_min_port(self, k5):
        for u, v in k5.edges():
            w = min(k5.port(u, v), k5.port(v, u))
            assert edge_contribution(k5, u, v) == code_length(w)

    def test_tree_contribution_sums(self, k5):
        edges = list(light_spanning_tree(k5))
        assert tree_contribution(k5, edges) == sum(
            edge_contribution(k5, u, v) for u, v in edges
        )


class TestWeightAdvice:
    def test_weights_are_local_ports(self, zoo_graph):
        tree = light_spanning_tree(zoo_graph)
        weights = assign_weight_advice(zoo_graph, tree)
        for x, ws in weights.items():
            local_ports = set(zoo_graph.ports(x))
            for w in ws:
                assert w in local_ports  # interpretable as the node's own port

    def test_each_edge_assigned_once(self, zoo_graph):
        tree = light_spanning_tree(zoo_graph)
        weights = assign_weight_advice(zoo_graph, tree)
        assert sum(len(ws) for ws in weights.values()) == len(tree)

    def test_assigned_port_leads_along_tree_edge(self, zoo_graph):
        tree = light_spanning_tree(zoo_graph)
        weights = assign_weight_advice(zoo_graph, tree)
        tree_set = set(tree)
        for x, ws in weights.items():
            for w in ws:
                neighbor = zoo_graph.neighbor_via(x, w)
                key = (x, neighbor) if repr(x) <= repr(neighbor) else (neighbor, x)
                from repro.network import edge_key

                assert edge_key(x, neighbor) in tree_set

    def test_weights_distinct_per_node(self, zoo_graph):
        # weights at a node are its own port numbers, hence distinct
        weights = assign_weight_advice(zoo_graph, light_spanning_tree(zoo_graph))
        for ws in weights.values():
            assert len(set(ws)) == len(ws)


class TestOracle:
    def test_size_bound_8n(self, zoo_graph):
        oracle = LightTreeBroadcastOracle()
        assert oracle.size_on(zoo_graph) <= 8 * zoo_graph.num_nodes

    def test_size_is_twice_contribution(self, zoo_graph):
        oracle = LightTreeBroadcastOracle()
        assert oracle.size_on(zoo_graph) == 2 * oracle.contribution(zoo_graph)

    def test_contribution_bound(self, zoo_graph):
        oracle = LightTreeBroadcastOracle()
        assert oracle.contribution(zoo_graph) <= 4 * zoo_graph.num_nodes

    def test_advice_decodes(self, k5):
        oracle = LightTreeBroadcastOracle()
        advice = oracle.advise(k5)
        weights = assign_weight_advice(k5, light_spanning_tree(k5))
        for x, ws in weights.items():
            assert decode_weight_list(advice[x]) == ws

    def test_linear_rate_on_complete_graphs(self):
        sizes = []
        for n in (32, 128, 512):
            g = complete_graph_star(n)
            sizes.append(LightTreeBroadcastOracle().size_on(g) / n)
        # bits per node stays bounded (Theta(n) total)
        assert max(sizes) <= 8
        assert max(sizes) - min(sizes) < 1.0

    def test_static_bound_helper(self):
        assert LightTreeBroadcastOracle.size_upper_bound(100) == 800


#: sha256 of the light tree's sorted edge reprs, a blank line, and
#: ``advice_to_json`` of Theorem 3.1's oracle, per
#: :func:`conftest.pinned_tree_graph`.  Measured with the dict-keyed
#: union-find and per-edge ``repr`` tie-breaks of the original scan.
LIGHT_TREE_DIGESTS = {
    ("path", 16): "88b726e493d1f1ae352531ba9b82a8cc44b65f534b5b3824c51d8df3b93d4efb",
    ("path", 32): "2652d3a0227cc0ee4a1b96254d31c8b9ab65b6ccc475d598033ee7c88a9d3d57",
    ("path", 64): "348a2df3489659bfa9f4aef36d27b8b2b8558fea862b6375b1bff2fe3bf57444",
    ("path", 128): "8dbdd40b3d91ce268e3021f310ada66e199921e67a7e3ec1aedc510478e60d48",
    ("path", 256): "aceca7c7bebf3ebaad5bd7e74177500a2dc94c291b59ed08faefcc75fa238e52",
    ("cycle", 16): "03104d092d305dee9aa8090473005435def604ee08d2a900fa15001e0b5d8b77",
    ("cycle", 32): "726310e4305ab2e5bef79d64ca751af8ceb2781bd94a614814c95b4342dade9c",
    ("cycle", 64): "d614de667845431bb20273fd7133d743303b2445805b670435d503adb7bed06a",
    ("cycle", 128): "a3ddad675180a857335768fc6b454172bb1457593e61d95a2f232c38ba0457ce",
    ("cycle", 256): "f2df66a60cf0fd54753bb79e311ed4f70f1502502611966929b88e70b1400e17",
    ("random_tree", 16): "3950d4e865dfe6ff329a3447f5cbc0bfa8b6377dd33a6d66c54ca4ce5b8c9798",
    ("random_tree", 32): "ac71fe58ad86ba0fce9547e2cc927678d1481343907a826245c246d64c028bf6",
    ("random_tree", 64): "a553698276c4c67835843f2b17e9263a66de44e2ffa3dbd864c33a610be085ef",
    ("random_tree", 128): "7b233a217af43bc76c92d18ea0464a5b6ee5cf821b4c0d0a3ffd6b5635339dbe",
    ("random_tree", 256): "27de88d1ad336c1d00f3d389a5c476d720ae6dd70819b9bf43c448ff953a7592",
    ("gnp_sparse", 16): "ad1c0f233df36da286bf8e71c5a3619fe0eb1c7788abe6caa2e61ce7e0111ec4",
    ("gnp_sparse", 32): "cc34190fe816928ce713dea265741dcc632edac9d34b661a1ed1429987569c21",
    ("gnp_sparse", 64): "9cb152997844b32b74e9506e72cca3602e3df3b2468c324897e70a966ec39032",
    ("gnp_sparse", 128): "a02b1f85b00913fb558203252f4cb2b8e458797ec05867dcbfc8a153bb79162e",
    ("gnp_sparse", 256): "49200e0cc289c5b2677c5d7505f0515be2500d380bbd97fd9300addb4ea5e3b9",
    ("gnp_dense", 16): "00f11d8c034c3ff12705c9d8e5574247b7c8a93e78c7e58df959583afbb1c17e",
    ("gnp_dense", 32): "89dcb88b896aa48a8892f853740517f94b2608cfc175cdd309460584152183d8",
    ("gnp_dense", 64): "da015b58b7f238978580a99e09d4b8a969779ca87623241beeac1a028e541b16",
    ("gnp_dense", 128): "599df5f494dac3d56e8b02bf9c4876547b2a57a2a698ff116283374d7926d485",
    ("gnp_dense", 256): "69e506ff3cefa86092aefbc36083521f53f396734d8c62f92d8c39093ccac6b5",
    ("complete", 16): "e6741cf5fe86fc75bbab144d85ebfc92dda4c92020a9cebb213a3b2799fe11f5",
    ("complete", 32): "4057e87067b2b41ad9de8e95c77cce59cd3945e7e5a9aa22f8d59fe469fb7abb",
    ("complete", 64): "ba5ec62350d255ededccda0fca73b75ecb397812312be3f032136676da90593e",
    ("complete", 128): "0b413603bce97ad7dcdda46e571e1131106ed623ff20b2a614c59753dcfd4076",
    ("complete", 256): "5ee9325456246ae3c5e5314234ba1867f8c7e0ff52f02deeac70f126a5742ec7",
    ("subdivision", 1): "fd2f4af2de5d331de7cb0e545f7c11315f623016a6315b2f4648631573a32169",
    ("subdivision", 2): "8f769b00725047db718cec38fafc9f93853955cdf78f1e9c271d9b369396bb23",
    ("clique", 1): "c89f8c8199429d1f9335ca919343cc39f8ca005412c0349feafcbb83d6c39237",
    ("clique", 2): "0239b1bd6fa93b19ac9925977e16f492b9dc96064fda344bf4fa20b5ae8bdcc3",
}


class TestPinnedLightTrees:
    @pytest.mark.parametrize("family,n", sorted(LIGHT_TREE_DIGESTS))
    def test_tree_and_advice_are_pinned(self, family, n):
        g = pinned_tree_graph(family, n)
        tree = "\n".join(sorted(repr(e) for e in light_spanning_tree(g)))
        advice = advice_to_json(LightTreeBroadcastOracle().advise(g))
        text = tree + "\n\n" + advice
        assert hashlib.sha256(text.encode()).hexdigest() == LIGHT_TREE_DIGESTS[family, n]


class _ReferenceDisjointSets:
    """The dict-keyed union-find of the original light-tree scan."""

    def __init__(self, nodes):
        self._parent = {v: v for v in nodes}
        self._size = {v: 1 for v in self._parent}
        self._members = {v: [v] for v in self._parent}

    def find(self, v):
        root = v
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[v] != root:
            self._parent[v], v = root, self._parent[v]
        return root

    def union(self, u, v):
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        if self._size[ru] < self._size[rv]:
            ru, rv = rv, ru
        self._parent[rv] = ru
        self._size[ru] += self._size[rv]
        self._members[ru].extend(self._members.pop(rv))
        return True

    def roots(self):
        return list(self._members)


def _reference_light_spanning_tree(graph):
    """The original scan: an ``edge_weight`` and a ``repr`` per candidate."""
    n = graph.num_nodes
    if n == 1:
        return set()
    dsu = _ReferenceDisjointSets(graph.nodes())
    tree = set()
    phase = 1
    while len(dsu.roots()) > 1:
        threshold = 1 << phase
        selected = []
        for root in dsu.roots():
            if dsu._size[root] >= threshold:
                continue
            best = None
            for x in dsu._members[root]:
                for y in graph.neighbors(x):
                    if dsu.find(y) == root:
                        continue
                    w = graph.edge_weight(x, y)
                    key = (w, repr(edge_key(x, y)), edge_key(x, y))
                    if best is None or key[:2] < best[:2]:
                        best = key
            if best is None:
                raise GraphError("graph is not connected")
            selected.append(best)
        for __, __, (u, v) in sorted(selected, key=lambda t: (t[0], t[1])):
            if dsu.union(u, v):
                tree.add(edge_key(u, v))
        phase += 1
    return tree


def _relabeled(graph, name):
    """``graph`` with every label ``v`` renamed ``name(v)``, ports kept."""
    out = PortLabeledGraph()
    for v in graph.nodes():
        out.add_node(name(v))
    for u, v in graph.edges():
        out.add_edge(name(u), name(v), port_u=graph.port(u, v), port_v=graph.port(v, u))
    out.set_source(name(graph.source))
    return out.freeze()


def _assert_matches_reference(graph):
    assert light_spanning_tree(graph) == _reference_light_spanning_tree(graph)


class TestAgainstReference:
    """The compiled-table scan returns the original scan's tree."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=0.02, max_value=1.0),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_random_port_gnp(self, n, p, seed):
        _assert_matches_reference(random_connected_gnp(n, p, port_order="random", seed=seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_tuple_labels(self, seed):
        _assert_matches_reference(grid_graph(4, 5, port_order="random", rng=random.Random(seed)))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "name", (lambda v: f"v{v}", lambda v: v if v % 2 else f"s{v}"), ids=("str", "mixed")
    )
    def test_string_labels(self, name, seed):
        g = random_connected_gnp(24, 0.3, port_order="random", seed=seed)
        _assert_matches_reference(_relabeled(g, name))

    @pytest.mark.parametrize("seed", range(3))
    def test_gadget_families(self, seed):
        _assert_matches_reference(subdivision_family_graph(16, sample_edge_tuple(16, 16, seed=seed)))
        _assert_matches_reference(clique_family_graph(16, 4, seed=seed)[0])

    def test_zoo(self, zoo_graph):
        _assert_matches_reference(zoo_graph)

    def test_unfrozen_input(self, zoo_graph):
        g = zoo_graph.copy()
        assert light_spanning_tree(g) == _reference_light_spanning_tree(g)
        assert not g.frozen

    def test_unfrozen_disconnected_input(self):
        g = PortLabeledGraph()
        for v in range(4):
            g.add_node(v)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        g.set_source(0)
        messages = []
        for build in (light_spanning_tree, _reference_light_spanning_tree):
            with pytest.raises(GraphError) as info:
                build(g)
            messages.append(str(info.value))
        assert messages == ["graph is not connected"] * 2
