"""Tests for the stock topology builders."""

import hashlib
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    FAMILY_BUILDERS,
    GraphError,
    balanced_tree,
    complete_bipartite,
    complete_graph_star,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    random_connected_gnp,
    random_regular,
    random_tree,
    star_graph,
    to_json,
)


class TestCompleteGraphStar:
    def test_basic_shape(self):
        g = complete_graph_star(5)
        assert g.num_nodes == 5
        assert g.num_edges == 10
        assert g.source == 1
        assert g.frozen

    def test_rotational_ports_are_canonical(self):
        # port at i towards j is (j - i - 1) mod n
        g = complete_graph_star(6)
        for i in range(1, 7):
            for j in range(1, 7):
                if i != j:
                    assert g.port(i, j) == (j - i - 1) % 6

    @given(st.integers(min_value=2, max_value=24))
    def test_ports_bijective_for_all_n(self, n):
        g = complete_graph_star(n)
        for v in g.nodes():
            assert sorted(g.ports(v)) == list(range(n - 1))

    def test_too_small(self):
        with pytest.raises(GraphError):
            complete_graph_star(1)


class TestBasicFamilies:
    def test_path(self):
        g = path_graph(5)
        assert g.num_nodes == 5
        assert g.num_edges == 4
        assert g.degree(0) == 1
        assert g.degree(2) == 2

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.num_edges == 6
        assert all(g.degree(v) == 2 for v in g.nodes())

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_star_center_source(self):
        g = star_graph(7)
        assert g.num_nodes == 7
        assert g.degree(0) == 6
        assert g.source == 0

    def test_star_leaf_source(self):
        g = star_graph(7, center_source=False)
        assert g.source == 1

    def test_complete_bipartite(self):
        g = complete_bipartite(3, 4)
        assert g.num_nodes == 7
        assert g.num_edges == 12

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.num_nodes == 12
        assert g.num_edges == 3 * 3 + 2 * 4
        assert g.source == (0, 0)

    def test_hypercube(self):
        g = hypercube_graph(4)
        assert g.num_nodes == 16
        assert all(g.degree(v) == 4 for v in g.nodes())

    def test_balanced_tree(self):
        g = balanced_tree(2, 3)
        assert g.num_nodes == 15
        assert g.num_edges == 14

    def test_invalid_parameters(self):
        with pytest.raises(GraphError):
            grid_graph(0, 3)
        with pytest.raises(GraphError):
            hypercube_graph(0)
        with pytest.raises(GraphError):
            star_graph(1)
        with pytest.raises(GraphError):
            complete_bipartite(0, 2)
        with pytest.raises(GraphError):
            balanced_tree(0, 1)


class TestRandomFamilies:
    def test_random_tree_is_tree(self):
        for seed in range(5):
            g = random_tree(12, random.Random(seed))
            assert g.num_edges == g.num_nodes - 1

    def test_random_tree_reproducible(self):
        a = random_tree(10, random.Random(7))
        b = random_tree(10, random.Random(7))
        assert set(a.edges()) == set(b.edges())

    def test_random_tree_too_small(self):
        with pytest.raises(GraphError):
            random_tree(1, random.Random(0))

    def test_gnp_connected(self):
        for seed in range(5):
            g = random_connected_gnp(20, 0.2, random.Random(seed))
            assert g.num_nodes == 20
            g.validate()

    def test_gnp_low_p_still_connected(self):
        # the fallback path: p so low the raw sample is never connected
        g = random_connected_gnp(30, 0.01, random.Random(1), max_tries=3)
        g.validate()

    def test_gnp_invalid_p(self):
        with pytest.raises(GraphError):
            random_connected_gnp(5, 1.5, random.Random(0))

    def test_gnp_needs_a_try(self):
        with pytest.raises(GraphError, match="max_tries"):
            random_connected_gnp(5, 0.5, random.Random(0), max_tries=0)

    def test_random_regular(self):
        g = random_regular(12, 3, random.Random(2))
        assert all(g.degree(v) == 3 for v in g.nodes())

    def test_random_regular_parity(self):
        with pytest.raises(GraphError):
            random_regular(7, 3, random.Random(0))

    def test_random_regular_degree_too_big(self):
        with pytest.raises(GraphError):
            random_regular(4, 4, random.Random(0))

    def test_random_regular_negative_degree(self):
        with pytest.raises(GraphError, match="degree"):
            random_regular(6, -2, random.Random(0))

    def test_random_port_order(self):
        sorted_g = random_connected_gnp(15, 0.4, random.Random(5))
        shuffled = random_connected_gnp(15, 0.4, random.Random(5), port_order="random")
        shuffled.validate()
        assert set(sorted_g.edges()) == set(shuffled.edges())


def _reference_gnp(n, p, rng, port_order="sorted", max_tries=200):
    """The per-try networkx loop ``random_connected_gnp`` must replay."""
    from repro.network.builders import _finish

    for __ in range(max_tries):
        g = nx.gnp_random_graph(n, p, seed=rng.randrange(2**32))
        if nx.is_connected(g):
            return _finish(g, source=0, port_order=port_order, rng=rng)
    order = list(g.nodes())
    rng.shuffle(order)
    for prev, cur in zip(order, order[1:]):
        if not nx.has_path(g, prev, cur):
            g.add_edge(prev, cur)
    return _finish(g, source=0, port_order=port_order, rng=rng)


def _insertion_order(g):
    return list(g.nodes()), [list(g.neighbors(v)) for v in g.nodes()]


def _digest(g):
    return hashlib.sha256(to_json(g).encode()).hexdigest()


#: sha256 of ``to_json(FAMILY_BUILDERS[family](n))``, measured with the
#: per-try networkx loop.
GNP_DIGESTS = {
    ("gnp_sparse", 8): "598e629e6851f0c26f62dd1e20e794bbf0ba57ff72385cd5b3a2d0cbf035d134",
    ("gnp_sparse", 16): "cf2d53004186e46df162f82d5671d50aea9b655b3eeaec1e2059099bc9704798",
    ("gnp_sparse", 24): "163a1802557ca6962dfa8a1b26816e15ab33102335f1f2179a283819166076a4",
    ("gnp_sparse", 32): "3a4504f5654e015070e500a5a48be5f727f10d08852541ebe96cbec9a7630101",
    ("gnp_sparse", 64): "279bec405b02090e7c18ec35c4dee3bf643458deb9557ae84299fe02944e8a1c",
    ("gnp_sparse", 128): "88647fbae49e8d65b6a21eab96609b719debcdba3b388464cba9629a5a7dc013",
    ("gnp_sparse", 256): "cf56088e1cde636d27c72cad19b69fb93280ebceac8832e99b61eaa46065c368",
    ("gnp_sparse", 2000): "177add1776b185720776996171424cf69f667661d329c6873269e8112ddc7466",
    ("gnp_dense", 8): "80d543573b88a6fa6c0f7363645a35666a29e9230d3a51d33ac1ab3556bec0d5",
    ("gnp_dense", 16): "fc4528e94e3eb92f9d140ffd06ea3ab126cf85d0eb5399e42bc06fb2e08ebb89",
    ("gnp_dense", 24): "44c5ebb3ef4cc0bc31a807e038398796ef45fb56b516becba49e2d21d7c4625a",
    ("gnp_dense", 32): "b32482268cfbcef7f0e86ca05181026af4c7c05ea37645e0c79c3ccaeb77e003",
    ("gnp_dense", 64): "aa97b10579772819bf504e8307222f8cb86a8f3963e42d7e1e64edb7cc198d9d",
    ("gnp_dense", 128): "807a4d97aa59bef66ab1393fdcfab39fa9af1f6a1868647db79314a8ab553622",
    ("gnp_dense", 256): "f00774a6d977d78f0aeef953292f89e8416da46b956731afc03bb40fb53545ef",
}


class TestGnpReplaysNetworkx:
    """``random_connected_gnp`` returns the networkx loop's graph and rng state."""

    @pytest.mark.parametrize("n", (2, 3, 4, 8, 16, 47, 64))
    @pytest.mark.parametrize("p", ("0", "1e-9", "3/(n-1)", "0.5", "1-1e-9", "1"))
    def test_matches_reference(self, n, p):
        prob = {"0": 0.0, "1e-9": 1e-9, "3/(n-1)": min(1.0, 3 / (n - 1)),
                "0.5": 0.5, "1-1e-9": 1 - 1e-9, "1": 1.0}[p]
        for k, (max_tries, port_order) in enumerate(
            (t, o) for t in (1, 3, 200) for o in ("sorted", "random")
        ):
            case = f"n={n} p={p} max_tries={max_tries} port_order={port_order}"
            ours, theirs = random.Random(1000 * n + k), random.Random(1000 * n + k)
            got = random_connected_gnp(n, prob, ours, port_order=port_order, max_tries=max_tries)
            want = _reference_gnp(n, prob, theirs, port_order=port_order, max_tries=max_tries)
            assert _digest(got) == _digest(want), case
            assert _insertion_order(got) == _insertion_order(want), case
            assert ours.getstate() == theirs.getstate(), case
            assert ours.random() == theirs.random(), case

    @pytest.mark.parametrize("family,n", sorted(GNP_DIGESTS))
    def test_family_digests_are_pinned(self, family, n):
        assert _digest(FAMILY_BUILDERS[family](n)) == GNP_DIGESTS[family, n]


class TestFamilyRegistry:
    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_every_family_builds_and_validates(self, family):
        g = FAMILY_BUILDERS[family](16)
        g.validate()
        assert g.num_nodes >= 3

    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_families_reproducible(self, family):
        a = FAMILY_BUILDERS[family](20)
        b = FAMILY_BUILDERS[family](20)
        assert set(a.edges()) == set(b.edges())

    def test_family_sizes_scale(self):
        for family in sorted(FAMILY_BUILDERS):
            small = FAMILY_BUILDERS[family](16).num_nodes
            large = FAMILY_BUILDERS[family](64).num_nodes
            assert large > small


class TestExtraFamilies:
    def test_lollipop(self):
        from repro.network import lollipop_graph

        g = lollipop_graph(5, 4)
        assert g.num_nodes == 9
        assert g.num_edges == 5 * 4 // 2 + 4
        g.validate()

    def test_lollipop_tail_source(self):
        from repro.network import lollipop_graph

        g = lollipop_graph(4, 3, source_in_clique=False)
        assert g.degree(g.source) == 1

    def test_lollipop_invalid(self):
        from repro.network import lollipop_graph

        with pytest.raises(GraphError):
            lollipop_graph(2, 1)

    def test_barbell(self):
        from repro.network import barbell_graph

        g = barbell_graph(4, 2)
        assert g.num_nodes == 10
        g.validate()

    def test_barbell_invalid(self):
        from repro.network import barbell_graph

        with pytest.raises(GraphError):
            barbell_graph(2, 0)

    def test_wheel(self):
        from repro.network import wheel_graph

        g = wheel_graph(8)
        assert g.num_nodes == 8
        assert g.degree(0) == 7  # hub
        g.validate()

    def test_wheel_center_source(self):
        from repro.network import wheel_graph

        assert wheel_graph(6, center_source=True).source == 0

    def test_wheel_invalid(self):
        from repro.network import wheel_graph

        with pytest.raises(GraphError):
            wheel_graph(3)

    def test_caterpillar(self):
        from repro.network import caterpillar_graph

        g = caterpillar_graph(4, 2)
        assert g.num_nodes == 4 + 8
        assert g.num_edges == 3 + 8
        g.validate()

    def test_caterpillar_no_legs(self):
        from repro.network import caterpillar_graph

        g = caterpillar_graph(5, 0)
        assert g.num_nodes == 5

    def test_caterpillar_invalid(self):
        from repro.network import caterpillar_graph

        with pytest.raises(GraphError):
            caterpillar_graph(1, 2)

    @pytest.mark.parametrize("family", ("lollipop", "barbell", "wheel", "caterpillar"))
    def test_new_families_run_both_theorems(self, family):
        from repro.algorithms import SchemeB, TreeWakeup
        from repro.core import run_broadcast, run_wakeup
        from repro.oracles import LightTreeBroadcastOracle, SpanningTreeWakeupOracle

        g = FAMILY_BUILDERS[family](20)
        w = run_wakeup(g, SpanningTreeWakeupOracle(), TreeWakeup())
        b = run_broadcast(g, LightTreeBroadcastOracle(), SchemeB())
        assert w.success and w.messages == g.num_nodes - 1
        assert b.success and b.messages <= 2 * (g.num_nodes - 1)


class TestSeededRandomBuilders:
    """Random builders take an explicit rng or seed — never module state."""

    def test_seed_parameter_reproduces_exactly(self):
        from repro.network import to_json

        for builder in (
            lambda **kw: random_tree(12, **kw),
            lambda **kw: random_connected_gnp(12, 0.4, **kw),
            lambda **kw: random_regular(10, 3, **kw),
        ):
            assert to_json(builder(seed=77)) == to_json(builder(seed=77))

    def test_seed_is_equivalent_to_explicit_rng(self):
        from repro.network import to_json

        assert to_json(random_tree(15, seed=5)) == to_json(
            random_tree(15, random.Random(5))
        )

    def test_default_seed_makes_bare_calls_deterministic(self):
        from repro.network import to_json

        assert to_json(random_tree(9)) == to_json(random_tree(9))

    def test_family_builder_seeds_are_backward_compatible(self):
        # The historical per-n seeds (10_000 + n etc.) must keep producing
        # the exact same graphs now that they are passed as seed=.
        from repro.network import to_json

        assert to_json(FAMILY_BUILDERS["random_tree"](14)) == to_json(
            random_tree(14, random.Random(10_014))
        )
        assert to_json(FAMILY_BUILDERS["gnp_dense"](12)) == to_json(
            random_connected_gnp(12, 0.5, random.Random(30_012))
        )

    def test_construction_samplers_accept_seed(self):
        from repro.network import sample_clique_choices, sample_edge_tuple

        assert sample_edge_tuple(8, 5, seed=3) == sample_edge_tuple(8, 5, seed=3)
        assert sample_edge_tuple(8, 5, seed=3) == sample_edge_tuple(
            8, 5, random.Random(3)
        )
        assert sample_clique_choices(4, 4, seed=9) == sample_clique_choices(
            4, 4, seed=9
        )

    def test_clique_family_graph_accepts_seed(self):
        from repro.network import clique_family_graph, to_json

        g1, s1, c1 = clique_family_graph(12, 4, seed=21)
        g2, s2, c2 = clique_family_graph(12, 4, seed=21)
        assert (s1, c1) == (s2, c2)
        assert to_json(g1) == to_json(g2)
