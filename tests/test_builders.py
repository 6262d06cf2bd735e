"""Tests for the stock topology builders."""

import hashlib
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastpath import compiled_topology
from repro.network import (
    FAMILY_BUILDERS,
    GraphError,
    PortLabeledGraph,
    all_connected_edge_sets,
    balanced_tree,
    barbell_graph,
    caterpillar_graph,
    complete_bipartite,
    complete_graph_star,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    lollipop_graph,
    path_graph,
    random_connected_gnp,
    random_regular,
    random_tree,
    star_graph,
    to_json,
    wheel_graph,
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


def _reference_complete_graph_star(n):
    """K*_n from the original ``add_edge`` loop over ``i < j``."""
    g = PortLabeledGraph()
    for i in range(1, n + 1):
        g.add_node(i)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            g.add_edge(i, j, port_u=(j - i - 1) % n, port_v=(i - j - 1) % n)
    g.set_source(1)
    return g.freeze()


class TestCompleteGraphStarReference:
    """``from_port_rows`` rebuilds the ``add_edge`` loop's graph exactly."""

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 8, 17, 64))
    def test_same_maps_in_same_order(self, n):
        got, want = complete_graph_star(n), _reference_complete_graph_star(n)
        assert to_json(got) == to_json(want)
        assert list(got.nodes()) == list(want.nodes())
        for v in want.nodes():
            assert list(got._neighbor_to_port[v].items()) == list(want._neighbor_to_port[v].items())
        topo, ref = compiled_topology(got), compiled_topology(want)
        assert (topo.neighbor_at, topo.arrival_at) == (ref.neighbor_at, ref.arrival_at)


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

    def test_hypercube_of_dimension_one_is_an_edge(self):
        g = hypercube_graph(1)
        assert (list(g.edges()), g.source) == ([(0, 1)], 0)

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
    for __ in range(max_tries):
        g = nx.gnp_random_graph(n, p, seed=rng.randrange(2**32))
        if nx.is_connected(g):
            return _from_nx(g, 0, port_order, rng)
    order = list(g.nodes())
    rng.shuffle(order)
    for prev, cur in zip(order, order[1:]):
        if not nx.has_path(g, prev, cur):
            g.add_edge(prev, cur)
    return _from_nx(g, 0, port_order, rng)


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


def _order_digest(g):
    return hashlib.sha256(repr(_insertion_order(g)).encode()).hexdigest()


#: ``(sha256 of to_json, sha256 of _insertion_order)`` per deterministic
#: family, measured with ``complete_graph_star``'s ``add_edge`` loop and
#: ``from_networkx``'s per-call ``label_key`` sorts.
BUILDER_DIGESTS = {
    ("complete", 2): ("10dc3a8b6bcb567278c82fa08cfa7a0d9af005731ab2232d675f2270f3386a11", "4738d91f7ddaef7d29a4eef09fcec544457516ecf3c44442488de7c4a59e7caa"),
    ("complete", 3): ("c68f8eda2f9bc05aeaee0cad33751d0d6cace59f934f0ee81ba29a3e991e13a4", "b7c5e42e9d47cfee50481b53b4af9714871814cf368998de7b5be58c70679cb1"),
    ("complete", 8): ("1c792896a1262e4b334bc2994d9f96541bbf3c3936e416086ab5db8b7698d897", "1825dee846e818e7bda98fea2557f1d6b561c921928dc0bab1302475d0e0ac0c"),
    ("complete", 16): ("399d09043c224812980affdb22af0a0a108912f5b1d5184d5d19b8a24fb96f92", "1aa6d2d4fd247ebbc38114b3e1f45c71093a50eb6294fd2c5da0363c60c7bed9"),
    ("complete", 32): ("fb0406c748eb08c1d5b1a5b9791661f5601a94f3e34faa39201a96b183c95a38", "54132d4836a726f36104935471f24f87cac4d99c2fc3aa4c466f9b0aa70fa092"),
    ("complete", 64): ("4176b7491c2bba781934a00ded89890b8eba9a6d5b723ff747732e9a17dddb82", "29b1902da44a3c5ccd38c10b885225fadd15b3da1299e88903dcb06d15b6f7a0"),
    ("complete", 128): ("2aefa24daa492c4f2a9782557d13a728a75c08beb9905cdba1ac50daa05192ad", "c4f49166bb708b3ed66b6c2b54ad5ab92943e901868a4ff7e8ccbb88c9138025"),
    ("complete", 256): ("021d4d9d405b8fae0ad195534e61536b33cc1c3133dbee0efbb8d058eb595232", "60987c2e4436f9522a970717d924aad2e81fac1a140b29f84176ae98677a9c7d"),
    ("kstar", 2): ("10dc3a8b6bcb567278c82fa08cfa7a0d9af005731ab2232d675f2270f3386a11", "4738d91f7ddaef7d29a4eef09fcec544457516ecf3c44442488de7c4a59e7caa"),
    ("kstar", 3): ("c68f8eda2f9bc05aeaee0cad33751d0d6cace59f934f0ee81ba29a3e991e13a4", "b7c5e42e9d47cfee50481b53b4af9714871814cf368998de7b5be58c70679cb1"),
    ("kstar", 8): ("1c792896a1262e4b334bc2994d9f96541bbf3c3936e416086ab5db8b7698d897", "1825dee846e818e7bda98fea2557f1d6b561c921928dc0bab1302475d0e0ac0c"),
    ("kstar", 16): ("399d09043c224812980affdb22af0a0a108912f5b1d5184d5d19b8a24fb96f92", "1aa6d2d4fd247ebbc38114b3e1f45c71093a50eb6294fd2c5da0363c60c7bed9"),
    ("kstar", 32): ("fb0406c748eb08c1d5b1a5b9791661f5601a94f3e34faa39201a96b183c95a38", "54132d4836a726f36104935471f24f87cac4d99c2fc3aa4c466f9b0aa70fa092"),
    ("kstar", 64): ("4176b7491c2bba781934a00ded89890b8eba9a6d5b723ff747732e9a17dddb82", "29b1902da44a3c5ccd38c10b885225fadd15b3da1299e88903dcb06d15b6f7a0"),
    ("kstar", 128): ("2aefa24daa492c4f2a9782557d13a728a75c08beb9905cdba1ac50daa05192ad", "c4f49166bb708b3ed66b6c2b54ad5ab92943e901868a4ff7e8ccbb88c9138025"),
    ("kstar", 256): ("021d4d9d405b8fae0ad195534e61536b33cc1c3133dbee0efbb8d058eb595232", "60987c2e4436f9522a970717d924aad2e81fac1a140b29f84176ae98677a9c7d"),
    ("path", 16): ("123d06568e10e1046288f5ae61adeab4224e02c53a6744b526d8a6829837cd5b", "8f6cbd000d981cee9d8513eb4899c03d603915efbcc07608e9ac07c2719b029b"),
    ("path", 32): ("138a6136d7fb0413cee024d6534c08df623333ebb0e4c34df6b71be068927c6e", "36e8331c5d7b02b5ca8273c1783e3f6b8e769e238bef7cc07f85308820790195"),
    ("path", 64): ("314d770975f6e86167fe70a233c847c5fbd8d9dd62fa37ab276ebb3d03016b4b", "ad951df52d1d8af8f99cf4e1797e434d7522d23fd421ca7b1c44e1f6d2348137"),
    ("path", 128): ("c97818c2e10d071828e7a1ae1b9498c7290e0e6a6356f340159387e36eb35be7", "31cfe249429a3c1104090ae928c6e7326d4392dbb438397acdb3b75c1ffb19cb"),
    ("path", 256): ("5b67435e091df9cac35ed4723133cf6b391bc49c2145194fce651080bd448d87", "d2f74ae6781d192cca7f6a20b4386e1dfeb956eb1d7f4853119265a8be2676fb"),
    ("cycle", 16): ("2b900a3c9432d38aad65efae556558a5c4159ea468103affd3aca9bf6ccf2bd8", "197d785c9559d3c43635ada74421984f8a2a8c3887bb8e3ee643a96d877e2f7d"),
    ("cycle", 32): ("42eda751132c8fb8a304a43b97c03f330db73d2ce73fe0c102199ab80905236c", "0a893bd213c0fe9ce92f587b832c792eae5f7650aaf1ce451bc74beb67087328"),
    ("cycle", 64): ("cc96bdc953b79a58cf2d414e477bfcf0131697e78e71790134ffee80deea3014", "cc36399f3f5885eb072e5cbd9245cfddf047c9edf10d6e963a2ad93a6db02594"),
    ("cycle", 128): ("4d25ffb5b973122e06f0ca6fa95fb5dd5146a3319082f3847cfe04a836c7c615", "6bf73135f038a46a5332577fd1847cf5e81b6f927212d67ed22bc6843c74995c"),
    ("cycle", 256): ("1334f6cdb1fda3cd7de437babdfe0ab582b25fdff4e696c48a254db9ac8c7fc5", "da9ff4bac53dfa9852ac2c9325c0bfe0488ece1d15e3198fba27a6bf3f7f2f5f"),
    ("random_tree", 16): ("6a0a03387de7d90c1dcdea6d1677049424cd05568e4dfde61dc6eccb962f6ab1", "a40acabfa9d2ffd385230e90edd0a59da6edbcdd5fbdefc061402ab8f6e0fcea"),
    ("random_tree", 32): ("063ada4b9afab1a869d6ecde34c14755657b27c3a2b797ffba5b44a2699e80de", "7ee863f24b5d0c9af06692f078896ed9a92719149632e1f30d49065334f68596"),
    ("random_tree", 64): ("0241d309f8965088f229fbbdd0cab8f0cb6c3632536fef6a255a10895dafae29", "d0b9cce4099f3cc0de80995f27bd23ade675f40f02acb90bf39343650d923576"),
    ("random_tree", 128): ("b930c5f1679bdf2d09b1fd81eaf9d0b394a6da8c69fd0eebc58d1ad575b4e2d6", "f9217775ee4a2ac41fa5696ae478c088f0758940c1b37eba8963ee7cec3ac831"),
    ("random_tree", 256): ("7204c1e763a87e259ce056a032531ae7aa3d3c8d401c7b3faeb41696fc953d94", "bb057473c503b81aea441c2e35ebb412e0f8b0a67aca39f29821f6abfd8eea53"),
    ("grid", 16): ("fe70b8f6d3ac630e483987168b337ea63847faab5d85bfbbe8e511d082837f85", "45d9c994eba4d5526f4e75b5f75a36ee4fc18c1fc8e9e46066b2b038dff3db77"),
    ("grid", 32): ("cddd4ea1456bac905cb48c03358e559ff383384bf1ae9ab1201cebc88d78e355", "536a870913675fe84b3dc99ab111f0b0e5d4ac11686e9e2ecf35fb7ddafaf636"),
    ("grid", 64): ("0e8840fe5e185c92dcad52adeb183fe22ccde7ec0622da2f0f7b89553454f6b3", "8acbb05fdd3c5fc84fb8c51c8c3b0ed28bc30fcc3b649d33862f6174b33dda09"),
    ("grid", 128): ("896e9bfdd2489562d21502c49948ac76d5be1a9a751b24fa186d8d8ff06c72a0", "700f2d7c122c5236e6e8a75b080d47c4f6c531f5083a42a83fd552dff8c54628"),
    ("grid", 256): ("ce3e6975bdf187d702970d8cfcc9ca3a82b5663f183ff994ef9aef7b747b4a73", "a6918bcce81954798beb4f9560a5b6a6038586b3bd44151ff648df8daee9a4bf"),
}


class TestPinnedBuilders:
    """Every byte and every insertion order of these builds is pinned."""

    @pytest.mark.parametrize("family,n", sorted(BUILDER_DIGESTS))
    def test_digests_are_pinned(self, family, n):
        g = FAMILY_BUILDERS[family](n)
        assert (_digest(g), _order_digest(g)) == BUILDER_DIGESTS[family, n]


def _tables_digest(g):
    """sha256 of the compiled ``labels``, ``offsets``, ``neighbor_at`` and ``arrival_at``."""
    topo = compiled_topology(g)
    tables = (topo.labels, list(topo.offsets), list(topo.neighbor_at), list(topo.arrival_at))
    return hashlib.sha256(repr(tables).encode()).hexdigest()


#: ``(sha256 of to_json, _tables_digest)`` for every family at
#: three sizes, measured while a graph kept a port->neighbour map beside
#: its neighbour->port rows.
FAMILY_PINS = {
    ("barbell", 8): ("4d28aac70d5807f514dab725571930bbc19b3379e2be0411fb715385b089779f", "59f21eade7b5c519ba058397e8a007b93e8365cdb31f994e69ee4f9c37cfac6d"),
    ("barbell", 33): ("76837fd2f7645905aee49d7401c0c9c235873cf0fd288b6dff2e7a9cf4c53b6a", "4efbdb0726cbfb1b433a69405e915cb0caf839fbf0494aa25529c851da634264"),
    ("barbell", 64): ("7f297aed2e0087dc8d7ec7e40b5aa143ad602338240a001ad19bc3bc6a19376d", "b3fbe1f21473d16a40c8f93f6acab831d857464aa47f24fc82886c71268ee730"),
    ("caterpillar", 8): ("3d5dc064dc01404cb99aefe980a46c88e08d2cf4a009833e3c5f94d115ff8f96", "c98ed58d1ed166ce1ad715e8ce40b9f3c5bbecb00dd8d541522043d27fe5e962"),
    ("caterpillar", 33): ("98c3ef87a0826b42ac7b7c94211b33f77f8be1dac6bb13b5a37612d02e649616", "b217b980950092783a0828b6a13e8cc2f7eb205fcb4a921b07bb7ad96ca886b7"),
    ("caterpillar", 64): ("052881e8c7f57e9fda9d8d7c08ce6c356db751b4e616ca3d96f3950b0d25dd4d", "c348b566472d1c8ec040ba4885865456df099bf1ebf74ec01b556f522f9f0f6c"),
    ("complete", 8): ("1c792896a1262e4b334bc2994d9f96541bbf3c3936e416086ab5db8b7698d897", "b1ad8145e7a9142128dd4ea9164810b7c2e7de8bd2bdaf3c51c7b4b0496099d9"),
    ("complete", 33): ("3b86e8c8c8bbe25e7dd0512136dbe4b54713226d3a7ed9ea8aba7c92f55e842e", "d547395af9e17037f56dde540c0a4315f29859a7cd14031e66e8f96208c52ec4"),
    ("complete", 64): ("4176b7491c2bba781934a00ded89890b8eba9a6d5b723ff747732e9a17dddb82", "87ccd1997a50b35074475210543c9ef40035361bb63f1043d2d40e3d956a7731"),
    ("cycle", 8): ("870f43ee24f72dd84d3aeec324f2b51e13f1074a74c90671653a601b313462f0", "2214608ec6251c8462fcd6136e2540e6d065b40e584cedad090668a1aaeace80"),
    ("cycle", 33): ("32192f524371490edd279b24c7f2a263784def18945b5520008ee0350fc15aeb", "8876095d8ec60e325429f8cb4996abafc09a3536d51aef6790ef6504b06e644b"),
    ("cycle", 64): ("cc96bdc953b79a58cf2d414e477bfcf0131697e78e71790134ffee80deea3014", "086afce8e4d10fda6fe7e98e6ba636feabbd20e6e288c2589984e528677f759d"),
    ("gnp_dense", 8): ("80d543573b88a6fa6c0f7363645a35666a29e9230d3a51d33ac1ab3556bec0d5", "b9bb88cc1c745edc003866cd7be853f3ba5303411da355d430bcdf6d0f4674ab"),
    ("gnp_dense", 33): ("d9af2c956d4863b4c7ecf2dae18cbc92d68ff48c824ddc49de3aa18fd7d09844", "f248f079aefef30c257c61a24d90b7efa98daa2e8838dce48e608d229f2a7c12"),
    ("gnp_dense", 64): ("aa97b10579772819bf504e8307222f8cb86a8f3963e42d7e1e64edb7cc198d9d", "4ca77aa2d9466226d53048fd8ac6aa8e131a2d37f729d34a1c1b20d85357e5f7"),
    ("gnp_sparse", 8): ("598e629e6851f0c26f62dd1e20e794bbf0ba57ff72385cd5b3a2d0cbf035d134", "989a022215388b92eb05c9d91e3fa28f50a971d8e8df15fd712c50ba9493a383"),
    ("gnp_sparse", 33): ("41f1312f66ae0d9638d015b7cfcfbdbc4b1a3984e04ec3aec271c7eadccc08b2", "2fb1843eb55c0c146b7933a3bb1f5e2258f3b0ce01de39980e1b108ca43c7f00"),
    ("gnp_sparse", 64): ("279bec405b02090e7c18ec35c4dee3bf643458deb9557ae84299fe02944e8a1c", "50fcdc04e3e06a39ccf036a340429b386ae0af233f049ca6df3fd31bd84323f4"),
    ("grid", 8): ("b546debba406938d560a2971252eeac75057b17668df4fdbee19232fb59c88ea", "55b39ad250b145303314d14922905d61b82b0b785421d2f776a84151bfac22d4"),
    ("grid", 33): ("cddd4ea1456bac905cb48c03358e559ff383384bf1ae9ab1201cebc88d78e355", "f1865ecb140a67df9151da963b59c7aee800ce34fb591b81d4ba96709f0f48ca"),
    ("grid", 64): ("0e8840fe5e185c92dcad52adeb183fe22ccde7ec0622da2f0f7b89553454f6b3", "bbba18bef6c63be9d10bd5b91e1490706309de9b1cc49626d8cb2deb80ea9ae7"),
    ("kstar", 8): ("1c792896a1262e4b334bc2994d9f96541bbf3c3936e416086ab5db8b7698d897", "b1ad8145e7a9142128dd4ea9164810b7c2e7de8bd2bdaf3c51c7b4b0496099d9"),
    ("kstar", 33): ("3b86e8c8c8bbe25e7dd0512136dbe4b54713226d3a7ed9ea8aba7c92f55e842e", "d547395af9e17037f56dde540c0a4315f29859a7cd14031e66e8f96208c52ec4"),
    ("kstar", 64): ("4176b7491c2bba781934a00ded89890b8eba9a6d5b723ff747732e9a17dddb82", "87ccd1997a50b35074475210543c9ef40035361bb63f1043d2d40e3d956a7731"),
    ("lollipop", 8): ("2531f00c18349478a0b8fbcab28e7a2428a36bff38c1039a18d7bc71199d0ba4", "ec0c94f52ee1d968dc164422339e3303189a33e602fe548f77377f3deee7b8b9"),
    ("lollipop", 33): ("db5d96a4e087bf7283f018b3526248cf98264ab4859ffe8ffc0cb7cf4d140550", "6288759a30d4b3cba2a138eeb511a2da10fc1265a5fd9fcca2e7dd8f63543e8a"),
    ("lollipop", 64): ("6427de9f1b6d8c537f9afd93f34f450f44cb5934fa064cbf7cfa38e232d17bfd", "71fcea245731d1003d2bb149218b41bcb9593b9e58281a8cf9e97e0e9f152455"),
    ("path", 8): ("1262e0f12c30f54c6af999e6809a193ae48c94f7479a6b3ccc2317dac03ba58d", "b1ea9cf74de0d165cb92ae88ef3148d897c129b7a941e649078a145da5f46813"),
    ("path", 33): ("31b2fcd884a0e4cf564a407666a159b50e3758649619555e9fdd410d6b86f2f1", "fb2de7d5b6a017f3faad7245f736aca0a70ccc381f9942dd7d76ecb5fd3a1c72"),
    ("path", 64): ("314d770975f6e86167fe70a233c847c5fbd8d9dd62fa37ab276ebb3d03016b4b", "e8fdc5bbe5fbc49f963cd5ae4159e299f77e869895986af1fe7da0b0e3331fd0"),
    ("random_tree", 8): ("1ca55b17d815ff0a99c1da3a37f24a54229c039c09b96d621343411b1fdc0bac", "da82ada03a5fa5d68309bb31ae0a66c77a09c5635523d0d7972dafcb4bc920d7"),
    ("random_tree", 33): ("1f2d8094847a62360c0c7bf2cffe87960955f80f54c6b49a9e367c2df573019a", "e588d3613ec51aaf1513e07621bf9416281aab659146ead7d8b8fe179a89c1ae"),
    ("random_tree", 64): ("0241d309f8965088f229fbbdd0cab8f0cb6c3632536fef6a255a10895dafae29", "92868b9797229b90c32bc7fd7ef723db0be9303beb860abd86c321bd665beaca"),
    ("star", 8): ("677c9257b169a9314152654d7c19631d3f5f6a87b3f923006bf68a6a70ee2b5d", "d4392c7a2447b90c569df4c5dcea73834e06e44ab7882af2a0554c3da6cf357c"),
    ("star", 33): ("e7b862be28e8db235bee624e0c4af599445ea33bf9919ef9047d6aea8ea9a339", "784ce1aecd0990f641a0c578567a5bee4c81036c552f2a869c65d93f989aa0b4"),
    ("star", 64): ("c1dc7493c5d536d3ac46f069483e0a66b072fb76e5e0208ab71739e7956c2b9b", "aa2d9bc1b0f11f81c3cf2648db061eda0e7bb33af6281e47b62a63e4b15fd3e0"),
    ("wheel", 8): ("0185f58b821ea202e5c7b0447fcc0505d69818840ff9bfb046f5a5df1c604c12", "2ad8bcca8607850ffa26d9cf995bee093af33376f67a6b3c3f0fc9243b0ca65f"),
    ("wheel", 33): ("16afe4f00ec888d9ec5e262261f269df1b1fa6c3822db126fe020d4f160c88cb", "cec2d92bb2ec18556bc994c93a3e07ae306034af661e7a1882b078228b2d7416"),
    ("wheel", 64): ("5da6d3b329c244cc28513682ae4aa2d23b0212eac3cf622bc1a9cdc37836287d", "e07c90f4c0b17e1eb7b1873bffa43f05ea4deab67d51c6f083b18bb807c34043"),
}


#: Each builder that takes ``port_order``, with ``port_order="random"``.
RANDOM_PORT_BUILDS = {
    "path": lambda rng: path_graph(33, port_order="random", rng=rng),
    "cycle": lambda rng: cycle_graph(33, port_order="random", rng=rng),
    "complete_bipartite": lambda rng: complete_bipartite(5, 7, port_order="random", rng=rng),
    "grid": lambda rng: grid_graph(5, 7, port_order="random", rng=rng),
    "hypercube": lambda rng: hypercube_graph(5, port_order="random", rng=rng),
    "random_tree": lambda rng: random_tree(33, rng, port_order="random"),
    "random_connected_gnp": lambda rng: random_connected_gnp(33, 0.2, rng, port_order="random"),
    "random_regular": lambda rng: random_regular(32, 3, rng, port_order="random"),
}

#: The ``FAMILY_PINS`` pair of ``RANDOM_PORT_BUILDS[name](random.Random(2718))``,
#: measured at the same time.
RANDOM_PORT_PINS = {
    "path": ("324de16d803f98a21226a2c126d508785f09669467b0391e7f161cb52f2aac3e", "3292547d278dc4dd9a9ff74beaacff991661d793bc1aad92e864c1df0f00b621"),
    "cycle": ("8bcc508b1d58696171f353fe118a86d4a6a6c54f7873ad0a92966bc51556f7cb", "76fbe776f014ce48138a13976283b3610fe9e83f3abf475856bb26833bd91105"),
    "complete_bipartite": ("828e6aa915b9d83f1a77ac792a5da5db62ee10b4386ac04564be27f6f5ec47f4", "202152bbdd07b4198174cccb0f54d8ac8dfecfb71e83937ab649fe061933e71f"),
    "grid": ("0606538647dde8e4f2a5785ef8f377677fc6427641da10f63a608a91cf8f1f23", "88f42159c305e23d4a40e07bf80ce718b4b96e21b8996591be77ed7b20cd9264"),
    "hypercube": ("ad05e208ac3fd4e06e50f75911c806906f0799344984bb3239449a2d41cbed2c", "3ae73c2e5c63db1c84025de318b9911c0db175d7c6ce03fcf32ef58f08ddb635"),
    "random_tree": ("4325505e8b301034df4ac2d9d1242d75d62246ad4fa8526468e6340558051f7d", "0241fefde356c731ca97258a9cdae19d4e13a496228a04306d2a447f33dfe6e8"),
    "random_connected_gnp": ("70f66a6a0c40940784e56d2a0e4184ddf06f650f9570cc2595030a215fe2a55a", "a3c3e904721040156ad424603e859b743a62fb795ed062025d28fcee36fc7175"),
    "random_regular": ("4e4fa1cabf9b4eb37f0a157004c6cb28d160bb75c94aca47b469df1838553ce6", "312fc690ba3dc209ca808db7b688576ee69b0cb4152160f61045895cff7b619d"),
}


class TestFamilyPins:
    """Every family's bytes and compiled tables, and every random port order."""

    @pytest.mark.parametrize("family,n", sorted(FAMILY_PINS))
    def test_family_bytes_are_pinned(self, family, n):
        g = FAMILY_BUILDERS[family](n)
        assert (_digest(g), _tables_digest(g)) == FAMILY_PINS[family, n]

    @pytest.mark.parametrize("name", sorted(RANDOM_PORT_BUILDS))
    def test_random_port_order_is_pinned(self, name):
        g = RANDOM_PORT_BUILDS[name](random.Random(2718))
        assert (_digest(g), _tables_digest(g)) == RANDOM_PORT_PINS[name]


def _explicit_ports_graph():
    """A networkx graph whose edges carry their ports, inserted out of label order."""
    g = nx.Graph(source="c")
    ports = {"a": {"b": 2, "d": 0, "e": 1}, "b": {"a": 1, "c": 0}, "c": {"b": 0, "d": 2, "e": 1},
             "d": {"a": 0, "c": 1}, "e": {"a": 1, "c": 0}}
    for u, v in (("c", "b"), ("a", "e"), ("d", "a"), ("b", "a"), ("e", "c"), ("c", "d")):
        g.add_edge(u, v, ports={u: ports[u][v], v: ports[v][u]})
    return g


#: Builds that ``FAMILY_PINS`` does not reach: other parameters, other
#: sources, the sorted port order of the builders only ``RANDOM_PORT_BUILDS``
#: calls, ``random_regular``, and ``from_networkx``'s explicit-ports branch.
EXTRA_BUILDS = {
    "balanced_tree_2_4": lambda: balanced_tree(2, 4),
    "balanced_tree_3_3": lambda: balanced_tree(3, 3),
    "star_9_leaf_source": lambda: star_graph(9, center_source=False),
    "lollipop_5_4_tail_source": lambda: lollipop_graph(5, 4, source_in_clique=False),
    "wheel_9_center_source": lambda: wheel_graph(9, center_source=True),
    "hypercube_4": lambda: hypercube_graph(4),
    "complete_bipartite_3_5": lambda: complete_bipartite(3, 5),
    "random_regular_16_3_seed_7": lambda: random_regular(16, 3, seed=7),
    "from_networkx_explicit_ports": lambda: PortLabeledGraph.from_networkx(_explicit_ports_graph()).freeze(),
}

#: The ``FAMILY_PINS`` pair of each ``EXTRA_BUILDS`` graph, measured while
#: every builder went through networkx.
EXTRA_PINS = {
    "balanced_tree_2_4": ("cdd8c42f39ecf7c4213a4465e92ec30de558f0d58c8df1c342e2677ef90c08f8", "2ae52f8d5b2e30541abfd611c63a20c0b48aac8b0e663a0e953c3176188472f7"),
    "balanced_tree_3_3": ("a9f6e019c04a68dadec7e73ed598e07cf1297c57b267b588e3c20d76579458e7", "373f17d7b17b61c5e90e04eba1b5e342624bc5a8530a8a6e3e09372e2077e134"),
    "star_9_leaf_source": ("a1eac8ce21b9751156b70dcd1cb857c95c5c4f53cba6e8d9bedf899835d14b71", "b16a65152feec6d0096a941a98bac254c936dc1d841e1f8a43f8fddae368bd2e"),
    "lollipop_5_4_tail_source": ("d2455cd27c57d4986d071a00aa4b6f52aa021f3c466ed6b5471dd66daba2adbc", "544651cbef7ea55f456da22689714f1af5f07ee8c4fc814af180805f32e0e851"),
    "wheel_9_center_source": ("38ae3064fa5f7d7bf1484cdd724e3dd21ab66c6225d0bcf27e623fd9c53595ea", "6321fab07f6f75fa96466438ae676178960fb04dabbc15a9750c222467528948"),
    "hypercube_4": ("fc226d8ab43c7919fd04ee3ea15b02dddfb8d2b1bca1ca2a06a6e2841d434863", "ff845907a4743fde6b593cce8ea8f4bd6ad018858ff2e168ab10ff9a76872d82"),
    "complete_bipartite_3_5": ("6f7ee363af07a431b699a3d7fb589984687cd922624092c5e6db606d6e498cde", "4b1f80f8216bf00eb69b64eeb799108e17d6fd7793daa3f7f9ef3d902ebaf25b"),
    "random_regular_16_3_seed_7": ("6d59be802738d4038a09500cec3b33f7ba6763c3950e32bbae9db9db658ec287", "9dd4b84f795f9ff213249aaca6d7b0fd0dea326827d7fbc80cfe7438af13d612"),
    "from_networkx_explicit_ports": ("23a41e7a740f27ded4512bffffaa3c23bb39eeca03994615025aef32dc79a335", "6fc395d1b46930dc1c9445f09191ef33a867f656890683bfe89f93783f3defdc"),
}

#: sha256 of ``repr(list(all_connected_edge_sets(n)))``, measured while
#: connectivity was tested with ``networkx.is_connected``.
EDGE_SET_PINS = {
    2: "262e139c97fa9ad965ee0eaa13a415ec8fa0318f3f68c057eb2e1b495650c873",
    3: "d8f9b44c3b2720759504846597a964ef2eae84697a81ada09b43fc0a81554d01",
    4: "7defc2a7d8894f5cba9586db91b8864dd01359e372938f5ad86a80aaeabb8cbb",
    5: "b64bd178ea35c484387d108ad077fe8f060ccb4cfe239b32d4f25dd8f94f5083",
}


class TestExtraPins:
    @pytest.mark.parametrize("name", sorted(EXTRA_BUILDS))
    def test_bytes_and_tables_are_pinned(self, name):
        g = EXTRA_BUILDS[name]()
        assert (_digest(g), _tables_digest(g)) == EXTRA_PINS[name]

    @pytest.mark.parametrize("n", sorted(EDGE_SET_PINS))
    def test_connected_edge_sets_are_pinned(self, n):
        listed = repr(list(all_connected_edge_sets(n)))
        assert hashlib.sha256(listed.encode()).hexdigest() == EDGE_SET_PINS[n]


def _rows(g):
    """A graph's source and each node's ``(neighbor, port)`` row, in insertion order."""
    return g.source, [(v, list(row.items())) for v, row in g._neighbor_to_port.items()]


def _from_nx(nxg, source, port_order="sorted", rng=None):
    return PortLabeledGraph.from_networkx(nxg, source=source, port_order=port_order, rng=rng).freeze()


def _nx_hypercube(dim):
    g = nx.hypercube_graph(dim)
    return nx.relabel_nodes(g, {v: int("".join(map(str, v)), 2) for v in g.nodes()})


def _nx_random_tree(n, rng):
    if n == 2:
        return nx.path_graph(2)
    return nx.from_prufer_sequence([rng.randrange(n) for __ in range(n - 2)])


def _nx_caterpillar(spine, legs):
    g = nx.Graph()
    g.add_nodes_from(range(spine))
    g.add_edges_from(zip(range(spine), range(1, spine)))
    label = spine
    for s in range(spine):
        for __ in range(legs):
            g.add_edge(s, label)
            label += 1
    return g


def _gnp_probability(n, dense):
    return 0.5 if dense else min(1.0, 3.0 / (n - 1))


def _alternating(pairs):
    """Each pair with a source flag that alternates along the list."""
    return [pair + (k % 2 == 0,) for k, pair in enumerate(pairs)]


#: Largest node count the differential below builds.
DIFF_MAX_NODES = 40

#: name -> (parameter tuples, direct build, networkx reference, whether the
#: builder takes ``port_order``).  Each build is ``(args, port_order, rng)
#: -> graph``; the parameters run over every size from the builder's
#: minimum up to ``DIFF_MAX_NODES`` nodes.
DIFFERENTIAL = {
    "path": (
        [(n,) for n in range(1, DIFF_MAX_NODES + 1)],
        lambda a, o, r: path_graph(a[0], port_order=o, rng=r),
        lambda a, o, r: _from_nx(nx.path_graph(a[0]), 0, o, r),
        True,
    ),
    "cycle": (
        [(n,) for n in range(3, DIFF_MAX_NODES + 1)],
        lambda a, o, r: cycle_graph(a[0], port_order=o, rng=r),
        lambda a, o, r: _from_nx(nx.cycle_graph(a[0]), 0, o, r),
        True,
    ),
    "star": (
        [(n, c) for n in range(2, DIFF_MAX_NODES + 1) for c in (True, False)],
        lambda a, o, r: star_graph(a[0], center_source=a[1]),
        lambda a, o, r: _from_nx(nx.star_graph(a[0] - 1), 0 if a[1] else 1),
        False,
    ),
    "complete_bipartite": (
        [(x, y) for x in range(1, DIFF_MAX_NODES) for y in range(1, DIFF_MAX_NODES + 1 - x)],
        lambda a, o, r: complete_bipartite(*a, port_order=o, rng=r),
        lambda a, o, r: _from_nx(nx.complete_bipartite_graph(*a), 0, o, r),
        True,
    ),
    "grid": (
        [(x, y) for x in range(1, DIFF_MAX_NODES + 1) for y in range(1, DIFF_MAX_NODES // x + 1)],
        lambda a, o, r: grid_graph(*a, port_order=o, rng=r),
        lambda a, o, r: _from_nx(nx.grid_2d_graph(*a), (0, 0), o, r),
        True,
    ),
    # networkx's dim-1 hypercube has int labels, which its relabel cannot join.
    "hypercube": (
        [(d,) for d in range(2, 7)],
        lambda a, o, r: hypercube_graph(a[0], port_order=o, rng=r),
        lambda a, o, r: _from_nx(_nx_hypercube(a[0]), 0, o, r),
        True,
    ),
    "balanced_tree": (
        [(b, h) for b in range(1, DIFF_MAX_NODES) for h in range(1, DIFF_MAX_NODES)
         if sum(b**k for k in range(h + 1)) <= DIFF_MAX_NODES],
        lambda a, o, r: balanced_tree(*a),
        lambda a, o, r: _from_nx(nx.balanced_tree(*a), 0),
        False,
    ),
    "random_tree": (
        [(n,) for n in range(2, DIFF_MAX_NODES + 1)],
        lambda a, o, r: random_tree(a[0], r, port_order=o),
        lambda a, o, r: _from_nx(_nx_random_tree(a[0], r), 0, o, r),
        True,
    ),
    "random_connected_gnp": (
        [(n, dense) for n in range(2, DIFF_MAX_NODES + 1) for dense in (False, True)],
        lambda a, o, r: random_connected_gnp(a[0], _gnp_probability(*a), r, port_order=o),
        lambda a, o, r: _reference_gnp(a[0], _gnp_probability(*a), r, port_order=o),
        True,
    ),
    "lollipop": (
        _alternating([(c, t) for c in range(3, DIFF_MAX_NODES) for t in range(1, DIFF_MAX_NODES + 1 - c)]),
        lambda a, o, r: lollipop_graph(a[0], a[1], source_in_clique=a[2]),
        lambda a, o, r: _from_nx(nx.lollipop_graph(a[0], a[1]), 0 if a[2] else a[0] + a[1] - 1),
        False,
    ),
    "barbell": (
        [(b, m) for b in range(3, DIFF_MAX_NODES // 2 + 1) for m in range(0, DIFF_MAX_NODES + 1 - 2 * b)],
        lambda a, o, r: barbell_graph(*a),
        lambda a, o, r: _from_nx(nx.barbell_graph(*a), 0),
        False,
    ),
    "wheel": (
        [(n, c) for n in range(4, DIFF_MAX_NODES + 1) for c in (False, True)],
        lambda a, o, r: wheel_graph(a[0], center_source=a[1]),
        lambda a, o, r: _from_nx(nx.wheel_graph(a[0]), 0 if a[1] else 1),
        False,
    ),
    "caterpillar": (
        [(s, k) for s in range(2, DIFF_MAX_NODES + 1) for k in range(0, DIFF_MAX_NODES) if s * (1 + k) <= DIFF_MAX_NODES],
        lambda a, o, r: caterpillar_graph(*a),
        lambda a, o, r: _from_nx(_nx_caterpillar(*a), 0),
        False,
    ),
}


class TestRowsMatchNetworkx:
    """Each builder's graph is, row for row, ``from_networkx`` of networkx's graph."""

    @pytest.mark.parametrize(
        "name,port_order",
        [(name, order) for name in sorted(DIFFERENTIAL)
         for order in (("sorted", "random") if DIFFERENTIAL[name][3] else ("sorted",))],
    )
    def test_rows_match(self, name, port_order):
        params, direct, reference, __ = DIFFERENTIAL[name]
        for k, args in enumerate(params):
            ours, theirs = random.Random(7919 * k), random.Random(7919 * k)
            got, want = direct(args, port_order, ours), reference(args, port_order, theirs)
            assert _rows(got) == _rows(want), (name, args, port_order)
            assert to_json(got) == to_json(want), (name, args, port_order)
            assert ours.getstate() == theirs.getstate(), (name, args, port_order)


class TestFamilyRegistry:
    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_every_family_builds_and_validates(self, family):
        g = FAMILY_BUILDERS[family](16)
        g.validate()
        assert g.num_nodes >= 3

    @pytest.mark.parametrize("n", (8, 33))
    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_every_member_comes_back_frozen(self, family, n):
        """So the daemon's build path (``service.jobs.build_graph``) and
        every other caller can use a member as it comes."""
        assert FAMILY_BUILDERS[family](n).frozen

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

    @pytest.mark.parametrize("n", [0, -1, -3])
    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_sizes_below_one_raise_graph_error(self, family, n):
        """No family builds a graph for n <= 0, nor fails with anything
        but the builders' typed refusal."""
        with pytest.raises(GraphError, match="needs n >= "):
            FAMILY_BUILDERS[family](n)


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
