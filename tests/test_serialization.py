"""Tests for graph JSON serialization."""

import json

import pytest

from repro.network import (
    GraphError,
    PortLabeledGraph,
    complete_graph_star,
    dump,
    from_json,
    load,
    to_json,
)


class TestRoundTrip:
    def test_roundtrip_zoo(self, zoo_graph):
        back = from_json(to_json(zoo_graph))
        assert back.num_nodes == zoo_graph.num_nodes
        assert back.num_edges == zoo_graph.num_edges
        assert back.source == zoo_graph.source
        for u, v in zoo_graph.edges():
            assert back.port(u, v) == zoo_graph.port(u, v)
            assert back.port(v, u) == zoo_graph.port(v, u)

    def test_tuple_labels_survive(self):
        g = PortLabeledGraph()
        g.add_node((0, 0))
        g.add_node((0, 1))
        g.add_edge((0, 0), (0, 1))
        g.set_source((0, 0))
        back = from_json(to_json(g.freeze()))
        assert back.source == (0, 0)
        assert back.has_edge((0, 0), (0, 1))

    def test_deterministic_output(self, triangle):
        assert to_json(triangle) == to_json(triangle)

    def test_file_roundtrip(self, triangle, tmp_path):
        path = str(tmp_path / "g.json")
        dump(triangle, path)
        back = load(path)
        assert back.num_nodes == 3
        assert back.source == 0

    def test_result_is_frozen_and_valid(self, k5):
        back = from_json(to_json(k5))
        assert back.frozen

    def test_dense_roundtrip_gives_back_the_bytes(self):
        text = to_json(complete_graph_star(500))
        assert to_json(from_json(text)) == text


def _document(edges, nodes=(0, 1, 2), source=0):
    """A serialized graph with the given ``(u, v, port_u, port_v)`` edges."""
    return json.dumps({
        "format": "repro.port-labeled-graph.v1",
        "nodes": list(nodes),
        "edges": [{"u": u, "v": v, "port_u": pu, "port_v": pv} for u, v, pu, pv in edges],
        "source": source,
    })


TRIANGLE = [(0, 1, 0, 0), (0, 2, 1, 0), (1, 2, 1, 1)]

#: Documents that break the network model, each in one place.
BAD_DOCUMENTS = {
    "repeated-edge": TRIANGLE + [(0, 1, 0, 0)],
    "repeated-edge-reversed": TRIANGLE + [(1, 0, 0, 0)],
    "self-loop": TRIANGLE + [(2, 2, 2, 3)],
    "port-gap": [(0, 1, 0, 0), (0, 2, 2, 0), (1, 2, 1, 1)],
    "repeated-port": [(0, 1, 0, 0), (0, 2, 0, 0), (1, 2, 1, 1)],
    "unknown-endpoint": TRIANGLE + [(0, 7, 2, 0)],
}


class TestErrors:
    def test_triangle_document_loads(self):
        g = from_json(_document(TRIANGLE))
        assert [g.port(0, 2), g.port(2, 1)] == [1, 1]

    @pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
    def test_model_violations_raise(self, name):
        with pytest.raises(GraphError):
            from_json(_document(BAD_DOCUMENTS[name]))

    def test_unknown_format(self):
        doc = json.dumps({"format": "something-else", "nodes": [], "edges": []})
        with pytest.raises(GraphError):
            from_json(doc)

    def test_unserializable_label(self):
        g = PortLabeledGraph()
        g.add_node(frozenset({1}))
        g.add_node(frozenset({2}))
        g.add_edge(frozenset({1}), frozenset({2}))
        g.set_source(frozenset({1}))
        with pytest.raises(GraphError):
            to_json(g)
