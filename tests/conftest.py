"""Shared fixtures: small reference networks used across the suite."""

import random

import pytest

from repro.network import (
    FAMILY_BUILDERS,
    PortLabeledGraph,
    clique_family_graph,
    complete_graph_star,
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected_gnp,
    random_tree,
    sample_edge_tuple,
    star_graph,
    subdivision_family_graph,
)


@pytest.fixture
def triangle() -> PortLabeledGraph:
    """The smallest interesting network: a 3-cycle with source 0."""
    g = PortLabeledGraph()
    for v in range(3):
        g.add_node(v)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(0, 2)
    g.set_source(0)
    return g.freeze()


@pytest.fixture
def path4() -> PortLabeledGraph:
    """A 4-node path, source at one end."""
    return path_graph(4)


@pytest.fixture
def k5() -> PortLabeledGraph:
    """The canonical K*_5."""
    return complete_graph_star(5)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


def small_graph_zoo():
    """A diverse list of small networks for exhaustive-ish checks."""
    rng = random.Random(99)
    return [
        path_graph(2),
        path_graph(7),
        cycle_graph(5),
        star_graph(6),
        star_graph(6, center_source=False),
        grid_graph(3, 4),
        complete_graph_star(6),
        random_tree(9, random.Random(4)),
        random_connected_gnp(10, 0.4, rng),
        random_connected_gnp(12, 0.25, rng),
    ]


@pytest.fixture(params=range(10), ids=lambda i: f"zoo{i}")
def zoo_graph(request) -> PortLabeledGraph:
    """Parametrized fixture iterating the whole zoo."""
    return small_graph_zoo()[request.param]


def pinned_tree_graph(family, n):
    """A graph whose spanning trees and advice the suite pins by digest.

    ``family`` is a ``FAMILY_BUILDERS`` name built at size ``n``, or one
    of the two lower-bound gadget families at ``n = 32``, where ``n``
    names the sampling seed instead: ``"subdivision"`` is ``G_{32,S}``
    and ``"clique"`` is ``G_{32,4}``.
    """
    if family == "subdivision":
        return subdivision_family_graph(32, sample_edge_tuple(32, 32, seed=n))
    if family == "clique":
        return clique_family_graph(32, 4, seed=n)[0]
    return FAMILY_BUILDERS[family](n)
