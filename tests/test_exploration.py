"""Tests for the mobile-agent substrate and the three explorers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agent import (
    AdvisedTreeExplorer,
    AgentView,
    DFSExplorer,
    ExplorationResult,
    RotorRouterExplorer,
    run_exploration,
)
from repro.core import NullOracle
from repro.encoding import BitString
from repro.network import (
    FAMILY_BUILDERS,
    complete_graph_star,
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected_gnp,
)
from repro.oracles import GossipTreeOracle


class TestRunExploration:
    def test_invalid_start(self, k5):
        with pytest.raises(ValueError):
            run_exploration(k5, NullOracle(), DFSExplorer(), start="nowhere")

    def test_invalid_port_choice(self, k5):
        class Bad:
            def choose_port(self, view):
                return 99

        with pytest.raises(ValueError):
            run_exploration(k5, NullOracle(), Bad())

    def test_immediate_halt(self, k5):
        class Lazy:
            def choose_port(self, view):
                return None

        result = run_exploration(k5, NullOracle(), Lazy())
        assert result.halted
        assert result.moves == 0
        assert result.visited == 1
        assert not result.success

    def test_move_limit(self, k5):
        class Spinner:
            def choose_port(self, view):
                return 0

        result = run_exploration(k5, NullOracle(), Spinner(), max_moves=10)
        assert not result.halted
        assert result.moves == 10

    def test_trail_recorded(self, path4):
        result = run_exploration(path4, NullOracle(), DFSExplorer())
        assert result.trail[0] == path4.source
        assert set(result.trail) == set(path4.nodes())


class TestAdvisedTreeExplorer:
    def test_exact_tour(self, zoo_graph):
        result = run_exploration(zoo_graph, GossipTreeOracle(), AdvisedTreeExplorer())
        assert result.success
        assert result.moves == 2 * (zoo_graph.num_nodes - 1)

    def test_memoryless(self, k5):
        # one explorer instance reused across runs must behave identically —
        # it carries no state at all
        explorer = AdvisedTreeExplorer()
        a = run_exploration(k5, GossipTreeOracle(), explorer)
        b = run_exploration(k5, GossipTreeOracle(), explorer)
        assert a.trail == b.trail
        assert a.success and b.success

    def test_damaged_advice_halts_safely(self, k5):
        result = run_exploration(k5, NullOracle(), AdvisedTreeExplorer())
        assert result.halted  # no crash, no spin
        assert not result.success

    def test_inconsistent_entry_halts(self):
        view = AgentView(advice=BitString(""), degree=3, entry_port=2, node_label=0)
        assert AdvisedTreeExplorer().choose_port(view) is None

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=3, max_value=16),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_random_graphs(self, n, seed):
        rng = random.Random(seed)
        g = random_connected_gnp(n, 0.5, rng, port_order="random")
        result = run_exploration(g, GossipTreeOracle(), AdvisedTreeExplorer())
        assert result.success
        assert result.moves == 2 * (g.num_nodes - 1)


class TestDFSExplorer:
    def test_explores_everything(self, zoo_graph):
        result = run_exploration(zoo_graph, NullOracle(), DFSExplorer())
        assert result.success

    def test_theta_m_moves(self):
        g = complete_graph_star(12)
        result = run_exploration(g, NullOracle(), DFSExplorer())
        assert g.num_edges <= result.moves <= 4 * g.num_edges

    def test_needs_labels(self, k5):
        with pytest.raises(ValueError):
            run_exploration(k5, NullOracle(), DFSExplorer(), anonymous=True)

    def test_fresh_instance_needed_per_run(self, k5):
        # DFSExplorer carries memory; reusing it halts immediately at the
        # remembered start — documented behaviour, asserted here
        explorer = DFSExplorer()
        first = run_exploration(k5, NullOracle(), explorer)
        second = run_exploration(k5, NullOracle(), explorer)
        assert first.success
        assert second.moves < first.moves


class TestRotorRouter:
    def test_covers_with_budget(self, zoo_graph):
        budget = 6 * zoo_graph.num_edges
        result = run_exploration(
            zoo_graph, NullOracle(), RotorRouterExplorer(budget=budget)
        )
        assert result.visited == zoo_graph.num_nodes

    def test_budget_exhausts(self):
        g = cycle_graph(8)
        result = run_exploration(g, NullOracle(), RotorRouterExplorer(budget=3))
        assert result.moves == 3
        assert result.halted  # budget exhausted => returns None

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            RotorRouterExplorer(budget=-1)

    def test_needs_labels(self, k5):
        with pytest.raises(ValueError):
            run_exploration(k5, NullOracle(), RotorRouterExplorer(budget=5), anonymous=True)


class TestRegimeOrdering:
    def test_advice_beats_memory_beats_blind(self):
        g = grid_graph(5, 5)
        advised = run_exploration(g, GossipTreeOracle(), AdvisedTreeExplorer())
        dfs = run_exploration(g, NullOracle(), DFSExplorer())
        assert advised.moves <= dfs.moves
        assert advised.oracle_bits > 0
        assert dfs.oracle_bits == 0


# ----------------------------------------------------------------------
# The compiled walk against the graph-API walk it replaced.
# ----------------------------------------------------------------------


def graph_api_walk(
    graph, oracle, explorer, start=None, anonymous=False, max_moves=None, advice=None
):
    """The reference walk: every move asks the graph for degree, neighbour
    and arrival port, and the advice map for the node's string."""
    if not graph.frozen:
        graph = graph.copy().freeze()
    if advice is None:
        advice = oracle.advise(graph)
    position = start if start is not None else graph.source
    if not graph.has_node(position):
        raise ValueError(f"start node {position!r} is not in the graph")
    if max_moves is None:
        max_moves = 8 * graph.num_edges + 4 * graph.num_nodes + 16
    visited = {position}
    trail = [position]
    entry_port = None
    moves = 0
    halted = False
    while moves < max_moves:
        view = AgentView(
            advice=advice[position],
            degree=graph.degree(position),
            entry_port=entry_port,
            node_label=None if anonymous else position,
        )
        port = explorer.choose_port(view)
        if port is None:
            halted = True
            break
        if not 0 <= port < graph.degree(position):
            raise ValueError(
                f"explorer chose port {port} at node {position!r} of degree "
                f"{graph.degree(position)}"
            )
        neighbor = graph.neighbor_via(position, port)
        entry_port = graph.port(neighbor, position)
        position = neighbor
        visited.add(position)
        trail.append(position)
        moves += 1
    return ExplorationResult(
        graph_nodes=graph.num_nodes,
        graph_edges=graph.num_edges,
        oracle_name=oracle.name,
        explorer_name=getattr(explorer, "name", type(explorer).__name__),
        oracle_bits=advice.total_bits(),
        moves=moves,
        visited=len(visited),
        halted=halted,
        trail=trail,
    )


#: Fresh (oracle, explorer) pairs; DFS and rotor carry memory per run.
EXPLORERS = {
    "advised": lambda g: (GossipTreeOracle(), AdvisedTreeExplorer()),
    "dfs": lambda g: (NullOracle(), DFSExplorer()),
    "rotor": lambda g: (NullOracle(), RotorRouterExplorer(budget=3 * g.num_edges)),
}

WALK_GRAPHS = {
    "complete": lambda: FAMILY_BUILDERS["complete"](9),
    "gnp_sparse": lambda: FAMILY_BUILDERS["gnp_sparse"](14),
    "grid": lambda: FAMILY_BUILDERS["grid"](12),  # tuple labels
}


def both_walks(make_graph, name, **kwargs):
    """The outcome of each walk: its result, or its error's type and text."""
    outcomes = []
    for walk in (graph_api_walk, run_exploration):
        graph = make_graph()
        oracle, explorer = EXPLORERS[name](graph)
        try:
            outcomes.append(walk(graph, oracle, explorer, **kwargs))
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


class TestCompiledWalkMatchesGraphWalk:
    @pytest.mark.parametrize("family", sorted(WALK_GRAPHS))
    @pytest.mark.parametrize("name", sorted(EXPLORERS))
    def test_default_walk(self, name, family):
        reference, compiled = both_walks(WALK_GRAPHS[family], name)
        assert isinstance(compiled, ExplorationResult)
        assert compiled == reference

    @pytest.mark.parametrize("name", sorted(EXPLORERS))
    def test_anonymous(self, name):
        reference, compiled = both_walks(WALK_GRAPHS["grid"], name, anonymous=True)
        assert compiled == reference
        # only the advised agent does without labels
        assert isinstance(compiled, ExplorationResult) is (name == "advised")

    @pytest.mark.parametrize("family", sorted(WALK_GRAPHS))
    @pytest.mark.parametrize("name", sorted(EXPLORERS))
    def test_explicit_start(self, name, family):
        graph = WALK_GRAPHS[family]()
        start = list(graph.nodes())[-1]
        reference, compiled = both_walks(WALK_GRAPHS[family], name, start=start)
        assert compiled == reference
        assert compiled.trail[0] == start

    @pytest.mark.parametrize("cut", (0, 1, 7))
    @pytest.mark.parametrize("name", sorted(EXPLORERS))
    def test_move_cutoff(self, name, cut):
        reference, compiled = both_walks(WALK_GRAPHS["grid"], name, max_moves=cut)
        assert compiled == reference
        assert compiled.moves == cut and not compiled.halted

    @pytest.mark.parametrize("name", sorted(EXPLORERS))
    def test_unfrozen_input(self, name):
        def unfrozen():
            return WALK_GRAPHS["gnp_sparse"]().copy()

        assert not unfrozen().frozen
        reference, compiled = both_walks(unfrozen, name)
        assert compiled == reference

    def test_bad_start_has_the_same_error(self):
        reference, compiled = both_walks(WALK_GRAPHS["grid"], "dfs", start=(9, 9))
        assert compiled == reference
        assert compiled == (ValueError, "start node (9, 9) is not in the graph")

    @pytest.mark.parametrize("port", (-1, 99))
    def test_bad_port_has_the_same_error(self, port):
        class Fixed:
            def choose_port(self, view):
                return port

        texts = []
        for walk in (graph_api_walk, run_exploration):
            with pytest.raises(ValueError) as info:
                walk(WALK_GRAPHS["grid"](), NullOracle(), Fixed())
            texts.append(str(info.value))
        assert texts[0] == texts[1]
        assert f"explorer chose port {port} at node (0, 0)" in texts[1]


class TestPortType:
    """A port the explorer chooses must be an integer."""

    @pytest.mark.parametrize("port", (1.0, 1.5, "1"))
    def test_non_integer_port_is_refused(self, k5, port):
        class Chooser:
            def choose_port(self, view):
                return port

        with pytest.raises(ValueError, match="not an integer"):
            run_exploration(k5, NullOracle(), Chooser())

    def test_index_types_walk_like_ints(self, k5):
        class Index:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        def spinner(wrap):
            class Spinner:
                def choose_port(self, view):
                    return wrap(view.entry_port or 0)

            return Spinner()

        plain = run_exploration(k5, NullOracle(), spinner(int), max_moves=9)
        wrapped = run_exploration(k5, NullOracle(), spinner(Index), max_moves=9)
        assert wrapped == plain


class TestAgentView:
    def test_named_tuple_fields_and_keywords(self):
        view = AgentView(advice=BitString("1"), degree=2, entry_port=None, node_label=(0, 1))
        assert view._fields == ("advice", "degree", "entry_port", "node_label")
        assert view == (BitString("1"), 2, None, (0, 1))
        assert view.node_label == (0, 1)
        with pytest.raises(AttributeError):
            view.degree = 3
