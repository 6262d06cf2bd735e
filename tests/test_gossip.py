"""Tests for the gossip task, its oracle, and both gossip algorithms."""

import dataclasses
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import FloodGossip, TreeGossip
from repro.core import NullOracle, run_gossip
from repro.core.gossip import GOSSIP_KIND, GossipResult, rumor_of
from repro.core.scheme import Algorithm, FunctionalAlgorithm, sends
from repro.core.tasks import default_message_limit, simulate_pair
from repro.encoding import BitString
from repro.network import (
    FAMILY_BUILDERS,
    complete_graph_star,
    path_graph,
    random_connected_gnp,
    star_graph,
)
from repro.oracles import GossipTreeOracle, decode_gossip_advice
from repro.simulator import make_scheduler
from repro.simulator.schedulers import PriorityScheduler


class TestGossipAdvice:
    def test_advice_decodes(self, zoo_graph):
        from repro.oracles import build_spanning_tree, children_port_map

        oracle = GossipTreeOracle()
        advice = oracle.advise(zoo_graph)
        parent = build_spanning_tree(zoo_graph, "bfs")
        ports = children_port_map(zoo_graph, parent)
        for v in zoo_graph.nodes():
            children, parent_port = decode_gossip_advice(advice[v], zoo_graph.degree(v))
            assert children == ports[v]
            if parent[v] is None:
                assert parent_port is None
            else:
                assert zoo_graph.neighbor_via(v, parent_port) == parent[v]

    def test_decode_garbage(self):
        assert decode_gossip_advice(BitString("1"), 4) == ([], None)
        assert decode_gossip_advice(BitString("10" * 30), 4) == ([], None)

    def test_decode_out_of_range(self):
        from repro.encoding import encode_paired_list

        # one child at port 9 of a degree-2 node: invalid
        advice = encode_paired_list([1, 9, 0])
        assert decode_gossip_advice(advice, 2) == ([], None)

    def test_size_is_n_log_n_rate(self):
        import math

        sizes = []
        for n in (64, 256, 1024):
            g = complete_graph_star(n)
            sizes.append(GossipTreeOracle().size_on(g) / (n * math.log2(n)))
        # the paired code pays 2 bits per data bit on both the child and the
        # parent port: the constant settles just below 4
        assert all(s < 4.1 for s in sizes)
        assert abs(sizes[-1] - 4.0) < 0.1


class TestTreeGossip:
    def test_exactly_2n_minus_2_messages(self, zoo_graph):
        result = run_gossip(zoo_graph, GossipTreeOracle(), TreeGossip())
        assert result.success
        assert result.messages == 2 * (zoo_graph.num_nodes - 1)

    def test_messages_stay_on_tree(self, k5):
        from repro.network import edge_key
        from repro.oracles import build_spanning_tree

        result = run_gossip(k5, GossipTreeOracle(), TreeGossip())
        parent = build_spanning_tree(k5, "bfs")
        tree = {edge_key(c, p) for c, p in parent.items() if p is not None}
        assert result.trace.edges_used() <= tree

    @pytest.mark.parametrize("sched", ("sync", "fifo", "random"))
    def test_schedulers(self, zoo_graph, sched):
        result = run_gossip(
            zoo_graph, GossipTreeOracle(), TreeGossip(), scheduler=make_scheduler(sched, 5)
        )
        assert result.success
        assert result.messages == 2 * (zoo_graph.num_nodes - 1)

    def test_star_from_leaf(self):
        g = star_graph(9, center_source=False)
        result = run_gossip(g, GossipTreeOracle(), TreeGossip())
        assert result.success

    def test_path_worst_case_depth(self):
        g = path_graph(12)
        result = run_gossip(g, GossipTreeOracle(), TreeGossip())
        assert result.success
        assert result.messages == 22

    def test_no_advice_fails_gracefully(self, k5):
        result = run_gossip(k5, NullOracle(), TreeGossip())
        assert not result.complete
        assert result.quiescent  # nothing to do, but no crash

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=3, max_value=16),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_random_graphs(self, n, seed):
        rng = random.Random(seed)
        g = random_connected_gnp(n, 0.5, rng, port_order="random")
        result = run_gossip(g, GossipTreeOracle(), TreeGossip())
        assert result.success
        assert result.messages == 2 * (g.num_nodes - 1)


class TestFloodGossip:
    def test_completes(self, zoo_graph):
        result = run_gossip(zoo_graph, NullOracle(), FloodGossip())
        assert result.success

    def test_costs_more_than_tree(self, k5):
        flood = run_gossip(k5, NullOracle(), FloodGossip())
        tree = run_gossip(k5, GossipTreeOracle(), TreeGossip())
        assert flood.messages > tree.messages

    def test_superlinear_on_dense(self):
        g = complete_graph_star(16)
        result = run_gossip(g, NullOracle(), FloodGossip())
        assert result.success
        assert result.messages > 10 * g.num_nodes

    @pytest.mark.parametrize("sched", ("sync", "random"))
    def test_schedulers(self, k5, sched):
        result = run_gossip(
            k5, NullOracle(), FloodGossip(), scheduler=make_scheduler(sched, 7)
        )
        assert result.success


def malformed_gossip(rumors) -> FunctionalAlgorithm:
    """Every node announces ``(GOSSIP_KIND, rumors)`` once, on every port,
    where ``rumors`` is not a frozenset."""
    payload = (GOSSIP_KIND, rumors)
    return FunctionalAlgorithm(
        lambda advice, is_source, node_id, degree: lambda history: (
            sends(*((payload, p) for p in range(degree))) if history.empty else []
        )
    )


class TestMalformedPayloads:
    """The verifier ignores gossip payloads that are not rumor frozensets:
    they neither teach anything nor count as the largest payload."""

    @pytest.mark.parametrize("rumors", (5, ["junk"] * 50), ids=("int", "list"))
    def test_fails_verification_without_raising(self, k5, rumors):
        result = run_gossip(k5, NullOracle(), malformed_gossip(rumors))
        assert result.messages == 2 * k5.num_edges
        assert result.complete is False
        assert result.max_payload_rumors == 0
        assert result.min_final_knowledge == 1


class TestGossipResult:
    def test_replay_verification_is_independent(self, k5):
        # the verifier recomputes knowledge from the trace, so a lying
        # algorithm (sends nothing, "claims" completion) fails verification
        result = run_gossip(k5, NullOracle(), TreeGossip())
        assert result.min_final_knowledge == 1  # nobody learned anything

    def test_max_payload_reported(self, k5):
        result = run_gossip(k5, GossipTreeOracle(), TreeGossip())
        assert result.max_payload_rumors == k5.num_nodes  # the down wave

    def test_rumor_of(self):
        assert rumor_of(3) == ("rumor", 3)
        assert rumor_of(3) != rumor_of(4)

    def test_summary(self, k5):
        result = run_gossip(k5, GossipTreeOracle(), TreeGossip())
        assert "gossip" in result.summary()
        assert "ok" in result.summary()


# ----------------------------------------------------------------------
# The per-delivery check against the delivery-log replay it replaced.
# ----------------------------------------------------------------------


def replay(graph, trace):
    """Every node's final knowledge and the largest payload's size, from
    one pass over the delivery log: the reference verification."""
    knowledge = {v: {rumor_of(v)} for v in graph.nodes()}
    max_payload = 0
    for d in trace.deliveries:
        payload = d.payload
        if (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == GOSSIP_KIND
            and isinstance(payload[1], frozenset)
        ):
            rumors = payload[1]
            knowledge[d.receiver] |= rumors
            if len(rumors) > max_payload:
                max_payload = len(rumors)
    return knowledge, max_payload


def reference_fields(graph, oracle, algorithm, scheduler):
    """``run_gossip``'s result fields, ``trace`` aside, as the replay of a
    full delivery log computes them."""
    graph, advice, trace = simulate_pair(
        graph, oracle, algorithm, scheduler=scheduler,
        max_messages=graph.num_nodes * default_message_limit(graph),
    )
    knowledge, max_payload = replay(graph, trace)
    everything = frozenset(rumor_of(v) for v in graph.nodes())
    return {
        "graph_nodes": graph.num_nodes,
        "graph_edges": graph.num_edges,
        "oracle_name": oracle.name,
        "algorithm_name": algorithm.name,
        "oracle_bits": advice.total_bits(),
        "messages": trace.messages_sent,
        "complete": all(k == everything for k in knowledge.values()),
        "quiescent": trace.completed,
        "max_payload_rumors": max_payload,
        "min_final_knowledge": min(len(k) for k in knowledge.values()),
    }


def result_fields(result: GossipResult):
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "trace"
    }


SCHEDULERS = {
    "sync": lambda: make_scheduler("sync"),
    "fifo": lambda: make_scheduler("fifo", 3),
    "random": lambda: make_scheduler("random", 3),
    # newest message first: an adversarial order
    "priority": lambda: PriorityScheduler(lambda m: -m.seq),
}

GRAPHS = {
    "complete": lambda: FAMILY_BUILDERS["complete"](8),
    "gnp_sparse": lambda: FAMILY_BUILDERS["gnp_sparse"](12),
    "grid": lambda: FAMILY_BUILDERS["grid"](9),  # tuple labels
}

PAIRS = {
    "tree": (GossipTreeOracle, TreeGossip),
    "flood": (NullOracle, FloodGossip),
}


class TestCheckMatchesReplay:
    """The check made during the run gives every field the delivery-log
    replay gives, at both trace levels."""

    @pytest.mark.parametrize("level", ("full", "counters"))
    @pytest.mark.parametrize("family", sorted(GRAPHS))
    @pytest.mark.parametrize("sched", sorted(SCHEDULERS))
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_fields_equal(self, pair, sched, family, level):
        oracle_cls, algorithm_cls = PAIRS[pair]
        graph = GRAPHS[family]()
        expected = reference_fields(
            graph, oracle_cls(), algorithm_cls(), SCHEDULERS[sched]()
        )
        result = run_gossip(
            graph, oracle_cls(), algorithm_cls(), scheduler=SCHEDULERS[sched](),
            trace_level=level,
        )
        assert result_fields(result) == expected
        assert expected["complete"] and expected["quiescent"]
        assert result.trace.trace_level == level
        assert bool(result.trace.deliveries) == (level == "full")


class _Forging:
    """A node's context whose sends pass through ``forge`` first."""

    def __init__(self, ctx, forge) -> None:
        self._ctx = ctx
        self._forge = forge

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def send(self, payload, port) -> None:
        self._ctx.send(self._forge(payload), port)


class _Forged:
    """A flood-gossip scheme whose every send is rewritten by ``forge``."""

    def __init__(self, scheme, forge) -> None:
        self._scheme = scheme
        self._forge = forge

    def on_init(self, ctx) -> None:
        self._scheme.on_init(_Forging(ctx, self._forge))

    def on_receive(self, ctx, payload, port) -> None:
        self._scheme.on_receive(_Forging(ctx, self._forge), payload, port)


class ForgedGossip(Algorithm):
    """:class:`FloodGossip` with a planted fault in every payload it sends."""

    def __init__(self, forge) -> None:
        self._forge = forge

    def scheme_for(self, advice, is_source, node_id, degree):
        return _Forged(
            FloodGossip().scheme_for(advice, is_source, node_id, degree), self._forge
        )


class GossipTuple(tuple):
    """A ``tuple`` subclass: the check accepts it as the replay did."""


#: Each fault rewrites a payload; ``victim`` is a rumor of the graph.
FAULTS = {
    # nobody passes the victim's rumor on
    "drop-rumor": lambda victim, p: (p[0], p[1] - {victim}),
    # a rumor no node started with
    "foreign-rumor": lambda victim, p: (p[0], p[1] | {rumor_of("stranger")}),
    # a list, not a tuple
    "malformed": lambda victim, p: list(p),
    # the right tag and a frozenset, three fields
    "three-fields": lambda victim, p: GossipTuple((p[0], p[1], "extra")),
    # a well-formed payload in a tuple subclass
    "tuple-subclass": lambda victim, p: GossipTuple(p),
}

#: The faults that must fail verification.
FAILING = {"drop-rumor", "foreign-rumor", "malformed", "three-fields"}


class TestPlantedFaults:
    """A faulty scheme fails the check exactly as it fails the replay,
    even when no delivery log is kept."""

    @pytest.mark.parametrize("family", ("complete", "grid"))
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_counters_level_flips_like_the_replay(self, fault, family):
        graph = GRAPHS[family]()
        victim = rumor_of(next(iter(graph.nodes())))
        forge = functools.partial(FAULTS[fault], victim)
        expected = reference_fields(graph, NullOracle(), ForgedGossip(forge), None)
        result = run_gossip(
            graph, NullOracle(), ForgedGossip(forge), trace_level="counters"
        )
        assert result_fields(result) == expected
        assert result.complete is (fault not in FAILING)
        n = graph.num_nodes
        if fault == "drop-rumor":
            assert result.min_final_knowledge == n - 1
        elif fault == "foreign-rumor":
            assert result.min_final_knowledge == n + 1
        elif fault in ("malformed", "three-fields"):
            assert result.min_final_knowledge == 1
            assert result.max_payload_rumors == 0
        else:
            assert result.min_final_knowledge == n
