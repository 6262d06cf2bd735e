"""Property-based hardening of the simulation engine itself.

Hypothesis generates arbitrary (seeded, terminating) schemes and arbitrary
networks; the engine must uphold its contracts regardless of what the
schemes do:

* conservation — a completed run delivered exactly what was sent, and a
  truncated run delivered no more than was sent;
* informedness — the informed set starts at the source and only ever grows,
  and every informed node (except the source) received at least one message
  from an informed sender;
* locality — every delivery is consistent with the graph's port maps;
* determinism — the same seeds give bit-identical traces.

Synchronous flooding over arbitrary ER graphs, random trees and
``G_{n,S}`` gadgets must also keep its per-round informed-set growth
consistent between the counters run's step assignments and the full
run's delivery log, and its round count equal to the causal depth of the
happened-before DAG.  The implicit gadget pipeline of the numpy core
(analytic BFS tree, program counters) is pinned to the explicit graph on
the reference loop, node for node.
"""

import os
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.flooding import Flooding
from repro.algorithms.tree_wakeup import TreeWakeup
from repro.core.oracle import NullOracle
from repro.core.tasks import run_broadcast, run_wakeup
from repro.network import random_connected_gnp
from repro.network.builders import random_tree
from repro.network.constructions import sample_edge_tuple, subdivision_family_graph
from repro.obs.causal import build_causal_dag
from repro.obs.observe import Observation
from repro.obs.sinks import MemorySink
from repro.oracles.spanning_tree import SpanningTreeWakeupOracle, build_spanning_tree
from repro.simulator import Simulation, make_scheduler
from repro.vectorized.gadgets import _bfs_tree, _edge_arrays, gadget_spanning_program
from repro.vectorized import run_batch


class BudgetedRandomScheme:
    """Sends a random (seeded) batch of messages per event, up to a budget.

    Termination is guaranteed: each node sends at most ``budget`` messages
    in total, so the global send count is bounded and quiescence follows.
    """

    def __init__(self, seed: int, budget: int) -> None:
        self._rng = random.Random(seed)
        self._budget = budget

    def _maybe_send(self, ctx) -> None:
        while self._budget > 0 and self._rng.random() < 0.6:
            self._budget -= 1
            port = self._rng.randrange(ctx.degree)
            payload = self._rng.choice(("a", "b", "c"))
            ctx.send(payload, port)

    def on_init(self, ctx) -> None:
        self._maybe_send(ctx)

    def on_receive(self, ctx, payload, port) -> None:
        self._maybe_send(ctx)


def _build(seed: int, n: int):
    rng = random.Random(seed)
    return random_connected_gnp(n, 0.5, rng, port_order="random")


def _run(graph, seed: int, scheduler_name: str, budget: int = 6):
    schemes = {
        v: BudgetedRandomScheme(seed * 1000 + i, budget)
        for i, v in enumerate(sorted(graph.nodes(), key=repr))
    }
    sim = Simulation(
        graph, schemes, scheduler=make_scheduler(scheduler_name, seed)
    )
    return sim.run()


graph_params = st.tuples(
    st.integers(min_value=2, max_value=12),  # n
    st.integers(min_value=0, max_value=10**6),  # graph seed
    st.integers(min_value=0, max_value=10**6),  # scheme seed
    st.sampled_from(("sync", "fifo", "random")),
)


class TestEngineContracts:
    @settings(max_examples=40, deadline=None)
    @given(graph_params)
    def test_conservation(self, params):
        n, gseed, sseed, sched = params
        graph = _build(gseed, n)
        trace = _run(graph, sseed, sched)
        assert trace.completed
        assert len(trace.deliveries) == trace.messages_sent

    @settings(max_examples=40, deadline=None)
    @given(graph_params)
    def test_locality(self, params):
        n, gseed, sseed, sched = params
        graph = _build(gseed, n)
        trace = _run(graph, sseed, sched)
        for d in trace.deliveries:
            assert graph.neighbor_via(d.sender, d.send_port) == d.receiver
            assert graph.port(d.receiver, d.sender) == d.arrival_port

    @settings(max_examples=40, deadline=None)
    @given(graph_params)
    def test_informedness_causality(self, params):
        n, gseed, sseed, sched = params
        graph = _build(gseed, n)
        trace = _run(graph, sseed, sched)
        informed = {graph.source}
        for d in trace.deliveries:
            if d.sender_informed:
                assert d.sender in informed, "flag must reflect sender state at send time or earlier"
                informed.add(d.receiver)
        assert trace.informed_nodes() == informed

    @settings(max_examples=25, deadline=None)
    @given(graph_params)
    def test_determinism(self, params):
        n, gseed, sseed, sched = params
        graph = _build(gseed, n)
        a = _run(graph, sseed, sched)
        b = _run(graph, sseed, sched)
        assert [(d.sender, d.receiver, d.payload) for d in a.deliveries] == [
            (d.sender, d.receiver, d.payload) for d in b.deliveries
        ]

    @settings(max_examples=25, deadline=None)
    @given(graph_params, st.integers(min_value=1, max_value=15))
    def test_truncation_never_over_delivers(self, params, limit):
        n, gseed, sseed, sched = params
        graph = _build(gseed, n)
        schemes = {
            v: BudgetedRandomScheme(sseed * 1000 + i, 6)
            for i, v in enumerate(sorted(graph.nodes(), key=repr))
        }
        trace = Simulation(
            graph,
            schemes,
            scheduler=make_scheduler(sched, sseed),
            max_messages=limit,
        ).run()
        assert trace.messages_sent <= limit or trace.message_limit_hit
        assert len(trace.deliveries) <= trace.messages_sent


def _topology(kind: str, n: int, seed: int):
    """One graph from three families: ER graphs, random trees, ``G_{n,S}``."""
    rng = random.Random(seed)
    if kind == "gnp":
        return random_connected_gnp(n, 0.5, rng, port_order="random")
    if kind == "tree":
        return random_tree(n, rng)
    return subdivision_family_graph(n, sample_edge_tuple(n, n, rng))


vector_params = st.tuples(
    st.integers(min_value=4, max_value=14),  # n
    st.integers(min_value=0, max_value=10**6),  # graph seed
    st.sampled_from(("gnp", "tree", "gadget")),
)


class TestVectorizedCounters:
    """Counters-level and causal views of one synchronous flooding run."""

    @settings(max_examples=20, deadline=None)
    @given(vector_params)
    def test_informed_set_growth_matches_delivery_log(self, params):
        """Counters-lane informed steps agree with the full delivery log.

        The informed set after each round — read off the counters run's
        ``informed_at`` step thresholds — must be exactly the set the
        full run's delivery log implies (receivers of informed senders),
        and it must only ever grow.
        """
        n, gseed, kind = params
        graph = _topology(kind, n, gseed)
        full = run_broadcast(graph, NullOracle(), Flooding())
        counters = run_broadcast(
            graph, NullOracle(), Flooding(), trace_level="counters"
        )
        per_round = counters.trace.per_round_deliveries()
        informed_from_log = {full.trace.deliveries[0].sender} if full.trace.deliveries else set()
        end_step = 0
        prev: set = set()
        for r in sorted(per_round):
            end_step += per_round[r]
            by_threshold = {
                v for v, s in counters.trace.informed_at.items() if s <= end_step
            }
            for d in full.trace.deliveries:
                if d.round == r and d.sender_informed:
                    informed_from_log.add(d.receiver)
            assert by_threshold == informed_from_log, f"round {r} informed set"
            assert by_threshold >= prev, f"round {r} shrank the informed set"
            prev = by_threshold
        assert prev == counters.trace.informed_nodes()

    @settings(max_examples=20, deadline=None)
    @given(vector_params)
    def test_round_count_equals_causal_depth(self, params):
        """Synchronous flooding: rounds == longest happened-before chain."""
        n, gseed, kind = params
        graph = _topology(kind, n, gseed)
        sink = MemorySink()
        result = run_broadcast(graph, NullOracle(), Flooding(), obs=Observation(sink))
        dag = build_causal_dag(sink.events)
        assert dag.causal_depth == result.trace.rounds


class TestImplicitGadgets:
    """The analytic ``G_{n,S}`` pipeline against the explicit one."""

    gadget_params = st.tuples(
        st.integers(min_value=4, max_value=20),  # n
        st.integers(min_value=0, max_value=10**6),  # edge-tuple seed
    )

    @settings(max_examples=20, deadline=None)
    @given(gadget_params)
    def test_gadget_tree_matches_bfs(self, params):
        """The closed-form tree is exactly the oracle's BFS tree."""
        n, seed = params
        rng = random.Random(seed)
        edge_tuple = sample_edge_tuple(n, n, rng)
        graph = subdivision_family_graph(n, edge_tuple)
        par, pport, cport = _bfs_tree(n, *_edge_arrays(n, edge_tuple))
        links = {
            i + 1: (int(par[i]), int(pport[i]), int(cport[i])) for i in range(1, par.size)
        }
        parent = build_spanning_tree(graph, "bfs")
        assert {c: p for c, p in parent.items() if p is not None} == {
            c: p for c, (p, _pp, _cp) in links.items()
        }
        for child, (par, pport, cport) in links.items():
            assert graph.neighbor_via(par, pport) == child
            assert graph.neighbor_via(child, cport) == par

    @settings(max_examples=15, deadline=None)
    @given(gadget_params)
    def test_program_counters_match_explicit_run(self, params):
        """The implicit program's counters equal the reference loop's.

        The explicit side runs on the reference loop, so a fault in the
        numpy core cannot cancel out on both sides.
        """
        n, seed = params
        rng = random.Random(seed)
        edge_tuple = sample_edge_tuple(n, n, rng)
        graph = subdivision_family_graph(n, edge_tuple)
        with mock.patch.dict(os.environ, {"REPRO_FASTPATH": "0"}):
            explicit = run_wakeup(
                graph, SpanningTreeWakeupOracle(), TreeWakeup(),
                trace_level="counters",
            )
        program, oracle_bits = gadget_spanning_program(n, edge_tuple)
        rc = run_batch([program])[0]
        assert oracle_bits == explicit.oracle_bits
        assert rc.messages_sent == explicit.trace.messages_sent
        assert rc.delivered == explicit.trace.delivered
        assert rc.rounds == explicit.trace.rounds
        assert rc.completed == explicit.trace.completed
        assert dict(rc.round_counts) == explicit.trace.per_round_deliveries()
        # informed steps: dense index i holds label i+1
        steps = {
            i + 1: int(s) for i, s in enumerate(rc.informed_step) if s >= 0
        }
        steps[1] = 0  # the source, informed before any delivery
        assert steps == explicit.trace.informed_at
