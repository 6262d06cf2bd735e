"""The fast path's contract: byte-identical to the legacy engine.

``repro.fastpath`` is allowed to exist only because nothing observable
changes when it runs.  These tests hold it to that:

* at ``trace_level="full"`` the fast path's :class:`ExecutionTrace` is
  *dataclass-equal* to the legacy engine's and the telemetry JSONL is
  *byte-equal* — per scheduler, per seed, per mode (anonymous, wakeup,
  no-source, message/step limits, ``stop_when_informed``);
* at ``trace_level="counters"`` every surviving counter still matches
  the full trace, and the event stream is untouched (trace level governs
  retention, never emission);
* the compiled flat-array topology answers exactly like the graph it
  was compiled from, is attached at ``freeze()``, and is pickled with
  the graph.

The committed ``BENCH_engine.json`` claims the speedup; this file is why
the speedup is safe to take.
"""

import heapq
import io
import pickle
import random

import pytest

from repro.algorithms.flooding import Flooding
from repro.algorithms.scheme_b import SchemeB
from repro.algorithms.tree_wakeup import TreeWakeup
from repro.core.oracle import NullOracle
from repro.core.tasks import run_broadcast, run_wakeup
from repro.fastpath import CompiledTopology, compile_topology, compiled_topology
from repro.network import GraphError, PortLabeledGraph, complete_graph_star
from repro.network.constructions import sample_edge_tuple, subdivision_family_graph
from repro.obs.observe import Observation
from repro.obs.sinks import JSONLSink
from repro.oracles.light_tree import LightTreeBroadcastOracle
from repro.oracles.spanning_tree import SpanningTreeWakeupOracle
from repro.simulator.engine import Simulation
from repro.simulator.schedulers import SynchronousScheduler, make_scheduler
from repro.simulator.trace import TraceLevelError

from conftest import small_graph_zoo

SEEDS = (0, 1, 2)
SCHEDULERS = ("sync", "fifo", "random", "delay-hello")

#: (task, oracle factory, algorithm factory) — one advice-free pair and
#: the paper's two upper-bound pairs, so the identity check covers empty
#: advice, tree-structured advice, and the wakeup discipline.
PAIRS = (
    ("broadcast", NullOracle, Flooding),
    ("broadcast", LightTreeBroadcastOracle, SchemeB),
    ("wakeup", SpanningTreeWakeupOracle, TreeWakeup),
)


def _graphs():
    rng = random.Random(7)
    return [
        complete_graph_star(12),
        subdivision_family_graph(11, sample_edge_tuple(11, 11, rng)),
    ]


def _run_one(graph, task, oracle, algorithm, scheduler_name, seed, fastpath,
             monkeypatch, **kwargs):
    """One task run under one engine path, with its own JSONL capture."""
    monkeypatch.setenv("REPRO_FASTPATH", "1" if fastpath else "0")
    stream = io.StringIO()
    obs = Observation(sink=JSONLSink(stream))
    runner = run_broadcast if task == "broadcast" else run_wakeup
    result = runner(
        graph,
        oracle(),
        algorithm(),
        scheduler=make_scheduler(scheduler_name, seed=seed),
        obs=obs,
        **kwargs,
    )
    return result, stream.getvalue()


def _assert_identical(graph, task, oracle, algorithm, scheduler_name, seed,
                      monkeypatch, **kwargs):
    legacy, legacy_jsonl = _run_one(
        graph, task, oracle, algorithm, scheduler_name, seed, False,
        monkeypatch, **kwargs,
    )
    fast, fast_jsonl = _run_one(
        graph, task, oracle, algorithm, scheduler_name, seed, True,
        monkeypatch, **kwargs,
    )
    label = f"{task}/{oracle.__name__}/{scheduler_name}/seed={seed}/{kwargs}"
    assert fast.trace == legacy.trace, f"trace diverged: {label}"
    assert fast_jsonl == legacy_jsonl, f"telemetry diverged: {label}"
    assert fast == legacy, f"TaskResult diverged: {label}"


# ----------------------------------------------------------------------
# The checks.  ``tests/test_differential.py`` feeds them more graphs.
# ----------------------------------------------------------------------
def check_byte_identity(graphs, task, oracle, algorithm, scheduler_name,
                        monkeypatch, seeds=SEEDS, **kwargs):
    """Every graph and seed: same trace, JSONL and TaskResult on both loops."""
    for graph in graphs:
        for seed in seeds:
            _assert_identical(
                graph, task, oracle, algorithm, scheduler_name, seed,
                monkeypatch, **kwargs,
            )


def check_engine_modes(graphs, scheduler_name, mode, monkeypatch):
    """Engine-level switches that the task wrappers don't expose."""
    sim_kwargs = {
        "stop_when_informed": {"stop_when_informed": True},
        "max_steps": {"max_steps": 5},
        "no_source": {"no_source": True},
    }[mode]
    for graph in graphs:
        frozen = graph if graph.frozen else graph.copy().freeze()
        traces = {}
        streams = {}
        for fastpath in (False, True):
            monkeypatch.setenv("REPRO_FASTPATH", "1" if fastpath else "0")
            advice = NullOracle().advise(frozen)
            alg = Flooding()
            schemes = {
                v: alg.scheme_for(advice[v], v == frozen.source, v, frozen.degree(v))
                for v in frozen.nodes()
            }
            stream = io.StringIO()
            sim = Simulation(
                frozen,
                schemes,
                advice=advice,
                scheduler=make_scheduler(scheduler_name, seed=1),
                obs=Observation(sink=JSONLSink(stream)),
                **sim_kwargs,
            )
            traces[fastpath] = sim.run()
            streams[fastpath] = stream.getvalue()
        assert traces[True] == traces[False], f"trace diverged: {mode}"
        assert streams[True] == streams[False], f"telemetry diverged: {mode}"


def check_counters_downgrade(graph, task, oracle, algorithm, monkeypatch):
    """Counters mode keeps every counter and the whole event stream."""
    runner = run_broadcast if task == "broadcast" else run_wakeup
    for fastpath in (False, True):
        monkeypatch.setenv("REPRO_FASTPATH", "1" if fastpath else "0")
        stream_full, stream_counters = io.StringIO(), io.StringIO()
        full = runner(
            graph, oracle(), algorithm(),
            obs=Observation(sink=JSONLSink(stream_full)),
        )
        counters = runner(
            graph, oracle(), algorithm(),
            obs=Observation(sink=JSONLSink(stream_counters)),
            trace_level="counters",
        )
        assert stream_counters.getvalue() == stream_full.getvalue()
        assert counters.trace.messages_sent == full.trace.messages_sent
        assert counters.trace.delivered == full.trace.delivered
        assert counters.trace.rounds == full.trace.rounds
        assert counters.trace.informed_at == full.trace.informed_at
        assert counters.trace.completed == full.trace.completed
        assert counters.trace.deliveries == []
        assert counters.trace.per_round_deliveries() == full.trace.per_round_deliveries()
        assert sum(counters.trace.round_counts.values()) == full.trace.delivered
        assert counters.success == full.success
        with pytest.raises(TraceLevelError):
            counters.trace.history_of(graph.source)
        with pytest.raises(TraceLevelError):
            counters.trace.edges_used()


@pytest.mark.parametrize("scheduler_name", SCHEDULERS)
@pytest.mark.parametrize(
    "task,oracle,algorithm", PAIRS, ids=lambda p: getattr(p, "__name__", p)
)
def test_byte_identity(task, oracle, algorithm, scheduler_name, monkeypatch):
    check_byte_identity(_graphs(), task, oracle, algorithm, scheduler_name, monkeypatch)


@pytest.mark.parametrize("scheduler_name", SCHEDULERS)
def test_byte_identity_modes(scheduler_name, monkeypatch):
    """The awkward modes: limits, anonymity, early stop, missing source."""
    for kwargs in ({"anonymous": True}, {"max_messages": 7}):
        check_byte_identity(
            _graphs()[1:], "broadcast", NullOracle, Flooding, scheduler_name,
            monkeypatch, seeds=(0,), **kwargs,
        )


@pytest.mark.parametrize("scheduler_name", SCHEDULERS)
@pytest.mark.parametrize("mode", ["stop_when_informed", "max_steps", "no_source"])
def test_byte_identity_engine_modes(scheduler_name, mode, monkeypatch):
    check_engine_modes(_graphs(), scheduler_name, mode, monkeypatch)


def test_counters_downgrade_consistency(monkeypatch):
    check_counters_downgrade(
        _graphs()[0], "broadcast", LightTreeBroadcastOracle, SchemeB, monkeypatch
    )


def test_counters_rejects_audit():
    graph = _graphs()[0]
    with pytest.raises(ValueError, match="audit"):
        run_broadcast(
            graph, LightTreeBroadcastOracle(), SchemeB(),
            audit=True, trace_level="counters",
        )


def test_compiled_topology_matches_graph():
    """The flat arrays answer exactly like the graph's rows."""
    for graph in small_graph_zoo() + _graphs():
        if not graph.frozen:
            graph = graph.copy().freeze()
        topo = compiled_topology(graph)
        assert isinstance(topo, CompiledTopology)
        assert topo.num_nodes == graph.num_nodes
        assert topo.num_edges == graph.num_edges
        assert list(topo.labels) == list(graph.nodes())
        for i, v in enumerate(topo.labels):
            assert topo.index[v] == i
            assert topo.degrees[i] == graph.degree(v)
            assert topo.reprs[i] == repr(v)
            for port in range(graph.degree(v)):
                slot = topo.offsets[i] + port
                u = topo.labels[topo.neighbor_at[slot]]
                assert graph.port(v, u) == port
                assert graph.port(u, v) == topo.arrival_at[slot]
        assert topo.labels[topo.source_index] == graph.source


def test_compiled_topology_bounds_checked():
    """A frozen graph's ``neighbor_via`` reads the tables, within bounds."""
    graph = complete_graph_star(5)
    for v, port in ((1, 99), (1, 4), (1, -1), (99, 0)):
        with pytest.raises(GraphError, match=f"no port {port} at node {v}"):
            graph.neighbor_via(v, port)
    assert graph.neighbor_via(1, 3) == 5


def test_topology_attached_at_freeze_and_pickled_with_the_graph():
    g = PortLabeledGraph()
    for v in range(3):
        g.add_node(v)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.set_source(0)
    with pytest.raises(ValueError):
        compiled_topology(g)  # unfrozen graphs have no stable topology
    g.freeze()
    assert g._compiled is not None
    assert compiled_topology(g) is g._compiled  # attached, not recompiled
    clone = pickle.loads(pickle.dumps(g))
    assert clone.frozen
    topo = compiled_topology(clone)
    for name in CompiledTopology.__slots__:
        assert getattr(topo, name) == getattr(g._compiled, name), name
    assert clone.neighbor_via(1, 1) == 2


def test_sync_pop_order_matches_heap():
    """Interleaved push/pop delivers in heap order on the legacy key.

    The reference is ``heapq`` on ``(deliver_at, repr(receiver),
    arrival_port, seq)``.  Pushes land in the round being popped as well
    as in earlier and later ones, which exercises ``_advance``'s
    fold-back branch; mixed int/str receivers make ``repr`` order differ
    from label order.
    """
    from repro.simulator.messages import InFlightMessage

    rng = random.Random(3)
    receivers = (0, 1, 2, 10, "a", "b")
    for _ in range(3000):
        scheduler, heap = SynchronousScheduler(), []
        seq = 0
        for _ in range(rng.randrange(1, 30)):
            if heap and rng.random() < 0.4:
                assert scheduler.pop() is heapq.heappop(heap)[1]
                continue
            seq += 1
            msg = InFlightMessage(
                payload=f"p{seq}",
                sender=rng.randrange(5),
                receiver=rng.choice(receivers),
                send_port=0,
                arrival_port=rng.randrange(3),
                sender_informed=True,
                seq=seq,
                deliver_at=rng.randrange(1, 4),
            )
            scheduler.push(msg)
            key = (msg.deliver_at, repr(msg.receiver), msg.arrival_port, msg.seq)
            heapq.heappush(heap, (key, msg))
        while heap:
            assert not scheduler.empty()
            assert scheduler.pop() is heapq.heappop(heap)[1]
        assert scheduler.empty()


def test_fastpath_escape_hatch(monkeypatch):
    """REPRO_FASTPATH=0 really does route through the legacy loop."""
    graph = complete_graph_star(6)
    monkeypatch.setenv("REPRO_FASTPATH", "0")
    calls = {}
    original = Simulation._run_legacy

    def spy(self):
        calls["legacy"] = True
        return original(self)

    monkeypatch.setattr(Simulation, "_run_legacy", spy)
    result = run_broadcast(graph, NullOracle(), Flooding())
    assert result.success and calls.get("legacy")
