"""Three-way differential harness: every engine against the legacy reference.

``tests/test_fastpath.py`` pins the fast path to the legacy loop through
the ``REPRO_FASTPATH`` escape hatch.  This file generalizes that into an
*engine-parameterized* harness: :data:`ENGINES` lists every non-legacy
engine, and each one is held to the same contract against the legacy
reference —

* dataclass-equal :class:`ExecutionTrace` and equal :class:`TaskResult`
  at ``trace_level="full"``,
* byte-equal telemetry JSONL (trace level governs retention, never
  emission),
* exact counter equality at ``trace_level="counters"``,

across schedulers, seeds, task pairs, and the awkward modes (anonymity,
message/step limits, early stop, missing source).  A future engine joins
the whole matrix by adding one string to :data:`ENGINES`.

The JSONL capture turns observation on, which keeps the vectorized engine
off its numpy core; :func:`test_counters_quiet_limits` runs unobserved
counters cells so the core — and its fallback when a safety limit would
truncate the run — face the same reference.
"""

import io
import random

import pytest

from repro.algorithms.flooding import Flooding
from repro.algorithms.scheme_b import SchemeB
from repro.algorithms.tree_wakeup import TreeWakeup
from repro.core.oracle import NullOracle
from repro.core.tasks import run_broadcast, run_wakeup
from repro.network import complete_graph_star
from repro.network.builders import random_connected_gnp, random_tree
from repro.network.constructions import sample_edge_tuple, subdivision_family_graph
from repro.obs.observe import Observation
from repro.obs.sinks import JSONLSink
from repro.oracles.light_tree import LightTreeBroadcastOracle
from repro.oracles.spanning_tree import SpanningTreeWakeupOracle
from repro.simulator.engine import ENGINES as ALL_ENGINES
from repro.simulator.engine import Simulation
from repro.simulator.schedulers import make_scheduler
from repro.vectorized import VectorLimitAbort
from repro.vectorized import engine as vectorized_engine

#: The engines under test, each diffed against the ``"legacy"`` reference.
#: Extending the matrix to a new engine is this one line.
ENGINES = ("fastpath", "vectorized")

SEEDS = (0, 1, 2)
SCHEDULERS = ("sync", "fifo", "random", "delay-hello")

#: (task, oracle factory, algorithm factory): empty advice, tree advice,
#: and the wakeup discipline — the same coverage axes as test_fastpath.
PAIRS = (
    ("broadcast", NullOracle, Flooding),
    ("broadcast", LightTreeBroadcastOracle, SchemeB),
    ("wakeup", SpanningTreeWakeupOracle, TreeWakeup),
)


def test_engine_registry_covers_matrix():
    """Every registered engine is either the reference or in the matrix."""
    assert set(ALL_ENGINES) == {"auto", "legacy"} | set(ENGINES)


def _graphs():
    rng = random.Random(7)
    return [
        complete_graph_star(12),
        subdivision_family_graph(11, sample_edge_tuple(11, 11, rng)),
        random_connected_gnp(14, 0.3, seed=3),
        random_tree(13, seed=5),
    ]


def _run_one(graph, task, oracle, algorithm, scheduler_name, seed, engine, **kwargs):
    """One task run under one (explicitly pinned) engine, JSONL captured."""
    stream = io.StringIO()
    obs = Observation(sink=JSONLSink(stream))
    runner = run_broadcast if task == "broadcast" else run_wakeup
    result = runner(
        graph,
        oracle(),
        algorithm(),
        scheduler=make_scheduler(scheduler_name, seed=seed),
        obs=obs,
        engine=engine,
        **kwargs,
    )
    return result, stream.getvalue()


def _assert_identical(graph, task, oracle, algorithm, scheduler_name, seed, **kwargs):
    """Run legacy once, then hold every matrix engine to byte-identity."""
    legacy, legacy_jsonl = _run_one(
        graph, task, oracle, algorithm, scheduler_name, seed, "legacy", **kwargs
    )
    for engine in ENGINES:
        other, other_jsonl = _run_one(
            graph, task, oracle, algorithm, scheduler_name, seed, engine, **kwargs
        )
        label = f"{engine}/{task}/{oracle.__name__}/{scheduler_name}/seed={seed}/{kwargs}"
        assert other.trace == legacy.trace, f"trace diverged: {label}"
        assert other_jsonl == legacy_jsonl, f"telemetry diverged: {label}"
        assert other == legacy, f"TaskResult diverged: {label}"


@pytest.mark.parametrize("scheduler_name", SCHEDULERS)
@pytest.mark.parametrize(
    "task,oracle,algorithm", PAIRS, ids=lambda p: getattr(p, "__name__", p)
)
def test_byte_identity(task, oracle, algorithm, scheduler_name):
    for graph in _graphs():
        for seed in SEEDS:
            _assert_identical(graph, task, oracle, algorithm, scheduler_name, seed)


@pytest.mark.parametrize("scheduler_name", SCHEDULERS)
@pytest.mark.parametrize(
    "kwargs", [{"anonymous": True}, {"max_messages": 7}], ids=("anonymous", "msg-limit")
)
def test_byte_identity_modes(scheduler_name, kwargs):
    """Task-level switches: anonymity and a limit that truncates the run."""
    for graph in _graphs()[:2]:
        _assert_identical(
            graph, "broadcast", NullOracle, Flooding, scheduler_name, 0, **kwargs
        )
        _assert_identical(
            graph, "wakeup", SpanningTreeWakeupOracle, TreeWakeup, scheduler_name, 0,
            **kwargs,
        )


@pytest.mark.parametrize("scheduler_name", SCHEDULERS)
@pytest.mark.parametrize("mode", ["stop_when_informed", "max_steps", "no_source"])
def test_byte_identity_engine_modes(scheduler_name, mode):
    """Engine-level switches that the task wrappers don't expose."""
    sim_kwargs = {
        "stop_when_informed": {"stop_when_informed": True},
        "max_steps": {"max_steps": 5},
        "no_source": {"no_source": True},
    }[mode]
    for graph in _graphs():
        frozen = graph if graph.frozen else graph.copy().freeze()
        traces = {}
        streams = {}
        for engine in ("legacy",) + ENGINES:
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
                engine=engine,
                **sim_kwargs,
            )
            traces[engine] = sim.run()
            streams[engine] = stream.getvalue()
        for engine in ENGINES:
            assert traces[engine] == traces["legacy"], f"trace diverged: {engine}/{mode}"
            assert streams[engine] == streams["legacy"], (
                f"telemetry diverged: {engine}/{mode}"
            )


@pytest.mark.parametrize(
    "task,oracle,algorithm", PAIRS, ids=lambda p: getattr(p, "__name__", p)
)
def test_counters_exact(task, oracle, algorithm):
    """Counters mode: every surviving counter matches the legacy reference."""
    for graph in _graphs():
        for seed in SEEDS:
            legacy, legacy_jsonl = _run_one(
                graph, task, oracle, algorithm, "sync", seed, "legacy",
                trace_level="counters",
            )
            for engine in ENGINES:
                other, other_jsonl = _run_one(
                    graph, task, oracle, algorithm, "sync", seed, engine,
                    trace_level="counters",
                )
                label = f"{engine}/{task}/{oracle.__name__}/seed={seed}"
                assert other.trace == legacy.trace, f"counters diverged: {label}"
                assert other_jsonl == legacy_jsonl, f"telemetry diverged: {label}"
                assert other == legacy, f"TaskResult diverged: {label}"


def test_counters_match_full_across_engines():
    """Each engine's counters runs agree with its own full runs."""
    graph = _graphs()[1]
    for engine in ("legacy",) + ENGINES:
        full, _ = _run_one(
            graph, "wakeup", SpanningTreeWakeupOracle, TreeWakeup, "sync", 0, engine
        )
        counters, _ = _run_one(
            graph, "wakeup", SpanningTreeWakeupOracle, TreeWakeup, "sync", 0, engine,
            trace_level="counters",
        )
        assert counters.trace.messages_sent == full.trace.messages_sent
        assert counters.trace.delivered == full.trace.delivered
        assert counters.trace.rounds == full.trace.rounds
        assert counters.trace.informed_at == full.trace.informed_at
        assert counters.trace.per_round_deliveries() == full.trace.per_round_deliveries()
        assert counters.trace.completed == full.trace.completed
        assert counters.trace.deliveries == []


#: Safety-limit settings for the unobserved counters cells: none, message
#: and step limits that truncate every graph's run, and a missing source.
QUIET_LIMITS = (
    {},
    {"max_messages": 1},
    {"max_messages": 7},
    {"max_steps": 1},
    {"max_steps": 5},
    {"no_source": True},
)


def _runtime_counters(runtimes):
    return {
        v: (rt.sent_count, rt.received_count, rt.informed, rt.informed_at)
        for v, rt in runtimes.items()
    }


@pytest.mark.parametrize("limits", QUIET_LIMITS, ids=lambda k: str(k) or "none")
@pytest.mark.parametrize(
    "oracle,algorithm",
    ((NullOracle, Flooding), (SpanningTreeWakeupOracle, TreeWakeup)),
    ids=("flooding", "tree-wakeup"),
)
def test_counters_quiet_limits(oracle, algorithm, limits, monkeypatch):
    """Unobserved counters runs: the numpy core and its limit fallback.

    With ``obs=None`` every vectorized cell reaches ``run_batch``.  The
    core must raise :class:`VectorLimitAbort` exactly for the runs a limit
    truncates, and the fallback must then reproduce the truncation.  Each
    engine's trace and per-node runtime counters match legacy.
    """
    outcome = {"ran": 0, "aborted": 0}
    run_batch = vectorized_engine.run_batch

    def counting_run_batch(replicas):
        try:
            counters = run_batch(replicas)
        except VectorLimitAbort:
            outcome["aborted"] += 1
            raise
        outcome["ran"] += 1
        return counters

    monkeypatch.setattr(vectorized_engine, "run_batch", counting_run_batch)
    wakeup = algorithm is TreeWakeup
    cells = 0
    truncated = 0
    for graph in _graphs():
        frozen = graph if graph.frozen else graph.copy().freeze()
        advice = oracle().advise(frozen)
        for seed in SEEDS:
            runs = {}
            for engine in ("legacy",) + ENGINES:
                alg = algorithm()
                schemes = {
                    v: alg.scheme_for(advice[v], v == frozen.source, v, frozen.degree(v))
                    for v in frozen.nodes()
                }
                sim = Simulation(
                    frozen,
                    schemes,
                    advice=advice,
                    scheduler=make_scheduler("sync", seed=seed),
                    wakeup=wakeup,
                    obs=None,
                    trace_level="counters",
                    engine=engine,
                    **limits,
                )
                runs[engine] = (sim.run(), sim.runtimes)
            cells += 1
            legacy_trace, legacy_runtimes = runs["legacy"]
            truncated += legacy_trace.message_limit_hit
            for engine in ENGINES:
                trace, runtimes = runs[engine]
                label = f"{engine}/{algorithm.__name__}/seed={seed}/{limits}"
                assert trace == legacy_trace, f"trace diverged: {label}"
                assert _runtime_counters(runtimes) == _runtime_counters(
                    legacy_runtimes
                ), f"runtimes diverged: {label}"
    assert outcome["ran"] + outcome["aborted"] == cells
    assert outcome["aborted"] == truncated
