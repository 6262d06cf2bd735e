"""Differential harness: the fast path against the reference loop, widened.

``tests/test_fastpath.py`` holds the fast path to the reference loop
(``REPRO_FASTPATH=0``) on two graphs.  This file feeds the same checks
four — K*_12, a subdivided K*_11, a random G(n, p) and a random tree —
and adds the cells that file does not have:

* dataclass-equal :class:`ExecutionTrace` and equal :class:`TaskResult`
  at ``trace_level="full"``, byte-equal telemetry JSONL, across
  schedulers, seeds and task pairs;
* the awkward modes (anonymity, a message limit, a missing source) on
  both tasks;
* exact counter equality at ``trace_level="counters"``, observed and
  unobserved, with and without a safety limit that truncates the run.
"""

import random

import pytest

from repro.algorithms.flooding import Flooding
from repro.algorithms.scheme_b import SchemeB
from repro.algorithms.tree_wakeup import TreeWakeup
from repro.core.oracle import NullOracle
from repro.network import complete_graph_star
from repro.network.builders import random_connected_gnp, random_tree
from repro.network.constructions import sample_edge_tuple, subdivision_family_graph
from repro.oracles.light_tree import LightTreeBroadcastOracle
from repro.oracles.spanning_tree import SpanningTreeWakeupOracle
from repro.simulator.engine import Simulation
from repro.simulator.schedulers import make_scheduler

from test_fastpath import (
    check_byte_identity,
    check_counters_downgrade,
    check_engine_modes,
)

SEEDS = (0, 1, 2)
SCHEDULERS = ("sync", "fifo", "random", "delay-hello")

#: (task, oracle factory, algorithm factory): empty advice, tree advice,
#: and the wakeup discipline — the same coverage axes as test_fastpath.
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
        random_connected_gnp(14, 0.3, seed=3),
        random_tree(13, seed=5),
    ]


@pytest.mark.parametrize("scheduler_name", SCHEDULERS)
@pytest.mark.parametrize(
    "task,oracle,algorithm", PAIRS, ids=lambda p: getattr(p, "__name__", p)
)
def test_byte_identity(task, oracle, algorithm, scheduler_name, monkeypatch):
    check_byte_identity(_graphs(), task, oracle, algorithm, scheduler_name, monkeypatch)


@pytest.mark.parametrize("scheduler_name", SCHEDULERS)
@pytest.mark.parametrize(
    "kwargs", [{"anonymous": True}, {"max_messages": 7}], ids=("anonymous", "msg-limit")
)
def test_byte_identity_modes(scheduler_name, kwargs, monkeypatch):
    """Task-level switches: anonymity and a limit that truncates the run."""
    for task, oracle, algorithm in (PAIRS[0], PAIRS[2]):
        check_byte_identity(
            _graphs()[:2], task, oracle, algorithm, scheduler_name, monkeypatch,
            seeds=(0,), **kwargs,
        )


@pytest.mark.parametrize("scheduler_name", SCHEDULERS)
@pytest.mark.parametrize("mode", ["no_source"])
def test_byte_identity_engine_modes(scheduler_name, mode, monkeypatch):
    check_engine_modes(_graphs(), scheduler_name, mode, monkeypatch)


@pytest.mark.parametrize(
    "task,oracle,algorithm", PAIRS, ids=lambda p: getattr(p, "__name__", p)
)
def test_counters_exact(task, oracle, algorithm, monkeypatch):
    """Counters mode: every surviving counter matches the reference loop."""
    check_byte_identity(
        _graphs(), task, oracle, algorithm, "sync", monkeypatch,
        trace_level="counters",
    )


def test_counters_match_full_across_engines(monkeypatch):
    """Each loop's counters runs agree with its own full runs."""
    check_counters_downgrade(
        _graphs()[1], "wakeup", SpanningTreeWakeupOracle, TreeWakeup, monkeypatch
    )


#: Safety-limit settings for the unobserved counters cells: none, message
#: limits that truncate every graph's run, and a missing source.
QUIET_LIMITS = (
    {},
    {"max_messages": 1},
    {"max_messages": 7},
    {"no_source": True},
)


def _informed_flags(runtimes):
    return {v: rt.informed for v, rt in runtimes.items()}


@pytest.mark.parametrize("limits", QUIET_LIMITS, ids=lambda k: str(k) or "none")
@pytest.mark.parametrize(
    "oracle,algorithm",
    ((NullOracle, Flooding), (SpanningTreeWakeupOracle, TreeWakeup)),
    ids=("flooding", "tree-wakeup"),
)
def test_counters_quiet_limits(oracle, algorithm, limits, monkeypatch):
    """Unobserved counters runs, truncated or not, match the reference loop.

    With ``obs=None`` nothing but the trace and each node's runtime
    ``informed`` flag records the run, so both are compared.
    """
    wakeup = algorithm is TreeWakeup
    for graph in _graphs():
        frozen = graph if graph.frozen else graph.copy().freeze()
        advice = oracle().advise(frozen)
        for seed in SEEDS:
            runs = {}
            for fastpath in (False, True):
                monkeypatch.setenv("REPRO_FASTPATH", "1" if fastpath else "0")
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
                    **limits,
                )
                runs[fastpath] = (sim.run(), sim.runtimes)
            (ref_trace, ref_runtimes), (trace, runtimes) = runs[False], runs[True]
            label = f"{algorithm.__name__}/seed={seed}/{limits}"
            assert trace == ref_trace, f"trace diverged: {label}"
            assert _informed_flags(runtimes) == _informed_flags(
                ref_runtimes
            ), f"runtimes diverged: {label}"
