"""The process-pool fan-out's determinism contract, and the construction cache.

The headline guarantee of :mod:`repro.runner`'s pool: a pooled run of
the registry experiments returns exactly what the serial
:func:`repro.analysis.experiments.run_experiment` returns, and writes a
``results.json`` byte-identical to the serial results at any worker
count; a construction cache, cold or warm, changes no result.

The cache tests cover the memory LRU, the stats accounting, and the
picklable :class:`~repro.parallel.cache.CacheSpec` hand-off that worker
processes rebuild their caches from.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.analysis.experiments import run_experiment
from repro.oracles import LightTreeBroadcastOracle, SpanningTreeWakeupOracle
from repro.parallel import ConstructionCache
from repro.parallel.cache import CacheSpec
from repro.runner import (
    RESULTS_NAME,
    WORKERS_ENV,
    resilient_run_experiments,
    resolve_workers,
)
from repro.runner.core import experiment_result_to_dict

FAMILIES = ("path", "cycle", "complete")
SIZES = (3, 6, 8)

#: E1 and E4 on one small grid: the wakeup and broadcast upper bounds.
GRID = {eid: {"sizes": SIZES, "families": FAMILIES} for eid in ("E1", "E4")}


def serial_results(cache=None):
    return {eid: run_experiment(eid, cache=cache, **kwargs) for eid, kwargs in GRID.items()}


def assert_same_results(results, reference):
    assert list(results) == list(reference)
    for eid, result in results.items():
        assert result.rows == reference[eid].rows
        assert result.findings == reference[eid].findings


# ----------------------------------------------------------------------
# The determinism contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_run_experiments_byte_identical_to_serial(tmp_path, workers):
    expected = {eid: experiment_result_to_dict(r) for eid, r in serial_results().items()}
    report = resilient_run_experiments(
        list(GRID), workers=workers, kwargs_by_id=GRID, run_dir=str(tmp_path)
    )
    assert report.ok
    written = (tmp_path / RESULTS_NAME).read_text(encoding="utf-8")
    assert written == json.dumps(expected, indent=2) + "\n"


def test_run_experiments_matches_serial_order_and_rows():
    kwargs = {
        "E1": {"sizes": (8,), "families": ("path", "cycle")},
        "E3": {"sizes": (8, 12), "families": ("complete",)},
    }
    serial = {eid: run_experiment(eid, **kwargs[eid]) for eid in ("E1", "E3")}
    par = resilient_run_experiments(["E1", "E3"], workers=2, kwargs_by_id=kwargs).results
    assert list(par) == ["E1", "E3"]
    assert [r.experiment for r in par.values()] == ["E1", "E3"]
    for eid in kwargs:
        assert par[eid].rows == serial[eid].rows


# ----------------------------------------------------------------------
# Worker-count resolution
# ----------------------------------------------------------------------
def test_resolve_workers_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "8")
    assert resolve_workers(2) == 2
    assert resolve_workers() == 8
    monkeypatch.delenv(WORKERS_ENV)
    assert resolve_workers() == 1


def test_resolve_workers_rejects_nonpositive():
    with pytest.raises(ValueError):
        resolve_workers(0)


def test_env_workers_used_by_run_experiments(monkeypatch):
    import repro.runner.core as core

    widths = []

    class RecordingHost(core._PoolHost):
        def __init__(self, workers, cache_spec):
            widths.append(workers)
            super().__init__(workers, cache_spec)

    monkeypatch.setattr(core, "_PoolHost", RecordingHost)
    monkeypatch.setenv(WORKERS_ENV, "2")
    report = resilient_run_experiments(list(GRID), kwargs_by_id=GRID)
    assert widths == [2]
    assert_same_results(report.results, serial_results())


# ----------------------------------------------------------------------
# Construction cache
# ----------------------------------------------------------------------
def test_cache_graph_memoizes_in_memory():
    cache = ConstructionCache()
    g1 = cache.graph("path", 6)
    g2 = cache.graph("path", 6)
    assert g1 is g2
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert len(cache) == 1


def test_cache_keys_distinguish_kind_family_n_seed_oracle():
    keys = {
        ConstructionCache.key("graph", "path", 6, None),
        ConstructionCache.key("graph", "path", 6, 1),
        ConstructionCache.key("graph", "path", 8, None),
        ConstructionCache.key("graph", "cycle", 6, None),
        ConstructionCache.key("advice", "path", 6, None),
        ConstructionCache.key("advice", "path", 6, None, "SpanningTree(bfs)"),
    }
    assert len(keys) == 6


def test_cache_advice_memoizes_and_matches_direct():
    cache = ConstructionCache()
    oracle = SpanningTreeWakeupOracle()
    graph = cache.graph("complete", 8)
    a1 = cache.advice("complete", 8, oracle, graph)
    a2 = cache.advice("complete", 8, oracle, graph)
    assert a1 is a2
    direct = oracle.advise(graph)
    assert a1.total_bits() == direct.total_bits()
    for v in graph.nodes():
        assert a1[v] == direct[v]


def test_cache_builder_exception_propagates_uncached():
    cache = ConstructionCache()

    def boom():
        raise RuntimeError("no such graph")

    with pytest.raises(RuntimeError):
        cache.graph("path", 6, builder=boom)
    assert len(cache) == 0
    # A later, working call still builds.
    assert cache.graph("path", 6).num_nodes == 6


def test_cache_spec_round_trip():
    import pickle

    cache = ConstructionCache(max_entries=9)
    cache.graph("path", 5)
    rebuilt = pickle.loads(pickle.dumps(cache.spec())).build()
    assert rebuilt.max_entries == 9
    assert len(rebuilt) == 0  # the entries do not travel: a worker starts cold
    assert ConstructionCache().spec() == CacheSpec()


def test_cache_stats_accounting():
    cache = ConstructionCache()
    assert cache.stats.hit_rate is None
    cache.graph("path", 4)
    cache.graph("path", 4)
    cache.graph("path", 5)
    stats = cache.stats.as_dict()
    assert stats["hits"] == 1
    assert stats["misses"] == 2
    assert stats["hit_rate"] == pytest.approx(1 / 3)


# ----------------------------------------------------------------------
# Cache + experiments integration
# ----------------------------------------------------------------------
def test_experiments_with_cache_match_without():
    plain = serial_results()
    cache = ConstructionCache()
    assert_same_results(serial_results(cache), plain)
    # E1 builds each graph and its wakeup advice, E4 its broadcast advice:
    # three constructions per cell, each built exactly once.
    cells = len(FAMILIES) * len(SIZES)
    assert cache.stats.misses == 3 * cells
    hits = cache.stats.hits
    assert_same_results(serial_results(cache), plain)
    # The warm pass is all hits: a graph and an advice lookup per
    # experiment per cell, and not one miss.
    assert cache.stats.misses == 3 * cells
    assert cache.stats.hits - hits == 4 * cells


def test_parallel_experiments_with_cache_match():
    report = resilient_run_experiments(
        list(GRID), workers=2, cache=ConstructionCache(), kwargs_by_id=GRID
    )
    assert report.ok
    assert_same_results(report.results, serial_results())


# ----------------------------------------------------------------------
# Bounded memory layer (LRU)
# ----------------------------------------------------------------------
def test_cache_lru_evicts_least_recent():
    cache = ConstructionCache(max_entries=2)
    cache.graph("path", 3)      # [path3]
    cache.graph("path", 4)      # [path3, path4]
    cache.graph("path", 3)      # touch -> [path4, path3]
    cache.graph("path", 5)      # evicts path4 -> [path3, path5]
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    cache.graph("path", 3)      # still resident
    assert cache.stats.hits == 2
    cache.graph("path", 4)      # evicted above: a fresh miss
    assert cache.stats.misses == 4
    assert cache.stats.evictions == 2


def test_cache_lru_counts_all_kinds():
    cache = ConstructionCache(max_entries=2)
    g = cache.graph("path", 3)
    cache.advice("path", 3, LightTreeBroadcastOracle(), g)
    cache.graph("path", 4)  # third entry: evicts the path-3 graph
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    cache.advice("path", 3, LightTreeBroadcastOracle(), g)  # advice stayed
    assert cache.stats.hits == 1


def test_cache_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        ConstructionCache(max_entries=0)
    unbounded = ConstructionCache(max_entries=None)
    for n in range(3, 40):
        unbounded.graph("path", n)
    assert len(unbounded) == 37
    assert unbounded.stats.evictions == 0


def test_cache_spec_carries_max_entries():
    rebuilt = ConstructionCache(max_entries=7).spec().build()
    assert rebuilt.max_entries == 7
    assert ConstructionCache(max_entries=None).spec().build().max_entries is None


# ----------------------------------------------------------------------
# Pool workers outlive no parent
# ----------------------------------------------------------------------
#: Starts a 2-worker pool through init_worker_cache, writes the worker
#: pids to argv[1] and SIGKILLs itself, so the pool is never shut down.
_ORPHANING_PARENT = textwrap.dedent(
    """
    import os, signal, sys
    from concurrent.futures import ProcessPoolExecutor
    from repro.parallel.cache import init_worker_cache

    pool = ProcessPoolExecutor(
        max_workers=2, initializer=init_worker_cache, initargs=(None,)
    )
    list(pool.map(abs, range(8)))
    with open(sys.argv[1] + ".tmp", "w") as fh:
        fh.write(" ".join(str(pid) for pid in pool._processes))
    os.replace(sys.argv[1] + ".tmp", sys.argv[1])
    os.kill(os.getpid(), signal.SIGKILL)
    """
)


def _alive(pid):
    """True while ``pid`` runs; a zombie nobody reaped counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_pool_workers_exit_when_parent_is_killed(tmp_path):
    pid_file = tmp_path / "workers.txt"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    # No pipes: orphaned workers would hold them open and hang the read.
    proc = subprocess.run(
        [sys.executable, "-c", _ORPHANING_PARENT, str(pid_file)],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL
    pids = [int(pid) for pid in pid_file.read_text().split()]
    assert len(pids) == 2
    try:
        deadline = time.monotonic() + 10.0
        while any(map(_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if _alive(pid)] == []
    finally:
        for pid in filter(_alive, pids):
            os.kill(pid, signal.SIGKILL)
