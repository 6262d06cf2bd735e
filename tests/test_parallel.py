"""The process-pool fan-out's determinism contract, and the construction cache.

The headline guarantee of :mod:`repro.runner`'s pool: at the same seed, a
parallel sweep produces **byte-identical** output to the serial one —
the row list, the JSONL event trace, and the metrics registry all match
exactly, for any worker count.  These tests state that contract as
executable assertions over seeds {0, 1, 2} and workers {1, 2, 4}, with
:func:`repro.analysis.sweep_families` and
:func:`repro.analysis.experiments.run_experiment` as the serial
references.

The cache tests cover both layers (memory and disk), the stats
accounting, and the picklable :class:`~repro.parallel.cache.CacheSpec`
hand-off that worker processes rebuild their caches from.
"""

import functools
import io
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.analysis import sweep_families
from repro.analysis.experiments import run_experiment
from repro.network import FAMILY_BUILDERS, path_graph
from repro.obs import JSONLSink, MetricsRegistry, Observation
from repro.oracles import LightTreeBroadcastOracle, SpanningTreeWakeupOracle
from repro.parallel import ConstructionCache, e1_e4_cell
from repro.parallel.cache import CACHE_DIR_ENV, CacheSpec, default_cache_dir
from repro.runner import (
    WORKERS_ENV,
    resilient_run_experiments,
    resilient_sweep_families,
    resolve_workers,
)

FAMILIES = ("path", "cycle", "complete")
SIZES = (3, 6, 8)


def fanned_sweep(*args, **kwargs):
    """The runner's sweep, reduced to the rows the serial sweep returns."""
    return resilient_sweep_families(*args, **kwargs).rows


def _sweep(runner, seed, **kwargs):
    """Run one observed sweep; return (rows, jsonl bytes, metrics snapshot)."""
    stream = io.StringIO()
    metrics = MetricsRegistry()
    obs = Observation(JSONLSink(stream), metrics)
    measurement = functools.partial(e1_e4_cell, seed=seed)
    rows = runner(SIZES, measurement, families=FAMILIES, obs=obs, **kwargs)
    return rows, stream.getvalue(), metrics.snapshot()


# ----------------------------------------------------------------------
# The determinism contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_parallel_sweep_byte_identical_to_serial(seed, workers):
    serial_rows, serial_jsonl, serial_metrics = _sweep(sweep_families, seed)
    par_rows, par_jsonl, par_metrics = _sweep(fanned_sweep, seed, workers=workers)
    assert par_rows == serial_rows
    assert par_jsonl == serial_jsonl  # byte-for-byte, not just same events
    assert par_metrics == serial_metrics
    assert serial_jsonl  # the comparison wasn't vacuous


def test_distinct_seeds_give_distinct_traces():
    """Guard against the equivalence test passing because seed is ignored."""
    _, jsonl0, _ = _sweep(sweep_families, 0)
    _, jsonl1, _ = _sweep(sweep_families, 1)
    assert jsonl0 != jsonl1


def test_parallel_sweep_preserves_skipped_cells():
    """Builder failures travel home as the same structured rows + events."""
    sizes = (1, 6)  # complete(1) raises; cycle rounds 1 up to 3; path measures
    measurement = functools.partial(e1_e4_cell, seed=0)

    def observed(runner, **kwargs):
        stream = io.StringIO()
        obs = Observation(JSONLSink(stream))
        rows = runner(sizes, measurement, families=FAMILIES, obs=obs, **kwargs)
        return rows, stream.getvalue()

    serial_rows, serial_jsonl = observed(sweep_families)
    par_rows, par_jsonl = observed(fanned_sweep, workers=2)
    assert par_rows == serial_rows
    assert par_jsonl == serial_jsonl
    skipped = [r for r in par_rows if r.get("skipped")]
    assert {(r["family"], r["requested_n"]) for r in skipped} == {("complete", 1)}
    assert skipped[0]["error"] == "GraphError"
    # the cycle builder rounds n=1 up to its minimum: the row records both
    rounded = next(r for r in par_rows if r["family"] == "cycle" and r["requested_n"] == 1)
    assert rounded["n"] == 3


def test_parallel_sweep_without_obs_matches_rows():
    measurement = functools.partial(e1_e4_cell, seed=2)
    serial = sweep_families(SIZES, measurement, families=FAMILIES)
    par = fanned_sweep(SIZES, measurement, families=FAMILIES, workers=2)
    assert par == serial


def test_parallel_sweep_rejects_unpicklable_measurement():
    with pytest.raises(TypeError, match="picklable"):
        resilient_sweep_families(
            (4,),
            lambda family, n, graph: {"n": n},
            families=("path",),
            workers=2,
        )


def test_parallel_sweep_rejects_unknown_family():
    with pytest.raises(KeyError):
        resilient_sweep_families(
            (4,), e1_e4_cell, families=("not_a_family",), workers=2
        )


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


def test_env_workers_used_by_sweep(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "2")
    measurement = functools.partial(e1_e4_cell, seed=0)
    par = fanned_sweep((4, 6), measurement, families=("path",))
    serial = sweep_families((4, 6), measurement, families=("path",))
    assert par == serial


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
    assert cache.stats.disk_writes == 0
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


def test_cache_advice_memoizes_and_matches_direct(tmp_path):
    cache = ConstructionCache(persist_dir=str(tmp_path))
    oracle = SpanningTreeWakeupOracle()
    graph = cache.graph("complete", 8)
    a1 = cache.advice("complete", 8, oracle, graph)
    a2 = cache.advice("complete", 8, oracle, graph)
    assert a1 is a2
    direct = oracle.advise(graph)
    assert a1.total_bits() == direct.total_bits()
    for v in graph.nodes():
        assert a1[v] == direct[v]


def test_cache_disk_round_trip(tmp_path):
    cold = ConstructionCache(persist_dir=str(tmp_path))
    graph = cold.graph("cycle", 7, seed=3)
    advice = cold.advice("cycle", 7, LightTreeBroadcastOracle(), graph, seed=3)
    assert cold.stats.disk_writes == 2

    warm = ConstructionCache(persist_dir=str(tmp_path))
    g = warm.graph("cycle", 7, seed=3)
    a = warm.advice("cycle", 7, LightTreeBroadcastOracle(), g, seed=3)
    assert warm.stats.disk_hits == 2
    assert warm.stats.misses == 0
    assert g.num_nodes == graph.num_nodes
    assert sorted(g.nodes()) == sorted(graph.nodes())
    assert a.total_bits() == advice.total_bits()


def test_cache_disk_layer_survives_clear_memory(tmp_path):
    cache = ConstructionCache(persist_dir=str(tmp_path))
    cache.graph("path", 5)
    cache.clear_memory()
    assert len(cache) == 0
    cache.graph("path", 5)
    assert cache.stats.disk_hits == 1
    assert cache.stats.misses == 1  # only the original cold build


def test_cache_builder_exception_propagates_uncached():
    cache = ConstructionCache()

    def boom():
        raise RuntimeError("no such graph")

    with pytest.raises(RuntimeError):
        cache.graph("path", 6, builder=boom)
    assert len(cache) == 0
    # A later, working call still builds.
    assert cache.graph("path", 6).num_nodes == 6


def test_cache_unwritable_dir_degrades_to_memory(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    cache = ConstructionCache(persist_dir=str(target))
    g = cache.graph("path", 5)
    assert g.num_nodes == 5
    assert cache.stats.disk_writes == 0
    assert cache.graph("path", 5) is g  # memory layer still works


def test_cache_spec_round_trip(tmp_path):
    import pickle

    spec = ConstructionCache(persist_dir=str(tmp_path)).spec()
    rebuilt = pickle.loads(pickle.dumps(spec)).build()
    assert rebuilt.persist_dir == str(tmp_path)
    assert len(rebuilt) == 0  # memory layer starts cold
    assert ConstructionCache().spec() == CacheSpec(persist_dir=None)


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    assert default_cache_dir() == str(tmp_path)
    monkeypatch.delenv(CACHE_DIR_ENV)
    assert default_cache_dir().endswith(os.path.join(".cache", "repro"))


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
# Cache + sweep integration
# ----------------------------------------------------------------------
def test_sweep_with_cache_matches_without():
    measurement = functools.partial(e1_e4_cell, seed=1)
    plain = sweep_families(SIZES, measurement, families=FAMILIES)
    cache = ConstructionCache()
    cached = sweep_families(SIZES, measurement, families=FAMILIES, cache=cache)
    assert cached == plain
    # graph per cell + two advice maps per cell, all built exactly once
    assert cache.stats.misses == 3 * len(FAMILIES) * len(SIZES)
    again = sweep_families(SIZES, measurement, families=FAMILIES, cache=cache)
    assert again == plain
    assert cache.stats.misses == 3 * len(FAMILIES) * len(SIZES)  # all warm now


def test_parallel_sweep_with_persistent_cache_matches(tmp_path):
    # Caching changes the trace relative to *no* cache (precomputed advice
    # skips the oracle span), so the fixture on both sides is
    # cache-against-cache: serial with a fresh in-memory cache, parallel
    # with a persistent one.
    serial_rows, serial_jsonl, serial_metrics = _sweep(
        sweep_families, 0, cache=ConstructionCache()
    )
    cache = ConstructionCache(persist_dir=str(tmp_path))
    par_rows, par_jsonl, par_metrics = _sweep(fanned_sweep, 0, workers=2, cache=cache)
    assert par_rows == serial_rows
    assert par_jsonl == serial_jsonl
    assert par_metrics == serial_metrics
    # workers shared the disk layer: a fresh cache can now load from it
    warm = ConstructionCache(persist_dir=str(tmp_path))
    warm.graph(FAMILIES[0], SIZES[0])
    assert warm.stats.disk_hits == 1


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


def test_cache_eviction_never_touches_disk(tmp_path):
    cache = ConstructionCache(persist_dir=str(tmp_path), max_entries=1)
    cache.graph("path", 3)
    cache.graph("path", 4)  # evicts path3 from memory only
    assert cache.stats.evictions == 1
    cache.graph("path", 3)  # comes back from disk, not a rebuild
    assert cache.stats.disk_hits == 1


def test_cache_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        ConstructionCache(max_entries=0)
    unbounded = ConstructionCache(max_entries=None)
    for n in range(3, 40):
        unbounded.graph("path", n)
    assert len(unbounded) == 37
    assert unbounded.stats.evictions == 0


def test_cache_spec_carries_max_entries(tmp_path):
    cache = ConstructionCache(persist_dir=str(tmp_path), max_entries=7)
    rebuilt = cache.spec().build()
    assert rebuilt.max_entries == 7
    assert rebuilt.persist_dir == str(tmp_path)


# ----------------------------------------------------------------------
# Disk-layer hardening: corrupt entries and crash-window recovery
# ----------------------------------------------------------------------
def _sole_disk_file(tmp_path, kind):
    files = [p for p in os.listdir(tmp_path) if p.endswith(f".{kind}.json")]
    assert len(files) == 1
    return os.path.join(str(tmp_path), files[0])


def test_corrupt_graph_entry_is_dropped_and_rebuilt(tmp_path):
    writer = ConstructionCache(persist_dir=str(tmp_path))
    original = writer.graph("path", 5)
    path = _sole_disk_file(tmp_path, "graph")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"torn":')  # a crashed writer's partial JSON
    reader = ConstructionCache(persist_dir=str(tmp_path))
    rebuilt = reader.graph("path", 5)
    assert rebuilt.num_nodes == original.num_nodes
    assert reader.stats.corrupt_dropped == 1
    assert reader.stats.misses == 1  # treated as a miss, not an error
    # the entry was deleted and rewritten whole
    fresh = ConstructionCache(persist_dir=str(tmp_path))
    fresh.graph("path", 5)
    assert fresh.stats.disk_hits == 1
    assert fresh.stats.corrupt_dropped == 0


def test_corrupt_advice_entry_is_dropped_and_rebuilt(tmp_path):
    writer = ConstructionCache(persist_dir=str(tmp_path))
    graph = writer.graph("path", 5)
    oracle = LightTreeBroadcastOracle()
    advice = writer.advice("path", 5, oracle, graph)
    path = _sole_disk_file(tmp_path, "advice")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("not json at all")
    reader = ConstructionCache(persist_dir=str(tmp_path))
    g = reader.graph("path", 5)
    again = reader.advice("path", 5, oracle, g)
    assert again.total_bits() == advice.total_bits()
    assert reader.stats.corrupt_dropped == 1


def test_corrupt_entry_with_valid_json_wrong_shape(tmp_path):
    writer = ConstructionCache(persist_dir=str(tmp_path))
    writer.graph("path", 5)
    path = _sole_disk_file(tmp_path, "graph")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"schema": "something-else/9"}')
    reader = ConstructionCache(persist_dir=str(tmp_path))
    assert reader.graph("path", 5).num_nodes == 5
    assert reader.stats.corrupt_dropped == 1


def test_recover_sweeps_orphaned_tmp_files(tmp_path):
    cache = ConstructionCache(persist_dir=str(tmp_path))
    cache.graph("path", 5)
    for name in ("abc123.tmp", "def456.tmp"):
        with open(os.path.join(str(tmp_path), name), "w") as handle:
            handle.write("partial")
    assert cache.recover() == 2
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []
    # the real entry survived the sweep
    fresh = ConstructionCache(persist_dir=str(tmp_path))
    fresh.graph("path", 5)
    assert fresh.stats.disk_hits == 1
    assert cache.recover() == 0  # idempotent


def test_recover_without_disk_layer_is_noop():
    assert ConstructionCache().recover() == 0


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
