"""The process-pool fan-out's determinism contract, and the construction memo.

The headline guarantee of :mod:`repro.runner`'s pool: a pooled run of
the registry experiments returns exactly what the serial
:func:`repro.analysis.experiments.run_experiment` returns, and writes a
``results.json`` byte-identical to the serial results at any worker
count.

The memo tests cover the serving daemon's
:class:`~repro.service.jobs.ConstructionCache`: its keys, its LRU
bound, its stats accounting, and that a job served through it is the
job computed without it, byte for byte.
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
from repro.network.builders import FAMILY_BUILDERS
from repro.oracles import LightTreeBroadcastOracle, SpanningTreeWakeupOracle, make_oracle
from repro.runner import (
    RESULTS_NAME,
    WORKERS_ENV,
    resilient_run_experiments,
    resolve_workers,
)
from repro.runner.core import experiment_result_to_dict
from repro.service import RequestError, canonical_json, execute_job, normalize_request
from repro.service.jobs import ConstructionCache

FAMILIES = ("path", "cycle", "complete")
SIZES = (3, 6, 8)

#: E1 and E4 on one small grid: the wakeup and broadcast upper bounds.
GRID = {eid: {"sizes": SIZES, "families": FAMILIES} for eid in ("E1", "E4")}


def serial_results():
    return {eid: run_experiment(eid, **kwargs) for eid, kwargs in GRID.items()}


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
        def __init__(self, workers):
            widths.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(core, "_PoolHost", RecordingHost)
    monkeypatch.setenv(WORKERS_ENV, "2")
    report = resilient_run_experiments(list(GRID), kwargs_by_id=GRID)
    assert widths == [2]
    assert_same_results(report.results, serial_results())


# ----------------------------------------------------------------------
# The daemon's construction memo
# ----------------------------------------------------------------------
def test_cache_graph_memoizes_in_memory():
    cache = ConstructionCache()
    g1 = cache.graph("path", 6)
    g2 = cache.graph("path", 6)
    assert g1 is g2
    assert g1.frozen
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert len(cache) == 1


def test_cache_keys_distinguish_kind_family_n_oracle():
    """A graph, its advice and another oracle's advice are three entries;
    so are the members of two families or two sizes."""
    cache = ConstructionCache()
    graph = cache.graph("path", 6)
    cache.graph("path", 8)
    cache.graph("cycle", 6)
    cache.advice("path", 6, SpanningTreeWakeupOracle(), graph)
    cache.advice("path", 6, LightTreeBroadcastOracle(), graph)
    assert cache.stats.hits == 0
    assert len(cache) == 5


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
    """A size the family refuses is the client's error, and is not kept."""
    cache = ConstructionCache()
    with pytest.raises(RequestError, match="n=1"):
        cache.graph("complete", 1)
    assert len(cache) == 0
    # A later, working call still builds.
    assert cache.graph("complete", 2).num_nodes == 2


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


def test_cache_lru_evicts_least_recent(monkeypatch):
    monkeypatch.setattr("repro.service.jobs.MAX_ENTRIES", 2)
    cache = ConstructionCache()
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


def test_cache_lru_counts_all_kinds(monkeypatch):
    monkeypatch.setattr("repro.service.jobs.MAX_ENTRIES", 2)
    cache = ConstructionCache()
    g = cache.graph("path", 3)
    cache.advice("path", 3, LightTreeBroadcastOracle(), g)
    cache.graph("path", 4)  # third entry: evicts the path-3 graph
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    cache.advice("path", 3, LightTreeBroadcastOracle(), g)  # advice stayed
    assert cache.stats.hits == 1


def test_fresh_scheduler_seed_reuses_the_members_graph_and_advice(monkeypatch):
    """A second ``simulate`` on one ``(family, n)`` builds nothing and
    advises nothing, and its bytes are the job's computed without a memo."""
    first, second = (
        normalize_request(
            {"job": "simulate", "family": "kstar", "n": 16, "scheduler": "random",
             "scheduler_seed": seed}
        )
        for seed in (1, 2)
    )
    expected = canonical_json(execute_job(second))
    cache = ConstructionCache()
    execute_job(first, cache)

    calls = []
    builder = FAMILY_BUILDERS["kstar"]
    oracle_cls = type(make_oracle(second["oracle"]))
    advise = oracle_cls.advise

    def counting_builder(n):
        calls.append("build")
        return builder(n)

    def counting_advise(self, graph):
        calls.append("advise")
        return advise(self, graph)

    monkeypatch.setitem(FAMILY_BUILDERS, "kstar", counting_builder)
    monkeypatch.setattr(oracle_cls, "advise", counting_advise)
    served = canonical_json(execute_job(second, cache))
    assert calls == []
    assert cache.stats.hits == 2
    assert served == expected


def test_two_oracles_on_one_member_get_their_own_advice():
    cache = ConstructionCache()
    payloads = []
    for oracle in ("light-tree", "spanning-tree"):
        params = normalize_request({"job": "advice", "family": "kstar", "n": 16, "oracle": oracle})
        payloads.append(execute_job(params, cache))
        assert canonical_json(payloads[-1]) == canonical_json(execute_job(params))
    assert payloads[0]["advice_json"] != payloads[1]["advice_json"]
    assert (cache.stats.hits, cache.stats.misses) == (1, 3)


# ----------------------------------------------------------------------
# Pool workers outlive no parent
# ----------------------------------------------------------------------
#: Starts a 2-worker pool through the runner's initializer, writes the
#: worker pids to argv[1] and SIGKILLs itself, so the pool is never shut
#: down.
_ORPHANING_PARENT = textwrap.dedent(
    """
    import os, signal, sys
    from concurrent.futures import ProcessPoolExecutor
    from repro.runner.core import init_worker

    pool = ProcessPoolExecutor(max_workers=2, initializer=init_worker)
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
