"""The compiled simulation core, measured.

Two claims, each timed and asserted:

* **Per-delivery cost** — the flat-array fast path
  (:mod:`repro.fastpath`) delivers messages at least 2x cheaper than the
  legacy dict-walking loop on the paper's hard family (subdivided
  ``K*_n``), at ``trace_level="full"`` — i.e. while still producing the
  byte-identical ``ExecutionTrace``.  ``trace_level="counters"`` is
  cheaper still.  All three paths must agree on the delivered-message
  count (the cheap end of the byte-identity contract; the full contract
  lives in ``tests/test_fastpath.py``).
* **Mega batch** — the struct-of-arrays core (:mod:`repro.vectorized`),
  running five implicit ``G_{n,S}`` replicas through one array pass, is
  cheaper per delivery than the fastpath *counters* baseline on
  ``kstar_96``.  Its counters are held to the reference loop's in
  ``tests/test_engine_properties.py``.

Timings are wall-clock on whatever host runs this — the committed
``BENCH_engine.json`` records the CPU count (CI containers are often
single-CPU, which is fine: per-delivery cost is single-threaded by
nature).  Ratios between paths are hardware-independent enough to
assert; absolute nanoseconds are recorded, not asserted.
"""

import os
import random
import time

from conftest import run_once

from repro.algorithms.flooding import Flooding
from repro.core.oracle import NullOracle
from repro.network.constructions import (
    complete_graph_star,
    sample_edge_tuple,
    subdivision_family_graph,
)
from repro.simulator.engine import Simulation

#: (name, builder) — the paper's dense star family and the Theorem 2.2
#: lower-bound gadget at the largest size the seed tests exercise.
GRAPHS = (
    ("kstar_96", lambda: complete_graph_star(96)),
    (
        "subdivided_kstar_64",
        lambda: subdivision_family_graph(
            64, sample_edge_tuple(64, 64, random.Random(0))
        ),
    ),
)
REPS = 5


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _flood_sim(graph, trace_level):
    advice = NullOracle().advise(graph)
    algorithm = Flooding()
    schemes = {
        v: algorithm.scheme_for(advice[v], v == graph.source, v, graph.degree(v))
        for v in graph.nodes()
    }
    return Simulation(graph, schemes, advice=advice, trace_level=trace_level)


def _per_delivery_ns(graph, trace_level, fastpath: bool) -> dict:
    """Best-case ns per delivered message for Flooding under one engine path.

    Only ``Simulation.run`` is inside the timed region; graph build,
    advice, and scheme construction are shared setup.  One untimed warmup
    run absorbs cold dict/allocator state, and the minimum over ``REPS``
    timed runs is reported — per-op cost is a floor measurement, and the
    mean on a shared CI host mostly measures the neighbours.  The
    environment toggle is the same ``REPRO_FASTPATH=0`` escape hatch
    users get.
    """
    previous = os.environ.get("REPRO_FASTPATH")
    os.environ["REPRO_FASTPATH"] = "1" if fastpath else "0"
    try:
        _flood_sim(graph, trace_level).run()  # warmup, untimed
        best_s = float("inf")
        for _ in range(REPS):
            sim = _flood_sim(graph, trace_level)
            start = time.perf_counter()
            trace = sim.run()
            best_s = min(best_s, time.perf_counter() - start)
    finally:
        if previous is None:
            del os.environ["REPRO_FASTPATH"]
        else:
            os.environ["REPRO_FASTPATH"] = previous
    return {
        "ns_per_delivery": best_s / trace.delivered * 1e9,
        "delivered": trace.delivered,
        "completed": trace.completed,
    }


def _compare_engine_paths():
    outcome = {"cpus": _usable_cpus(), "reps": REPS}
    for name, build in GRAPHS:
        graph = build().freeze()
        legacy = _per_delivery_ns(graph, "full", fastpath=False)
        fast = _per_delivery_ns(graph, "full", fastpath=True)
        counters = _per_delivery_ns(graph, "counters", fastpath=True)
        assert legacy["delivered"] == fast["delivered"] == counters["delivered"], (
            f"{name}: engine paths disagree on delivered count"
        )
        assert legacy["completed"] and fast["completed"] and counters["completed"]
        outcome[f"{name}_delivered"] = fast["delivered"]
        outcome[f"{name}_legacy_ns"] = legacy["ns_per_delivery"]
        outcome[f"{name}_fast_ns"] = fast["ns_per_delivery"]
        outcome[f"{name}_counters_ns"] = counters["ns_per_delivery"]
        outcome[f"{name}_speedup_full"] = (
            legacy["ns_per_delivery"] / fast["ns_per_delivery"]
        )
        outcome[f"{name}_speedup_counters"] = (
            legacy["ns_per_delivery"] / counters["ns_per_delivery"]
        )
    return outcome


def _compare_vectorized_paths():
    """The fastpath counters baseline vs the multi-seed batch mode on
    implicit mega gadgets."""
    from repro.vectorized import run_batch
    from repro.vectorized.gadgets import (
        gadget_spanning_program,
        sample_edge_tuple_sparse,
    )

    outcome = {"cpus": _usable_cpus(), "reps": REPS}
    for name, build in GRAPHS:
        graph = build().freeze()
        fast = _per_delivery_ns(graph, "counters", fastpath=True)
        assert fast["completed"]
        outcome[f"{name}_delivered"] = fast["delivered"]
        outcome[f"{name}_fast_counters_ns"] = fast["ns_per_delivery"]
    # Batch multi-seed mode: five implicit G_{n,S} replicas through one
    # array pass.  Program construction (sampling, analytic BFS) is
    # setup; only the batched run is timed.
    n, seeds = 20_000, (0, 1, 2, 3, 4)
    programs = []
    for seed in seeds:
        edge_tuple = sample_edge_tuple_sparse(n, n, seed=seed)
        programs.append(gadget_spanning_program(n, edge_tuple)[0])
    run_batch(programs)  # warmup
    best_s = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        counters = run_batch(programs)
        best_s = min(best_s, time.perf_counter() - start)
    delivered = sum(rc.delivered for rc in counters)
    assert all(rc.completed for rc in counters)
    assert delivered == len(seeds) * (2 * n - 1)  # N - 1 each, N = 2n
    outcome["mega_batch_n"] = n
    outcome["mega_batch_replicas"] = len(seeds)
    outcome["mega_batch_delivered"] = delivered
    outcome["mega_batch_ns"] = best_s / delivered * 1e9
    return outcome


def test_engine_per_delivery(benchmark):
    outcome = run_once(benchmark, _compare_engine_paths)
    for key, value in outcome.items():
        benchmark.extra_info[key] = value
    assert outcome["subdivided_kstar_64_speedup_full"] >= 2.0, (
        "fast path only "
        f"{outcome['subdivided_kstar_64_speedup_full']:.2f}x cheaper per "
        "delivery on the subdivided gadget at trace_level='full'"
    )
    assert (
        outcome["subdivided_kstar_64_speedup_counters"]
        >= outcome["subdivided_kstar_64_speedup_full"]
    ), "counters mode should never be slower than full-trace mode"


def test_vectorized_per_delivery(benchmark):
    outcome = run_once(benchmark, _compare_vectorized_paths)
    for key, value in outcome.items():
        benchmark.extra_info[key] = value
    # The batch mode's whole point is that per-delivery cost at mega
    # scale undercuts the scalar counters loop.
    assert outcome["mega_batch_ns"] < outcome["kstar_96_fast_counters_ns"], (
        "mega batch mode is not cheaper per delivery than the scalar "
        "fastpath counters baseline"
    )
