"""The process-pool fan-out and construction cache, measured.

Two claims, each timed and asserted:

* **Fan-out** — ``workers=4`` through
  :func:`repro.runner.resilient_sweep_families` beats the serial path on
  the E1+E4 grid while producing identical rows.  The speedup assertion
  only fires on hosts with at least two usable cores (a single-CPU
  container cannot speed anything up by forking); the measured ratio and
  the core count are recorded in ``extra_info`` either way, so the
  committed ``BENCH_parallel.json`` always says what hardware it was
  measured on.
* **Cache** — repeating the grid against a warm
  :class:`~repro.parallel.ConstructionCache` cuts wall time by at least
  30%.  Cell cost on this grid is dominated by advice computation
  (light-tree MSTs on dense graphs), which is exactly what the cache
  memoizes.

The grid leans dense (``complete``, ``kstar``, ``gnp_dense`` at
n = 256..512) so per-cell work dwarfs pool start-up, and no single cell
dominates the total.
"""

import functools
import os
import time

from conftest import run_once

from repro.analysis import sweep_families
from repro.parallel import ConstructionCache, e1_e4_cell
from repro.runner import resilient_sweep_families

FAMILIES = ("complete", "kstar", "gnp_dense")
SIZES = (256, 384, 512)
MEASUREMENT = functools.partial(e1_e4_cell, seed=0)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _compare_serial_parallel():
    start = time.perf_counter()
    serial_rows = sweep_families(SIZES, MEASUREMENT, families=FAMILIES)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel_rows = resilient_sweep_families(
        SIZES, MEASUREMENT, families=FAMILIES, workers=4
    ).rows
    parallel_s = time.perf_counter() - start
    return {
        "serial_s": serial_s,
        "workers4_s": parallel_s,
        "speedup": serial_s / parallel_s,
        "cpus": _usable_cpus(),
        "rows_match": parallel_rows == serial_rows,
        "cells": len(serial_rows),
    }


def _compare_cold_warm():
    cache = ConstructionCache()
    start = time.perf_counter()
    cold_rows = sweep_families(SIZES, MEASUREMENT, families=FAMILIES, cache=cache)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm_rows = sweep_families(SIZES, MEASUREMENT, families=FAMILIES, cache=cache)
    warm_s = time.perf_counter() - start
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_cut": 1.0 - warm_s / cold_s,
        "rows_match": warm_rows == cold_rows,
        "hits": cache.stats.hits,
        "misses": cache.stats.misses,
    }


def test_parallel_vs_serial(benchmark):
    outcome = run_once(benchmark, _compare_serial_parallel)
    for key, value in outcome.items():
        benchmark.extra_info[key] = value
    assert outcome["rows_match"], "parallel rows diverged from serial"
    if outcome["cpus"] >= 2:
        assert outcome["speedup"] >= 2.0, (
            f"workers=4 only {outcome['speedup']:.2f}x faster "
            f"on {outcome['cpus']} cpus"
        )


def test_warm_cache_cuts_repeat_grid(benchmark):
    outcome = run_once(benchmark, _compare_cold_warm)
    for key, value in outcome.items():
        benchmark.extra_info[key] = value
    assert outcome["rows_match"], "cached rows diverged"
    assert outcome["misses"] == outcome["hits"], "warm pass was not all hits"
    assert outcome["warm_cut"] >= 0.30, (
        f"warm cache only cut {outcome['warm_cut']:.0%} of repeat-grid time"
    )
