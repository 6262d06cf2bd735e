"""Bench-results emitter: pytest-benchmark JSON → a ``repro-bench/1`` document.

``pytest benchmarks/ --benchmark-json=raw.json`` writes a large
machine-specific document.  :func:`convert_benchmark_json` distills it to
the stable facts a perf trajectory needs — per-benchmark timing stats and
the ``extra_info`` the bench files attach — and :func:`emit_bench_obs`
writes that to a file.  CI exports the engine, profile and service
benchmarks this way and compares them against the committed
``BENCH_*.json`` baselines with ``scripts/check_bench_regression.py``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = ["convert_benchmark_json", "emit_bench_obs", "BENCH_SCHEMA"]

#: Schema tag written into every emitted document.
BENCH_SCHEMA = "repro-bench/1"

#: The pytest-benchmark stats fields worth keeping, in output order.
_STAT_FIELDS = ("min", "max", "mean", "stddev", "median", "rounds", "iterations")


def convert_benchmark_json(data: Dict[str, Any]) -> Dict[str, Any]:
    """Distill a loaded pytest-benchmark document to the committed shape."""
    benchmarks = data.get("benchmarks")
    if not isinstance(benchmarks, list):
        raise ValueError("not a pytest-benchmark JSON document (no 'benchmarks' list)")
    rows: List[Dict[str, Any]] = []
    for bench in sorted(benchmarks, key=lambda b: str(b.get("fullname", b.get("name")))):
        stats = bench.get("stats", {})
        row: Dict[str, Any] = {
            "name": bench.get("name"),
            "group": bench.get("group"),
        }
        for field in _STAT_FIELDS:
            if field in stats:
                key = field if field in ("rounds", "iterations") else f"{field}_s"
                row[key] = stats[field]
        extra = bench.get("extra_info") or {}
        if extra:
            row["extra_info"] = extra
        rows.append(row)
    machine = data.get("machine_info") or {}
    out: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "pytest_benchmark_version": data.get("version"),
        "machine": {
            key: machine.get(key)
            for key in ("python_version", "python_implementation", "machine", "system")
            if machine.get(key) is not None
        },
        "benchmarks": rows,
    }
    if data.get("datetime"):
        out["datetime"] = data["datetime"]
    return out


def emit_bench_obs(in_path: str, out_path: str) -> Dict[str, Any]:
    """Convert ``in_path`` (pytest-benchmark JSON) and write ``out_path``.

    Returns the emitted document.  Output is pretty-printed with sorted
    keys so committed diffs stay reviewable.
    """
    with open(in_path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    converted = convert_benchmark_json(data)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(converted, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return converted
