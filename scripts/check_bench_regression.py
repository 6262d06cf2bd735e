#!/usr/bin/env python3
"""Gate performance: compare a fresh repro-bench export to its baseline.

Usage:

    python scripts/check_bench_regression.py BASELINE FRESH [--tolerance 0.25]
    python scripts/check_bench_regression.py --explain BENCH [BENCH ...]

``--explain`` prints a per-key value/delta table (baseline -> current when
two or more files are given, values and gate classification for one) and
always exits 0 — the inspection face of the same tables the gate reads.

Both files are ``repro-bench/1`` exports (``python -m repro bench-export``).
Which numbers are gated is a per-benchmark table (:data:`GATED_BENCHMARKS`):

* ``test_engine_per_delivery`` (``BENCH_engine.json``) — the ``*_fast_ns``
  and ``*_counters_ns`` per-delivery keys; ``*_legacy_ns`` is reported but
  never gated (the legacy loop is the frozen reference implementation, and
  its cost only moves when the host does).
* ``test_vectorized_per_delivery`` (``BENCH_engine.json``) — the
  multi-seed ``mega_batch_ns``; the ``*_fast_counters_ns`` baseline
  re-measurements are informational (the batch-beats-counters bound is
  asserted inside the benchmark itself, where both numbers come from the
  same process on the same host).
* ``test_profile_overhead`` (``BENCH_profile.json``) — the
  ``*_profiled_ns`` per-delivery keys (engine cost with a profiler
  attached but sinks off); the ``*_off_ns`` plain-run numbers and the
  ``*_overhead_frac`` ratios are informational here (the <10% absolute
  overhead cap is asserted inside the benchmark itself, where the two
  numbers come from the same process on the same host).

The check fails (exit 1) if any gated fresh number exceeds its baseline
by more than ``tolerance`` (default 25% — wide on purpose: CI containers
are noisy single-CPU hosts, and the asserted margins clear 25% long
before the headline claims are threatened).  Getting *faster* is always
fine — the baseline is a ceiling, not a pin; refresh the committed
baseline when improvements make it stale.  Setup problems (missing file,
bad schema, mismatched keys) exit 2, distinct from a perf verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Tuple

#: benchmark name -> (gated key suffixes, reported-but-ungated key suffixes).
#: A benchmark absent from one export is simply not checked by that
#: invocation; the CI pipeline runs this script once per BENCH file.
GATED_BENCHMARKS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "test_engine_per_delivery": (
        ("_fast_ns", "_counters_ns"),
        ("_legacy_ns",),
    ),
    "test_vectorized_per_delivery": (
        ("mega_batch_ns",),
        ("_fast_counters_ns",),
    ),
    "test_profile_overhead": (
        ("_profiled_ns",),
        ("_off_ns", "_causal_ns", "_overhead_frac"),
    ),
    # The serving daemon (BENCH_service.json): the warm-phase absolutes are
    # the product promise, so they are gated; the cold numbers and the
    # warm/cold ratio are informational (the >= 5x floor is asserted inside
    # the benchmark itself, where both phases share one process and host).
    "test_service_replay": (
        ("warm_p99_us", "warm_us_per_req"),
        (
            "cold_p50_us", "cold_p99_us", "cold_us_per_req", "cold_rps",
            "warm_p50_us", "warm_rps", "warm_speedup",
            "distinct_requests", "total_requests", "concurrency",
            "served", "cache_hits", "cache_misses",
        ),
    ),
}


def _usage_error(message: str) -> None:
    """Setup/input problems exit 2, distinct from a perf regression (1)."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def gated_numbers(path: str) -> Dict[str, Tuple[float, bool]]:
    """``{key: (value, gated?)}`` across every tabled benchmark in one
    repro-bench/1 export.

    A missing or unparsable file is a harness/setup problem, not a perf
    verdict: report it as a usage error (exit 2) instead of a traceback.
    So is an export containing none of the tabled benchmarks.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        _usage_error(f"cannot read BENCH file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        _usage_error(f"BENCH file {path!r} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        _usage_error(f"BENCH file {path!r} is not a JSON object")
    schema = data.get("schema")
    if schema != "repro-bench/1":
        _usage_error(f"{path}: unexpected schema {schema!r}")
    numbers: Dict[str, Tuple[float, bool]] = {}
    matched = False
    for bench in data.get("benchmarks", []):
        table = GATED_BENCHMARKS.get(bench.get("name"))
        if table is None:
            continue
        matched = True
        gated_suffixes, info_suffixes = table
        for key, value in bench.get("extra_info", {}).items():
            if key.endswith(gated_suffixes):
                numbers[key] = (float(value), True)
            elif key.endswith(info_suffixes):
                numbers[key] = (float(value), False)
    if not matched:
        _usage_error(
            f"{path}: no gated benchmark record "
            f"(expected one of {sorted(GATED_BENCHMARKS)})"
        )
    return numbers


#: Schema tag for the --json output, versioned like repro-bench/1.
GATE_SCHEMA = "repro-bench-gate/1"


def explain(paths, as_json: bool = False) -> int:
    """Per-key tables for any number of BENCH files; never a verdict.

    One file prints its keys with values and gate classification; two or
    more print baseline -> current deltas (first file is the baseline).
    Always exits 0 — this is the debugging face of the gate, for reading
    *why* a check passed or failed, not a second enforcement path.
    With ``as_json`` the same tables render as one machine-readable
    document (for CI annotations) instead of text.
    """
    tables = [(path, gated_numbers(path)) for path in paths]
    if as_json:
        document = {
            "schema": GATE_SCHEMA,
            "mode": "explain",
            "files": [
                {
                    "path": path,
                    "keys": [
                        {"key": key, "value": value, "gated": gated}
                        for key, (value, gated) in sorted(numbers.items())
                    ],
                }
                for path, numbers in tables
            ],
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    if len(tables) == 1:
        path, numbers = tables[0]
        print(f"{path}: {len(numbers)} tabled key(s)")
        for key in sorted(numbers):
            value, gated = numbers[key]
            kind = "gated" if gated else "info"
            print(f"  {key:42s} {value:14.4f} [{kind}]")
        return 0
    base_path, base = tables[0]
    for path, current in tables[1:]:
        print(f"{base_path} (baseline) -> {path}: ")
        for key in sorted(set(base) | set(current)):
            gated = (base.get(key) or current[key])[1]
            kind = "gated" if gated else "info"
            if key not in base:
                print(f"  {key:42s} {'(absent)':>14s} -> {current[key][0]:14.4f} [{kind}]")
                continue
            if key not in current:
                print(f"  {key:42s} {base[key][0]:14.4f} -> {'(absent)':>14s} [{kind}]")
                continue
            base_value, current_value = base[key][0], current[key][0]
            if base_value > 0:
                delta = f"{current_value / base_value - 1.0:+7.1%}"
            else:
                delta = "    n/a"
            print(
                f"  {key:42s} {base_value:14.4f} -> {current_value:14.4f} "
                f"({delta}) [{kind}]"
            )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="+",
        metavar="BENCH",
        help="repro-bench exports: BASELINE FRESH to gate, or any number "
        "of files with --explain",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional slowdown before failing (default 0.25)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print per-key value/delta tables for the given files and "
        "exit 0 (no gating)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the same per-key table as one repro-bench-gate/1 JSON "
        "document (for CI annotations); exit codes are unchanged",
    )
    args = parser.parse_args(argv)

    if args.explain:
        return explain(args.paths, as_json=args.json)
    if len(args.paths) != 2:
        _usage_error(
            f"gating takes exactly two BENCH files (BASELINE FRESH), "
            f"got {len(args.paths)}; use --explain to inspect any number"
        )
    base = gated_numbers(args.paths[0])
    fresh = gated_numbers(args.paths[1])

    # A key present in only one file is a harness/export mismatch, not a
    # perf verdict: name the asymmetry clearly and exit distinctly (2)
    # instead of dressing it up as a regression (or crashing on lookup).
    only_base = sorted(set(base) - set(fresh))
    only_fresh = sorted(set(fresh) - set(base))
    if only_base or only_fresh:
        print(
            "error: benchmark keys differ between the two BENCH files "
            "(did the benchmark or its export change without refreshing "
            "the committed baseline?):",
            file=sys.stderr,
        )
        for key in only_base:
            print(f"  {key}: only in baseline {args.paths[0]}", file=sys.stderr)
        for key in only_fresh:
            print(f"  {key}: only in fresh run {args.paths[1]}", file=sys.stderr)
        return 2

    failures = []
    rows = []
    for key in sorted(base):
        base_value, gated = base[key]
        fresh_value, _ = fresh[key]
        if gated and base_value <= 0:
            print(
                f"error: non-positive baseline value for {key}: {base_value}",
                file=sys.stderr,
            )
            return 2
        if base_value > 0:
            ratio = fresh_value / base_value
            delta = f"{ratio - 1.0:+6.0%}"
        else:
            # Informational near-zero baselines (e.g. an overhead fraction
            # that measured ~0): a ratio would be noise, show raw values.
            ratio = None
            delta = "  n/a "
        verdict = "ok"
        if gated and ratio is not None and ratio > 1.0 + args.tolerance:
            verdict = "REGRESSION"
            unit = next((u for u in ("ns", "us") if key.endswith("_" + u)), "")
            failures.append(
                f"{key}: {fresh_value:.0f}{unit} vs baseline {base_value:.0f}{unit} "
                f"({ratio - 1.0:+.0%})"
            )
        elif not gated:
            verdict = "info"
        rows.append(
            {
                "key": key,
                "gated": gated,
                "baseline": base_value,
                "fresh": fresh_value,
                "ratio": ratio,
                "verdict": verdict,
            }
        )
        if not args.json:
            print(
                f"{key:42s} {base_value:12.4f} -> {fresh_value:12.4f} "
                f"({delta}) [{verdict}]"
            )
    if args.json:
        document = {
            "schema": GATE_SCHEMA,
            "mode": "gate",
            "baseline": args.paths[0],
            "fresh": args.paths[1],
            "tolerance": args.tolerance,
            "ok": not failures,
            "regressions": sum(1 for r in rows if r["verdict"] == "REGRESSION"),
            "keys": rows,
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    if failures:
        print(
            f"\nFAIL: {len(failures)} gated metric(s) regressed beyond "
            f"{args.tolerance:.0%}:",
            file=sys.stderr,
        )
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    if not args.json:
        print(f"\nok: gated benchmark cost within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
