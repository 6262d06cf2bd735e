"""Benchmark configuration and shared helpers.

Each ``bench_*.py`` file times one layer under ``pytest-benchmark`` and
asserts its bound in-bench; CI distills the JSON output with
``repro bench-export`` and gates the engine, profile and service numbers
against the committed ``BENCH_*.json`` baselines.  The paper's
experiments themselves are judged by ``repro verdict``, not here.

Run everything:   pytest benchmarks/ --benchmark-only
One file:         pytest benchmarks/bench_engine.py --benchmark-only
"""


def run_once(benchmark, fn, *args, **kwargs):
    """Time a heavyweight measurement a single round (no warmup repeats)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
