"""Observability: structured run telemetry, metrics, and trace export.

This package is the library's measurement substrate.  Three layers:

* **Events** (:mod:`repro.obs.events`) — typed, logical-only records of
  what happened: run boundaries, rounds, sends, deliveries, limit hits,
  audit failures, runner retries, adversary probes.  Deterministic by
  construction (no timestamps), so same-seed runs produce byte-identical
  JSONL streams.
* **Sinks** (:mod:`repro.obs.sinks`) — where events go: ``NullSink``
  (default, near-zero overhead), ``MemorySink``, ``JSONLSink``, ``TeeSink``.
* **Metrics** (:mod:`repro.obs.metrics`) — counters/gauges/histograms
  derived from events through one shared reducer, plus a separate
  wall-clock ``timings`` registry fed by :meth:`Observation.span`.  A
  live fold needs a registry passed as ``Observation(metrics=...)``;
  otherwise :func:`replay_metrics` rebuilds it from the saved JSONL.

Two derived layers sit on top:

* **Causal tracing** (:mod:`repro.obs.causal`) — the happened-before DAG
  of a run, rebuilt from the event stream via the ``cause`` field on
  every send: message lineage, causal depth (== rounds under the
  synchronous scheduler), critical paths, fan-out stats, DOT/JSON export.
* **Profiling** (:mod:`repro.obs.profile`) — nested wall-clock spans with
  self/cumulative time (attach a :class:`Profiler` via
  ``Observation(profile=...)``), exported as Chrome-trace JSON or
  collapsed-stack flamegraph text.  ``repro profile`` is the CLI face.

Usage::

    from repro.obs import JSONLSink, MetricsRegistry, Observation

    with Observation(JSONLSink("run.jsonl"), metrics=MetricsRegistry()) as obs:
        result = run_broadcast(graph, oracle, algorithm, obs=obs)
    print(obs.metrics.snapshot()["messages_sent"])
    print(obs.timings.snapshot())          # wall-time per phase
    # or, with no metrics= passed: replay_metrics(read_jsonl("run.jsonl"))

``repro trace`` / ``repro stats`` are the CLI faces of this package, and
:mod:`repro.obs.bench` (``repro bench-export``) distills pytest-benchmark
output into the ``repro-bench/1`` documents CI compares against the
committed ``BENCH_*.json`` baselines.
"""

from .events import (
    AdviceComputed,
    AdversaryProbe,
    AuditFailed,
    CellAttemptFailed,
    CellFailed,
    CellResumed,
    CellRetried,
    ConstructionCacheStats,
    Event,
    EVENT_KINDS,
    LimitHit,
    MessageDelivered,
    MessageSent,
    RoundStarted,
    RunEnded,
    RunStarted,
    ServiceDrained,
    ServiceRejected,
    ServiceRequestReceived,
    ServiceResponseSent,
    ServiceStarted,
    SpanEnded,
    SpanStarted,
    VerdictRendered,
    jsonable,
)
from .bench import BENCH_SCHEMA, convert_benchmark_json, emit_bench_obs
from .causal import (
    CAUSAL_SCHEMA,
    CausalDag,
    CausalTraceError,
    MessageNode,
    build_causal_dag,
    causal_dag_from_jsonl,
    causal_dags,
)
from .export import (
    per_round_rows,
    read_jsonl,
    replay_metrics,
    run_rows,
    split_runs,
    stats_report,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, apply_event
from .observe import NULL_OBSERVATION, Observation, resolve_obs
from .profile import (
    PhaseStat,
    Profiler,
    SpanRecord,
    chrome_trace,
    chrome_trace_json,
    collapsed_stacks,
)
from .sinks import EventSink, JSONLSink, MemorySink, NullSink, TeeSink, encode_event

__all__ = [
    # events
    "Event",
    "RunStarted",
    "RoundStarted",
    "MessageSent",
    "MessageDelivered",
    "LimitHit",
    "RunEnded",
    "AdviceComputed",
    "AuditFailed",
    "SpanStarted",
    "SpanEnded",
    "CellAttemptFailed",
    "CellRetried",
    "CellFailed",
    "CellResumed",
    "AdversaryProbe",
    "ServiceStarted",
    "ServiceRequestReceived",
    "ServiceResponseSent",
    "ServiceRejected",
    "ServiceDrained",
    "ConstructionCacheStats",
    "VerdictRendered",
    "EVENT_KINDS",
    "jsonable",
    # sinks
    "EventSink",
    "NullSink",
    "MemorySink",
    "JSONLSink",
    "TeeSink",
    "encode_event",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "apply_event",
    # observation
    "Observation",
    "NULL_OBSERVATION",
    "resolve_obs",
    # profiler
    "Profiler",
    "SpanRecord",
    "PhaseStat",
    "chrome_trace",
    "chrome_trace_json",
    "collapsed_stacks",
    # causal tracing
    "CAUSAL_SCHEMA",
    "CausalDag",
    "CausalTraceError",
    "MessageNode",
    "build_causal_dag",
    "causal_dags",
    "causal_dag_from_jsonl",
    # export / stats
    "read_jsonl",
    "replay_metrics",
    "split_runs",
    "run_rows",
    "per_round_rows",
    "stats_report",
    # bench emitter
    "BENCH_SCHEMA",
    "convert_benchmark_json",
    "emit_bench_obs",
]
