"""The metrics registry: counters, gauges, and exact-value histograms.

Metrics are the aggregate face of the event stream.  The registry itself
is dumb storage — what gives it meaning is :func:`apply_event`, the single
reducer that folds one telemetry event into a registry.  The live
:class:`repro.obs.Observation` and the offline JSONL reader both go
through this one function, which is why ``repro stats`` on a saved trace
reproduces the in-memory metrics of the run that wrote it, bit for bit.

Histograms count exact values (our domain's distributions — queue depths,
messages per round, advice bits per node — are small non-negative
integers), so they double as the per-round tables the CLI prints.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Union

from .events import Event

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "apply_event"]

Number = Union[int, float]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[Number] = None

    def set(self, value: Number) -> None:
        self.value = value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Exact-value histogram: per-value counts plus running aggregates."""

    __slots__ = ("name", "counts", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts: Dict[Number, int] = {}
        self.count = 0
        self.total: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    def observe(self, value: Number, count: int = 1) -> None:
        if count < 1:
            raise ValueError("count must be >= 1")
        self.counts[value] = self.counts.get(value, 0) + count
        self.count += count
        self.total += value * count
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[Number]:
        """Exact nearest-rank quantile from the per-value counts.

        ``quantile(0.5)`` is the median observation; ``quantile(0)`` is the
        min and ``quantile(1)`` the max.  Exact because the histogram keeps
        every distinct value — no bucketing error to apologize for.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return None
        rank = max(1, -(-int(q * self.count * 10**9) // 10**9))  # ceil, fp-safe
        seen = 0
        for value in sorted(self.counts):
            seen += self.counts[value]
            if seen >= rank:
                return value
        return self.max

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
        }


class MetricsRegistry:
    """Named metrics, created on first use (get-or-create semantics)."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Full registry state as plain data, deterministically ordered."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def as_rows(self) -> List[Dict[str, Any]]:
        """Table rows for :func:`repro.analysis.tables.format_table`."""
        rows: List[Dict[str, Any]] = []
        for name in self.names():
            snap = self._metrics[name].snapshot()
            row: Dict[str, Any] = {"metric": name, "type": snap["type"]}
            if snap["type"] == "histogram":
                row.update(
                    count=snap["count"], sum=snap["sum"], min=snap["min"],
                    max=snap["max"], mean=snap["mean"],
                    p50=snap["p50"], p90=snap["p90"], p99=snap["p99"],
                )
            else:
                row["value"] = snap["value"]
            rows.append(row)
        return rows


def apply_event(metrics: MetricsRegistry, event: Union[Event, Mapping[str, Any]]) -> None:
    """Fold one event (typed, or a decoded JSONL dict) into ``metrics``.

    This is *the* semantics of every event kind as far as metrics are
    concerned; keeping it in one place is what makes saved streams replay
    to the exact registry the live run held.
    """
    data: Mapping[str, Any] = event.to_dict() if isinstance(event, Event) else event
    kind = data.get("event")
    if kind == "run_started":
        metrics.counter("runs").inc()
        metrics.gauge("nodes").set(data["nodes"])
        metrics.gauge("edges").set(data["edges"])
    elif kind == "round_started":
        metrics.counter("rounds_started").inc()
    elif kind == "message_sent":
        metrics.counter("messages_sent").inc()
        depth = metrics.counter("messages_sent").value - metrics.counter(
            "messages_delivered"
        ).value
        metrics.histogram("queue_depth").observe(depth)
    elif kind == "message_delivered":
        metrics.counter("messages_delivered").inc()
        metrics.histogram("messages_per_round").observe(data["round"])
        if data["newly_informed"]:
            metrics.counter("nodes_informed").inc()
            metrics.histogram("informed_at_step").observe(data["step"])
    elif kind == "limit_hit":
        metrics.counter("limit_hits").inc()
    elif kind == "run_ended":
        metrics.gauge("rounds").set(data["rounds"])
        metrics.gauge("informed").set(data["informed"])
        metrics.gauge("undelivered").set(data["undelivered"])
        metrics.gauge("completed").set(1 if data["completed"] else 0)
        nodes = data["nodes"]
        if nodes:
            metrics.gauge("informed_fraction").set(data["informed"] / nodes)
    elif kind == "advice_computed":
        metrics.gauge("oracle_bits").set(data["total_bits"])
        hist = metrics.histogram("advice_bits_per_node")
        for bits, count in data["bits_histogram"].items():
            hist.observe(int(bits), int(count))
    elif kind == "audit_failed":
        metrics.counter("audit_failures").inc()
    elif kind == "span_started":
        metrics.counter(f"spans.{data['name']}").inc()
    elif kind == "cell_attempt_failed":
        metrics.counter("runner_attempt_failures").inc()
    elif kind == "cell_retried":
        metrics.counter("runner_retries").inc()
    elif kind == "cell_failed":
        metrics.counter("runner_cells_failed").inc()
    elif kind == "cell_resumed":
        metrics.counter("runner_cells_resumed").inc()
    elif kind == "adversary_probe":
        metrics.counter("adversary_probes").inc()
        metrics.gauge("adversary_active_instances").set(data["active_after"])
    elif kind == "service_started":
        metrics.counter("service_starts").inc()
    elif kind == "service_request":
        metrics.counter("service_requests").inc()
        metrics.histogram("service_queue_depth").observe(data["pending"])
    elif kind == "service_response":
        metrics.counter("service_responses").inc()
        source = data["source"]
        if source == "computed":
            metrics.counter("service_computed").inc()
        elif source == "coalesced":
            metrics.counter("service_coalesced").inc()
        elif source == "cache":
            metrics.counter("service_cache_hits").inc()
        if data["status"] != "ok":
            metrics.counter("service_errors").inc()
    elif kind == "service_rejected":
        metrics.counter("service_rejections").inc()
    elif kind == "service_drained":
        metrics.counter("service_drains").inc()
        metrics.gauge("service_served").set(data["served"])
        metrics.gauge("service_rejected_total").set(data["rejected"])
    elif kind == "verdict_rendered":
        metrics.counter("verdicts").inc()
        metrics.counter(f"verdicts_{data['status'].lower()}").inc()
        metrics.counter("verdict_checks_confirmed").inc(data["confirmed"])
        metrics.counter("verdict_checks_refuted").inc(data["refuted"])
        metrics.counter("verdict_checks_inconclusive").inc(data["inconclusive"])
    elif kind == "cache_stats":
        for field in ("hits", "misses", "evictions", "entries"):
            metrics.gauge(f"cache_{field}").set(data[field])
    # span_ended and unknown kinds: no metric contribution.
