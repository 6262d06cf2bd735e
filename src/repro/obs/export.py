"""Reading saved JSONL streams back into metrics and stats tables.

The writer side is :class:`repro.obs.sinks.JSONLSink`; this module is the
reader: decode a stream, replay it through the same
:func:`repro.obs.metrics.apply_event` reducer the live run used, and
summarize it with the table/fit machinery in :mod:`repro.analysis`.
``repro stats`` is a thin shell around these functions.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional

from .metrics import MetricsRegistry, apply_event

__all__ = [
    "read_jsonl",
    "replay_metrics",
    "split_runs",
    "run_rows",
    "per_round_rows",
    "stats_report",
]


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Decode a JSONL event stream into a list of event dicts.

    Raises ``ValueError`` with the offending line number on malformed
    input, so a truncated or non-trace file fails loudly.
    """
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                decoded = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON ({exc.msg})") from exc
            if not isinstance(decoded, dict) or "event" not in decoded:
                raise ValueError(f"{path}:{lineno}: not a telemetry event")
            events.append(decoded)
    return events


def replay_metrics(events: Iterable[Mapping[str, Any]]) -> MetricsRegistry:
    """Fold a decoded stream into a fresh registry — the exact registry the
    live run held, because both sides share one reducer."""
    metrics = MetricsRegistry()
    for event in events:
        apply_event(metrics, event)
    return metrics


def split_runs(events: Iterable[Mapping[str, Any]]) -> List[List[Dict[str, Any]]]:
    """Group a stream into per-run slices, splitting at ``run_started``.

    Events preceding the first run (spans, advice) form their
    own leading group only if no run ever starts; otherwise they attach to
    the first run.
    """
    groups: List[List[Dict[str, Any]]] = []
    current: List[Dict[str, Any]] = []
    for event in events:
        if event.get("event") == "run_started" and any(
            e.get("event") == "run_started" for e in current
        ):
            groups.append(current)
            current = []
        current.append(dict(event))
    if current:
        groups.append(current)
    return groups


def run_rows(events: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """One table row per run: the headline counters of each execution."""
    rows: List[Dict[str, Any]] = []
    for group in split_runs(events):
        started = next((e for e in group if e.get("event") == "run_started"), None)
        ended = next((e for e in group if e.get("event") == "run_ended"), None)
        if started is None and ended is None:
            continue
        row: Dict[str, Any] = {"run": len(rows) + 1}
        if started is not None:
            row.update(
                task=started["task"],
                n=started["nodes"],
                m=started["edges"],
                scheduler=started["scheduler"],
            )
        if ended is not None:
            row.update(
                messages=ended["messages"],
                rounds=ended["rounds"],
                informed=ended["informed"],
                undelivered=ended["undelivered"],
                completed=ended["completed"],
            )
        rows.append(row)
    return rows


def per_round_rows(events: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Deliveries per round, aggregated across the whole stream."""
    counts: Dict[int, int] = {}
    for event in events:
        if event.get("event") == "message_delivered":
            counts[event["round"]] = counts.get(event["round"], 0) + 1
    return [{"round": r, "delivered": counts[r]} for r in sorted(counts)]


def stats_report(events: List[Mapping[str, Any]]) -> str:
    """Render a saved stream the way ``repro stats`` prints it:
    per-run table, per-round histogram, metrics registry, and — when the
    stream holds runs at several sizes — a growth-rate classification of
    messages against :data:`repro.analysis.fits.GROWTH_MODELS`."""
    from ..analysis.fits import classify_growth
    from ..analysis.tables import format_table

    parts: List[str] = []
    runs = run_rows(events)
    if runs:
        parts.append(format_table(runs, title=f"Runs ({len(runs)})"))
    rounds = per_round_rows(events)
    if rounds:
        parts.append("")
        parts.append(format_table(rounds, title="Deliveries per round"))
    metrics = replay_metrics(events)
    if len(metrics):
        parts.append("")
        parts.append(
            format_table(
                metrics.as_rows(),
                columns=(
                    "metric", "type", "value", "count", "sum",
                    "min", "max", "mean", "p50", "p90", "p99",
                ),
                title="Metrics",
            )
        )
    sized = [r for r in runs if "n" in r and "messages" in r]
    ns = [r["n"] for r in sized]
    if len(set(ns)) >= 2:
        fits = classify_growth(ns, [r["messages"] for r in sized])
        parts.append("")
        parts.append("Message growth (best fit first):")
        for fit in fits:
            parts.append(f"  messages ~ {fit}")
    if not parts:
        return "(empty stream)"
    return "\n".join(parts)
