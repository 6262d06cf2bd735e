"""The deterministic profiler: nested wall-clock spans with self/cumulative
time, and exporters for Chrome-trace/Perfetto JSON and collapsed-stack
flamegraph text.

This module is the *nested* extension of the flat ``Observation.span``
timings registry (see :mod:`repro.obs.observe`): a :class:`Profiler`
attached to an :class:`~repro.obs.Observation` receives every span the
library opens — plus the engine-internal phases (topology compile, the
execution loop) and per-cell experiment spans that only exist on the profiler
axis — and records them as a stack of :class:`SpanRecord` frames with
begin/end offsets, depth, and *self* time (cumulative minus children).

Discipline: wall-clock numbers live **only** here and in the ``timings``
registry.  Nothing in this module ever touches the deterministic event
stream or the event-derived metrics registry, so attaching a profiler can
never perturb the byte-identity guarantees of :mod:`repro.obs` (rules
MDL003/DET002).  The structural side of a profile — span names, nesting,
counts — *is* deterministic for a fixed workload; only the measured
seconds are host-dependent.

Exporters
---------
* :func:`chrome_trace` — the Chrome Trace Event JSON format (complete
  ``"ph": "X"`` events), loadable in ``chrome://tracing``, Perfetto UI,
  and speedscope.
* :func:`collapsed_stacks` — Brendan Gregg's collapsed-stack text
  (``root;child;leaf <self-microseconds>``), the input format of
  ``flamegraph.pl`` and every flamegraph renderer since.
* :meth:`Profiler.aggregate` / :meth:`Profiler.as_rows` — in-process
  per-phase tables (count, cumulative, self, min/max) for CLI output.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "SpanRecord",
    "PhaseStat",
    "Profiler",
    "chrome_trace",
    "chrome_trace_json",
    "collapsed_stacks",
]

#: Separator used to render a span path ("simulate/engine") in tables,
#: aggregates, and the collapsed-stack export (which itself uses ";").
PATH_SEP = "/"


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One completed span: where it sat in the stack and what it cost."""

    path: Tuple[str, ...]  # root-first chain of span names, self last
    start_s: float  # offset from the profiler's origin
    duration_s: float  # cumulative wall time
    self_s: float  # cumulative minus time spent in child spans

    @property
    def name(self) -> str:
        return self.path[-1]

    @property
    def depth(self) -> int:
        return len(self.path) - 1

    @property
    def path_str(self) -> str:
        return PATH_SEP.join(self.path)


@dataclass
class PhaseStat:
    """Aggregate of every span sharing one path."""

    path: str
    count: int = 0
    cum_s: float = 0.0
    self_s: float = 0.0
    min_s: Optional[float] = None
    max_s: Optional[float] = None

    def add(self, record: SpanRecord) -> None:
        self.count += 1
        self.cum_s += record.duration_s
        self.self_s += record.self_s
        d = record.duration_s
        self.min_s = d if self.min_s is None else min(self.min_s, d)
        self.max_s = d if self.max_s is None else max(self.max_s, d)


class _Frame:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0


class Profiler:
    """Collects nested span records.  Attach via
    ``Observation(profile=Profiler())``; every ``obs.span(...)`` /
    ``obs.wallspan(...)`` then lands here with full nesting context.

    ``begin``/``end`` must pair like brackets; :meth:`end` raises on an
    empty stack, and an unclosed span simply never produces a record
    (there is nothing sensible to report for it).
    """

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []
        self._stack: List[_Frame] = []
        self._origin = perf_counter()

    # -- the bracket API (what Observation.span drives) -----------------
    def begin(self, name: str) -> None:
        self._stack.append(_Frame(name, perf_counter()))

    def end(self) -> None:
        if not self._stack:
            raise RuntimeError("Profiler.end() without a matching begin()")
        now = perf_counter()
        frame = self._stack.pop()
        duration = now - frame.start
        path = tuple(f.name for f in self._stack) + (frame.name,)
        if self._stack:
            self._stack[-1].child_s += duration
        self.records.append(
            SpanRecord(
                path=path,
                start_s=frame.start - self._origin,
                duration_s=duration,
                self_s=duration - frame.child_s,
            )
        )

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Standalone use, without an Observation."""
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    # -- aggregation -----------------------------------------------------
    def aggregate(self) -> Dict[str, PhaseStat]:
        """Per-path totals, keyed by the ``/``-joined span path, in sorted
        path order (deterministic given a deterministic workload)."""
        stats: Dict[str, PhaseStat] = {}
        for record in self.records:
            key = record.path_str
            stat = stats.get(key)
            if stat is None:
                stat = stats[key] = PhaseStat(path=key)
            stat.add(record)
        return {key: stats[key] for key in sorted(stats)}

    def as_rows(self) -> List[Dict[str, Any]]:
        """Table rows for :func:`repro.analysis.tables.format_table`."""
        rows: List[Dict[str, Any]] = []
        for stat in self.aggregate().values():
            rows.append(
                {
                    "phase": stat.path,
                    "count": stat.count,
                    "cum_s": round(stat.cum_s, 6),
                    "self_s": round(stat.self_s, 6),
                    "min_s": round(stat.min_s, 6) if stat.min_s is not None else None,
                    "max_s": round(stat.max_s, 6) if stat.max_s is not None else None,
                }
            )
        return rows

    @property
    def total_s(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(r.duration_s for r in self.records if r.depth == 0)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def chrome_trace(profiler: Profiler, process_name: str = "repro") -> Dict[str, Any]:
    """The profile as a Chrome Trace Event document (``"ph": "X"``
    complete events, microsecond timestamps).

    Loadable in ``chrome://tracing``, https://ui.perfetto.dev, and
    speedscope.  Events are sorted by ``(ts, -dur)`` so parents precede
    the children they enclose — the order the viewers expect.
    """
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": process_name},
        }
    ]
    spans = sorted(
        profiler.records, key=lambda r: (r.start_s, -r.duration_s, r.path)
    )
    for record in spans:
        events.append(
            {
                "name": record.name,
                "cat": "phase",
                "ph": "X",
                "ts": round(record.start_s * 1e6, 3),
                "dur": round(record.duration_s * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {
                    "path": record.path_str,
                    "self_us": round(record.self_s * 1e6, 3),
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(profiler: Profiler, process_name: str = "repro") -> str:
    """:func:`chrome_trace`, serialized the way the viewers like it."""
    return json.dumps(chrome_trace(profiler, process_name), indent=1, sort_keys=True)


def collapsed_stacks(profiler: Profiler) -> str:
    """Collapsed-stack flamegraph text: one ``a;b;c <self-us>`` line per
    distinct span path, in sorted path order, weighted by **self** time in
    integer microseconds (so the flamegraph's widths add up exactly to
    wall time instead of double-counting nested spans).  Paths whose self
    time rounds to zero microseconds are kept at weight 0 so the frame
    still appears in the graph.
    """
    weights: Dict[Tuple[str, ...], int] = {}
    for record in profiler.records:
        weights[record.path] = weights.get(record.path, 0) + int(
            round(record.self_s * 1e6)
        )
    lines = [f"{';'.join(path)} {weight}" for path, weight in sorted(weights.items())]
    return "\n".join(lines) + ("\n" if lines else "")
