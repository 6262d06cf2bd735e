"""The observation handle threaded through the library's hot paths.

An :class:`Observation` bundles:

* a sink (the structured event stream — see :mod:`repro.obs.sinks`);
* ``metrics`` — the :class:`MetricsRegistry` the caller passed as
  ``metrics=``, or ``None``.  Events are folded into it *only* through the
  :func:`repro.obs.metrics.apply_event` reducer, so it is a pure function
  of the event stream; without one, nothing is folded live, and
  :func:`repro.obs.export.replay_metrics` rebuilds the same registry from
  the saved JSONL file;
* ``timings`` — a second registry holding wall-clock span durations
  (seconds, via ``time.perf_counter``).  Timings are deliberately kept out
  of both the event stream and ``metrics``: they are host-dependent, and
  mixing them in would break the byte-identical-stream guarantee.

Everything defaults to :data:`NULL_OBSERVATION` — a disabled handle whose
cost in the simulator's inner loop is one attribute check.  Code that
accepts an optional ``obs`` argument normalizes it with
:func:`resolve_obs` and then writes ``if obs.enabled:`` around event
construction.

The clock lives here, far from scheme code: schemes and oracles remain
pure functions of their histories (lint rule MDL003), while the harness
around them may time whatever it likes.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Optional

from .events import Event, SpanEnded, SpanStarted
from .metrics import MetricsRegistry, apply_event
from .profile import Profiler
from .sinks import EventSink, NullSink

__all__ = ["Observation", "NULL_OBSERVATION", "resolve_obs"]


class Observation:
    """A sink, a timings registry, and optionally metrics and a profiler.

    ``enabled`` is True when there is anywhere for *events* to go: a
    non-null sink, or a metrics registry the caller passed (metrics
    without an event file is a perfectly good way to watch a run).
    Events are folded into ``metrics`` only when a registry was passed;
    with a sink alone ``metrics`` is ``None``, and an event costs the
    sink's work and nothing more.

    Attaching a ``profile`` (:class:`repro.obs.Profiler`) deliberately
    does **not** enable the event stream: a profile-only Observation keeps
    the hot paths dark — no event construction, no metric folds — while
    every span the library opens is still recorded with full nesting,
    which is exactly what ``repro profile`` wants to measure.
    """

    __slots__ = ("sink", "metrics", "timings", "profile", "enabled")

    def __init__(
        self,
        sink: Optional[EventSink] = None,
        metrics: Optional[MetricsRegistry] = None,
        profile: Optional[Profiler] = None,
    ) -> None:
        self.sink: EventSink = sink if sink is not None else NullSink()
        self.metrics = metrics
        self.timings = MetricsRegistry()
        self.profile = profile
        self.enabled = bool(self.sink.enabled or metrics is not None)

    def emit(self, event: Event) -> None:
        """Sink the event and fold it into ``metrics`` when one was passed
        (no-op when disabled)."""
        if not self.enabled:
            return
        if self.sink.enabled:
            self.sink.emit(event)
        if self.metrics is not None:
            apply_event(self.metrics, event)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a named phase into ``timings`` (histogram ``walltime_s.<name>``).

        Emits logical :class:`SpanStarted`/:class:`SpanEnded` markers into
        the event stream; the measured duration never enters the stream.
        With a :attr:`profile` attached, the span is also recorded as a
        nested frame (self/cumulative time, Chrome-trace export).
        """
        profile = self.profile
        if not self.enabled and profile is None:
            yield
            return
        if self.enabled:
            self.emit(SpanStarted(name))
        if profile is not None:
            profile.begin(name)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            if profile is not None:
                profile.end()
            self.timings.histogram(f"walltime_s.{name}").observe(elapsed)
            if self.enabled:
                self.emit(SpanEnded(name))

    @contextmanager
    def wallspan(self, name: str) -> Iterator[None]:
        """A profiler-only span: no event-stream markers, ever.

        Used for phases that exist on only one execution path (topology
        compile, the fastpath round loop, the runner's merge): emitting
        logical markers there would break the byte-identity contracts
        between paths, so these spans live purely on the wall-clock axis.
        No-op (one attribute check) unless a profiler is attached.
        """
        profile = self.profile
        if profile is None:
            yield
            return
        profile.begin(name)
        start = perf_counter()
        try:
            yield
        finally:
            profile.end()
            elapsed = perf_counter() - start
            self.timings.histogram(f"walltime_s.{name}").observe(elapsed)

    def close(self) -> None:
        """Close the sink (flushing file sinks)."""
        self.sink.close()

    def __enter__(self) -> "Observation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: The shared disabled handle: every ``obs=None`` resolves to this.
NULL_OBSERVATION = Observation()


def resolve_obs(obs: Optional[Observation]) -> Observation:
    """``obs`` itself, or the null observation when ``None``."""
    return obs if obs is not None else NULL_OBSERVATION
