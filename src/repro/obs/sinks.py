"""Event sinks: where the structured stream goes.

A sink is anything with ``enabled``, ``emit(event)``, and ``close()``.
Three are provided:

* :class:`NullSink` — the default everywhere; ``enabled`` is False, so hot
  paths skip event *construction* entirely (one attribute check per
  operation is the whole overhead budget).
* :class:`MemorySink` — collects events in a list; what the tests and the
  in-process consumers use.
* :class:`JSONLSink` — one compact JSON object per line, keys sorted, no
  timestamps: byte-identical across same-seed runs (see
  :mod:`repro.obs.events` for why).

:class:`TeeSink` fans one stream out to several sinks.
"""

from __future__ import annotations

import json
from typing import IO, Any, List, Optional, Protocol, runtime_checkable

from .events import Event

__all__ = ["EventSink", "NullSink", "MemorySink", "JSONLSink", "TeeSink", "encode_event"]


#: One encoder for every event: ``json.dumps`` with these keywords builds
#: a new one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_event(event: Event) -> str:
    """The canonical JSONL encoding: compact separators, sorted keys."""
    return _ENCODER.encode(event.to_dict())


@runtime_checkable
class EventSink(Protocol):
    """Structural interface every sink satisfies."""

    enabled: bool

    def emit(self, event: Event) -> None:  # pragma: no cover - protocol
        ...

    def close(self) -> None:  # pragma: no cover - protocol
        ...


class NullSink:
    """Discard everything; ``enabled=False`` lets emitters skip event
    construction altogether."""

    enabled = False

    def emit(self, event: Event) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink:
    """Keep every event in :attr:`events`, in emission order."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class JSONLSink:
    """Append events to ``path`` (or a file-like object), one JSON per line.

    Usable as a context manager; :meth:`close` is idempotent and leaves
    externally supplied streams open.
    """

    enabled = True

    def __init__(self, path_or_stream: Any) -> None:
        if hasattr(path_or_stream, "write"):
            self._stream: Optional[IO[str]] = path_or_stream
            self._owns = False
            self.path: Optional[str] = getattr(path_or_stream, "name", None)
        else:
            self.path = str(path_or_stream)
            self._stream = open(self.path, "w", encoding="utf-8")
            self._owns = True
        self.count = 0

    def emit(self, event: Event) -> None:
        if self._stream is None:
            raise ValueError("JSONLSink is closed")
        self._stream.write(encode_event(event))
        self._stream.write("\n")
        self.count += 1

    def close(self) -> None:
        stream, self._stream = self._stream, None
        if stream is not None:
            if self._owns:
                stream.close()
            else:
                stream.flush()

    def __enter__(self) -> "JSONLSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TeeSink:
    """Deliver each event to every child sink (enabled iff any child is)."""

    def __init__(self, *sinks: EventSink) -> None:
        self.sinks = tuple(sinks)
        self.enabled = any(s.enabled for s in self.sinks)

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            if sink.enabled:
                sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
