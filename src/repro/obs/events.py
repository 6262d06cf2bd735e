"""Typed telemetry events: the vocabulary of the structured run stream.

Every observable moment in the library — a run starting, a round boundary,
a send, a delivery, a safety limit, an audit failure, a runner retry, an
adversary probe — is one frozen dataclass here.  Events carry
**logical** information only: no wall-clock timestamps, no memory
addresses, nothing host-dependent.  That discipline is what makes the
JSONL event stream *deterministic*: two runs with the same seed produce
byte-identical streams, so a saved trace is a reproducible artifact, not a
log file.  (Wall-clock timings exist too, but they live in the separate
``timings`` registry populated by :meth:`repro.obs.Observation.span` —
see :mod:`repro.obs.observe`.)

Serialization: :meth:`Event.to_dict` produces a JSON-ready dict with the
event ``kind`` first; payloads and node labels that are not natively
JSON-representable are rendered through :func:`jsonable` (sets sort into
lists, anything else beyond the scalar types becomes its ``repr``), which
keeps the stream loadable anywhere while staying deterministic — including
across ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Any, ClassVar, Dict, Optional, Tuple, Type

__all__ = [
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
]

_SCALARS = (str, int, float, bool, type(None))
#: Exact types :meth:`Event.to_dict` copies without calling :func:`jsonable`
#: (which returns them unchanged).  Subclasses such as ``numpy.float64``
#: are not in it and still go through :func:`jsonable`.
_PLAIN = frozenset(_SCALARS)


def jsonable(value: Any) -> Any:
    """Render ``value`` for the JSONL stream: scalars pass through,
    dicts/lists/tuples recurse, sets render *sorted*, everything else
    becomes its ``repr``.

    ``repr`` is deterministic for the payloads and node labels the library
    uses (strings, ints, tuples), which is all the determinism guarantee
    needs.  Sets and frozensets must not fall through to ``repr``: their
    iteration order follows ``PYTHONHASHSEED`` whenever they hold strings
    (gossip rumor sets, payload alphabets), which would make the trace
    bytes differ between identically-seeded runs.  They are rendered as a
    sorted list — ordered by canonical JSON encoding, which totally orders
    mixed-type elements — so the stream is hash-randomization-independent.
    """
    if isinstance(value, bool) or isinstance(value, _SCALARS):
        return value
    if isinstance(value, dict):
        return {str(jsonable(k)): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        rendered = [jsonable(v) for v in value]
        return sorted(
            rendered, key=lambda item: json.dumps(item, sort_keys=True, default=str)
        )
    return repr(value)


@dataclass(frozen=True)
class Event:
    """Base class: a ``kind`` tag plus typed fields."""

    kind: ClassVar[str] = "event"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict, ``{"event": kind, ...fields...}``."""
        out: Dict[str, Any] = {"event": self.kind}
        for name in _field_names(type(self)):
            value = getattr(self, name)
            out[name] = value if type(value) in _PLAIN else jsonable(value)
        return out


@lru_cache(maxsize=None)
def _field_names(cls: Type[Event]) -> Tuple[str, ...]:
    """``cls``'s dataclass field names, in declaration order (computed once
    per class: :func:`dataclasses.fields` is too slow for every event)."""
    return tuple(f.name for f in fields(cls))


@dataclass(frozen=True)
class RunStarted(Event):
    """A simulation is about to execute."""

    kind: ClassVar[str] = "run_started"
    task: str
    nodes: int
    edges: int
    source: Any
    scheduler: str
    anonymous: bool
    wakeup: bool


@dataclass(frozen=True)
class RoundStarted(Event):
    """The scheduler crossed into a new delivery round."""

    kind: ClassVar[str] = "round_started"
    round: int


@dataclass(frozen=True)
class MessageSent(Event):
    """One message entered the in-flight set.

    ``cause`` is the happened-before link: the ``seq`` of the delivery
    whose receiving scheme issued this send, or ``0`` for spontaneous
    sends (the init phase, where processes run on the empty history).
    Threading it here — rather than reconstructing it from stream order —
    makes the causal DAG (:mod:`repro.obs.causal`) a pure function of the
    events, robust to filtered or re-merged streams.
    """

    kind: ClassVar[str] = "message_sent"
    seq: int
    sender: Any
    receiver: Any
    send_port: int
    arrival_port: int
    payload: Any
    sender_informed: bool
    round: int
    cause: int = 0


@dataclass(frozen=True)
class MessageDelivered(Event):
    """One message left the in-flight set and ran the receiver's scheme."""

    kind: ClassVar[str] = "message_delivered"
    step: int
    seq: int
    sender: Any
    receiver: Any
    arrival_port: int
    payload: Any
    round: int
    newly_informed: bool


@dataclass(frozen=True)
class LimitHit(Event):
    """A safety limit truncated the run."""

    kind: ClassVar[str] = "limit_hit"
    reason: str
    messages_sent: int
    step: int


@dataclass(frozen=True)
class RunEnded(Event):
    """The run reached quiescence or was truncated."""

    kind: ClassVar[str] = "run_ended"
    messages: int
    delivered: int
    rounds: int
    informed: int
    nodes: int
    undelivered: int
    completed: bool
    limit_hit: bool


@dataclass(frozen=True)
class AdviceComputed(Event):
    """An oracle produced its advice map for one network.

    ``bits_histogram`` maps advice length (bits) to the number of nodes
    receiving a string of that length — compact even on large networks,
    and exactly what the ``advice_bits_per_node`` histogram replays from.
    """

    kind: ClassVar[str] = "advice_computed"
    oracle: str
    nodes: int
    total_bits: int
    bits_histogram: Dict[int, int]


@dataclass(frozen=True)
class AuditFailed(Event):
    """A replay audit found the run diverging from its schemes."""

    kind: ClassVar[str] = "audit_failed"
    algorithm: str
    mismatches: int


@dataclass(frozen=True)
class SpanStarted(Event):
    """A named phase began (logical marker; durations live in timings)."""

    kind: ClassVar[str] = "span_started"
    name: str


@dataclass(frozen=True)
class SpanEnded(Event):
    """A named phase ended (logical marker; durations live in timings)."""

    kind: ClassVar[str] = "span_ended"
    name: str


@dataclass(frozen=True)
class CellAttemptFailed(Event):
    """One attempt at a unit of work failed (crash, timeout, or exception).

    Runner fault telemetry (see :mod:`repro.runner`) — deliberately kept
    out of the deterministic result stream, because faults are
    host-dependent.  ``error`` is an exception type name or one of the
    runner's synthetic reasons (``WorkerCrash``, ``TimeoutError``).
    """

    kind: ClassVar[str] = "cell_attempt_failed"
    experiment: str
    cell: str
    attempt: int
    error: str
    detail: str


@dataclass(frozen=True)
class CellRetried(Event):
    """A failed unit of work was requeued for another attempt."""

    kind: ClassVar[str] = "cell_retried"
    experiment: str
    cell: str
    attempt: int
    delay_s: float


@dataclass(frozen=True)
class CellFailed(Event):
    """A unit of work exhausted its retry budget and degraded to a
    structured ``failed`` row."""

    kind: ClassVar[str] = "cell_failed"
    experiment: str
    cell: str
    attempts: int
    error: str
    detail: str


@dataclass(frozen=True)
class CellResumed(Event):
    """A completed unit of work was replayed from the run journal instead
    of being recomputed (``--resume``)."""

    kind: ClassVar[str] = "cell_resumed"
    experiment: str
    cell: str


@dataclass(frozen=True)
class AdversaryProbe(Event):
    """One probe answered by the Lemma 2.1 adversary.

    ``active_before``/``active_after`` expose the halving argument live:
    the adversary's surviving instance family can at worst halve per probe
    (losing a ``|X| - r`` factor when forced to reveal a label).
    """

    kind: ClassVar[str] = "adversary_probe"
    probe: int
    edge: Tuple[int, int]
    active_before: int
    active_after: int
    answer: Optional[int]


@dataclass(frozen=True)
class ServiceStarted(Event):
    """The advice-serving daemon opened its listeners.

    Service events (see :mod:`repro.service`) form the daemon's *access
    log*: a separate stream from the deterministic result traces, like the
    runner's fault telemetry — request arrival order is scheduling-
    dependent, so these never mix into a byte-identity contract.
    """

    kind: ClassVar[str] = "service_started"
    http: str
    ipc: str
    max_pending: int


@dataclass(frozen=True)
class ServiceRequestReceived(Event):
    """One job request was admitted for handling.

    ``key`` is the request's content address (the coalescing identity);
    ``pending`` is the number of jobs in flight at admission time — the
    queue-depth signal behind the backpressure policy.
    """

    kind: ClassVar[str] = "service_request"
    job: str
    key: str
    lane: str
    pending: int


@dataclass(frozen=True)
class ServiceResponseSent(Event):
    """One response left the daemon.

    ``source`` says how the answer was produced: ``computed`` (this
    request ran the job), ``coalesced`` (it piggybacked on an identical
    in-flight request), ``cache`` (served from the response cache), or —
    for error responses — ``invalid`` / ``rejected`` / ``draining`` /
    ``failed``.
    """

    kind: ClassVar[str] = "service_response"
    job: str
    key: str
    status: str
    source: str


@dataclass(frozen=True)
class ServiceRejected(Event):
    """Backpressure: a request found the job queue full and was refused
    with a retry hint instead of being buffered without bound."""

    kind: ClassVar[str] = "service_rejected"
    job: str
    pending: int
    max_pending: int
    retry_after_s: float


@dataclass(frozen=True)
class ServiceDrained(Event):
    """The daemon finished a graceful drain: in-flight jobs completed,
    listeners closed, totals recorded."""

    kind: ClassVar[str] = "service_drained"
    served: int
    rejected: int


@dataclass(frozen=True)
class ConstructionCacheStats(Event):
    """A point-in-time snapshot of the serving daemon's construction memo.

    The counters of :class:`repro.service.jobs.ConstructionCache`, emitted
    at drain so saved streams replay the memo's effectiveness through the
    same :func:`repro.obs.metrics.apply_event` reducer ``repro stats`` uses.
    """

    kind: ClassVar[str] = "cache_stats"
    hits: int
    misses: int
    evictions: int
    entries: int


@dataclass(frozen=True)
class VerdictRendered(Event):
    """One experiment's pre-registered criterion was evaluated.

    Emitted by ``repro verdict`` per experiment so saved streams replay
    verdict counts through the same reducer ``repro stats`` uses.  Carries
    only the rendered outcome (deterministic for a given run's rows) —
    never the measurements themselves, which live in the verdict report.
    """

    kind: ClassVar[str] = "verdict_rendered"
    experiment: str
    status: str
    confirmed: int
    refuted: int
    inconclusive: int


#: kind -> event class, for readers that want to rehydrate typed events.
EVENT_KINDS: Dict[str, Type[Event]] = {
    cls.kind: cls
    for cls in (
        RunStarted,
        RoundStarted,
        MessageSent,
        MessageDelivered,
        LimitHit,
        RunEnded,
        AdviceComputed,
        AuditFailed,
        SpanStarted,
        SpanEnded,
        CellAttemptFailed,
        CellRetried,
        CellFailed,
        CellResumed,
        AdversaryProbe,
        ServiceStarted,
        ServiceRequestReceived,
        ServiceResponseSent,
        ServiceRejected,
        ServiceDrained,
        ConstructionCacheStats,
        VerdictRendered,
    )
}
