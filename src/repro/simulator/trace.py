"""Execution traces and statistics.

Every run produces an :class:`ExecutionTrace`: the global delivery log,
informed times, and the counters the paper's theorems are stated in (total
messages above all).  Traces are plain data — the lower-bound drivers and
the tests read them, and :func:`ExecutionTrace.history_of` reconstructs
the exact history object of Section 1.4 for any node from the log.

Trace levels
------------
A simulation records at one of two levels (``Simulation(trace_level=...)``):

* ``"full"`` (default) — exactly the historical behaviour: one
  :class:`DeliveryRecord` per delivered message, and every derived
  helper below (a node's history is :meth:`ExecutionTrace.history_of`).
* ``"counters"`` — only the aggregate counters: ``messages_sent``,
  ``delivered``, ``rounds``, ``informed_at``, the per-round delivery
  counts, completion flags, outputs, and undelivered messages.  The
  delivery log is skipped (that is the point — no per-delivery
  allocation), so the helpers that need the log raise
  :class:`TraceLevelError` instead of silently answering from an empty
  list.  Both levels agree on every counter they share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, NamedTuple, Optional, Set, Tuple

from ..network.graph import edge_key
from .messages import InFlightMessage

__all__ = ["DeliveryRecord", "ExecutionTrace", "TraceLevelError", "TRACE_LEVELS"]

#: Valid values for ``Simulation(trace_level=...)``.
TRACE_LEVELS = ("full", "counters")


class TraceLevelError(RuntimeError):
    """A per-delivery helper was called on a counters-only trace."""


class DeliveryRecord(NamedTuple):
    """One delivered message, in delivery order."""

    step: int
    payload: Any
    sender: Hashable
    receiver: Hashable
    send_port: int
    arrival_port: int
    sender_informed: bool
    round: int


@dataclass
class ExecutionTrace:
    """Complete record of one simulation run.

    ``delivered`` counts delivered messages at every trace level; at
    ``trace_level="full"`` it always equals ``len(deliveries)``.
    ``round_counts`` carries the per-round delivery histogram when the
    delivery log itself was not recorded.
    """

    messages_sent: int = 0
    deliveries: List[DeliveryRecord] = field(default_factory=list)
    informed_at: Dict[Hashable, int] = field(default_factory=dict)
    rounds: int = 0
    completed: bool = False
    message_limit_hit: bool = False
    undelivered: List[InFlightMessage] = field(default_factory=list)
    outputs: Dict[Hashable, Any] = field(default_factory=dict)
    delivered: int = 0
    trace_level: str = "full"
    round_counts: Dict[int, int] = field(default_factory=dict)

    def _require_full(self, helper: str) -> None:
        if self.trace_level != "full":
            raise TraceLevelError(
                f"ExecutionTrace.{helper} needs the delivery log, but this "
                f"run used trace_level={self.trace_level!r}; rerun with "
                "trace_level='full'"
            )

    def informed_nodes(self) -> Set[Hashable]:
        """Nodes that held the source message when the run ended."""
        return set(self.informed_at)

    def per_round_deliveries(self) -> Dict[int, int]:
        """Delivered-message count per round, ascending by round.

        Available at every trace level: full mode derives it from the
        delivery log, counters mode from the engine-maintained histogram.
        """
        if self.trace_level != "full":
            return dict(sorted(self.round_counts.items()))
        counts: Dict[int, int] = {}
        for d in self.deliveries:
            counts[d.round] = counts.get(d.round, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> Dict[str, Any]:
        """The run's headline numbers as one plain dict.

        Keys: ``messages`` (sent), ``delivered``, ``rounds``, ``informed``,
        ``informed_fraction`` (of nodes that ever appear in the trace;
        callers with the graph at hand should divide by ``num_nodes``
        instead — at ``trace_level="counters"`` the participant set is
        unknown and the value is ``None``), ``undelivered``, ``completed``,
        ``limit_hit``, and ``per_round`` (round -> deliveries).  This is
        what ``repro quickstart`` prints and what
        :class:`repro.core.TaskResult` summaries build on.
        """
        informed = len(self.informed_at)
        if self.trace_level == "full":
            participants = set(self.informed_at)
            for d in self.deliveries:
                participants.add(d.sender)
                participants.add(d.receiver)
            fraction: Optional[float] = (
                informed / len(participants) if participants else 0.0
            )
        else:
            fraction = None
        return {
            "messages": self.messages_sent,
            "delivered": self.delivered,
            "rounds": self.rounds,
            "informed": informed,
            "informed_fraction": fraction,
            "undelivered": len(self.undelivered),
            "completed": self.completed,
            "limit_hit": self.message_limit_hit,
            "per_round": self.per_round_deliveries(),
        }

    def history_of(self, node: Hashable) -> List[Tuple[Any, int]]:
        """The (message, arrival port) sequence received by ``node``."""
        self._require_full("history_of")
        return [
            (d.payload, d.arrival_port) for d in self.deliveries if d.receiver == node
        ]

    def messages_with_payload(self, payload: Any) -> int:
        """How many *delivered* messages carried the given payload."""
        self._require_full("messages_with_payload")
        return sum(1 for d in self.deliveries if d.payload == payload)

    def edges_used(self) -> Set[Tuple[Hashable, Hashable]]:
        """Undirected edges that carried at least one delivered message."""
        self._require_full("edges_used")
        out: Set[Tuple[Hashable, Hashable]] = set()
        for d in self.deliveries:
            out.add(edge_key(d.sender, d.receiver))
        return out

    def max_edge_traversals(self) -> int:
        """The largest number of messages carried by any single (undirected)
        edge, counting both directions."""
        self._require_full("max_edge_traversals")
        counts: Dict[Tuple[Hashable, Hashable], int] = {}
        for d in self.deliveries:
            key = edge_key(d.sender, d.receiver)
            counts[key] = counts.get(key, 0) + 1
        return max(counts.values(), default=0)

    def payload_alphabet(self) -> Set[Any]:
        """Distinct payloads observed; small = bounded-size messages."""
        self._require_full("payload_alphabet")
        return {d.payload for d in self.deliveries}

    @property
    def last_informed_round(self) -> Optional[int]:
        """Round at which the final node became informed, if any did."""
        self._require_full("last_informed_round")
        if not self.informed_at:
            return None
        steps = {d.step: d.round for d in self.deliveries}
        return max(steps.get(s, 0) for s in self.informed_at.values())
