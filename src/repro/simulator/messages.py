"""Message types exchanged during a simulation.

Payloads are small constant-size tokens (strings or short tuples), matching
the paper's "bounded-size messages" regime for the upper bounds.  The engine
tags every message with bookkeeping the *algorithms never see* — sender
identity, sequence number, and whether the sender was informed at send time
(the paper's rule that the source message can be appended to any message from
an informed node).

Both records are named tuples (:class:`typing.NamedTuple`): immutable,
hashable and picklable, and cheaper to build than a slotted dataclass,
which matters because the engine builds one per send.
"""

from __future__ import annotations

from typing import Any, Hashable, NamedTuple

__all__ = ["SendRequest", "InFlightMessage"]

Payload = Any


class SendRequest(NamedTuple):
    """A scheme's instruction: send ``payload`` through local ``port``."""

    payload: Payload
    port: int


class InFlightMessage(NamedTuple):
    """A message travelling along an edge, as tracked by the engine.

    ``deliver_at`` is the synchronous round in which the message arrives
    (sent in round ``r`` → ``deliver_at = r + 1``); asynchronous schedulers
    are free to ignore it.  ``seq`` is a global send counter providing FIFO
    order and tie-breaking.  ``sender_informed`` records whether the sender
    held the source message when it sent — receiving any such message makes
    the receiver informed.
    """

    payload: Payload
    sender: Hashable
    receiver: Hashable
    send_port: int
    arrival_port: int
    sender_informed: bool
    seq: int
    deliver_at: int = 0
