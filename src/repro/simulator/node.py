"""Per-node runtime: the local view a scheme executes against.

A scheme (the paper's ``S_v``) only ever sees what the model allows it to
see: its advice string ``f(v)``, its status bit ``s(v)``, its identifier
``id(v)`` (or ``None`` in anonymous runs), its degree ``deg(v)``, and the
sequence of (message, arrival port) pairs received so far — the *history* of
Section 1.4.  :class:`NodeContext` is that view plus the single action the
model offers: sending a message through a local port.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Protocol, runtime_checkable

from ..encoding import BitString
from .messages import Payload, SendRequest

__all__ = ["NodeContext", "Process", "WakeupViolation", "NodeRuntime"]


class WakeupViolation(RuntimeError):
    """A non-source node tried to transmit spontaneously during a wakeup.

    The paper's wakeup schemes "do not send any messages ... on all histories
    with no messages, unless v is the source".  The engine enforces this when
    run in wakeup mode; a violating algorithm is simply not a wakeup
    algorithm, so we fail loudly instead of miscounting.
    """


@dataclass
class NodeContext:
    """Local knowledge and send capability handed to a scheme.

    ``node_id`` is ``None`` in anonymous runs (the paper's upper bounds are
    claimed to survive anonymity; experiment E7 checks ours do).

    Besides sending, a scheme may :meth:`output` a value — the mechanism
    for *construction* tasks (build a spanning tree, elect a leader, ...)
    where each node must end the run holding a piece of the answer.  The
    last output wins; outputs are collected on the trace.
    """

    advice: BitString
    is_source: bool
    node_id: Optional[Hashable]
    degree: int
    _outbox: List[SendRequest] = field(default_factory=list)
    _output: Optional[object] = None
    _has_output: bool = False

    def output(self, value: object) -> None:
        """Record this node's piece of the task's answer."""
        self._output = value
        self._has_output = True

    @property
    def output_value(self) -> Optional[object]:
        """(Engine/tests.)  The last value passed to :meth:`output`."""
        return self._output

    @property
    def has_output(self) -> bool:
        return self._has_output

    def send(self, payload: Payload, port: int) -> None:
        """Queue ``payload`` for transmission through local ``port``.

        ``port`` must be an integer (anything :func:`operator.index`
        accepts) in ``range(degree)``; any other value raises
        :class:`ValueError`.
        """
        if type(port) is not int:
            try:
                port = operator.index(port)
            except TypeError:
                raise ValueError(
                    f"port {port!r} is not an integer, at node {self.node_id!r}"
                ) from None
        if not 0 <= port < self.degree:
            raise ValueError(
                f"port {port} out of range for degree {self.degree} at node {self.node_id!r}"
            )
        self._outbox.append(SendRequest(payload, port))

    def send_many(self, payload: Payload, ports) -> None:
        """Queue the same payload on several ports."""
        for port in ports:
            self.send(payload, port)

    def drain(self) -> List[SendRequest]:
        """(Engine only.)  Remove and return the queued sends."""
        out, self._outbox = self._outbox, []
        return out


@runtime_checkable
class Process(Protocol):
    """What a node runs: the event-driven form of a broadcast/wakeup scheme.

    ``on_init`` is the scheme evaluated on the empty history (where broadcast
    schemes may transmit spontaneously and wakeup schemes may not);
    ``on_receive`` is the scheme evaluated after each received message.  The
    full history is reconstructible from the engine's trace, so this
    event-driven formulation is equivalent to the paper's
    history-to-actions function while being natural to implement.
    """

    def on_init(self, ctx: NodeContext) -> None:  # pragma: no cover - protocol
        ...

    def on_receive(self, ctx: NodeContext, payload: Payload, port: int) -> None:  # pragma: no cover
        ...


@dataclass
class NodeRuntime:
    """Engine-side state for one node."""

    label: Hashable
    context: NodeContext
    process: Process
    informed: bool
    informed_at: Optional[int] = None
    received_count: int = 0
    sent_count: int = 0
