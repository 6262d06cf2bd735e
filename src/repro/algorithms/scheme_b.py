"""Scheme B — the broadcast scheme of Theorem 3.1 (paper Figure 1).

Each node ``x`` keeps three port sets:

* ``K_x`` — incident tree edges *known* to ``x``: initially the ports decoded
  from its advice (tree edges whose weight equals their port number at
  ``x``), later extended by every port on which the source message ``M`` or
  a ``hello`` arrives;
* ``H_x`` — ports on which a ``hello`` may still be owed: initialized to the
  advice ports and only ever emptied;
* ``S_x`` — ports through which ``M`` has already transited (sent or
  received), so ``M`` never crosses an edge twice from the same side.

Behaviour on every activation (startup and each received message):

1. a received ``M`` adds its port to ``K_x`` and ``S_x`` and marks ``x`` as
   holding ``M``; a received ``hello`` adds its port to ``K_x``;
2. if ``x`` holds ``M``, it sends ``M`` on all of ``K_x \\ S_x``, then sets
   ``S_x = K_x`` and ``H_x = H_x \\ S_x``;
3. if ``H_x`` is non-empty, ``x`` sends ``hello`` on all of it and empties it.

Step 3 fires at startup for every non-source node that got advice — the
*spontaneous* transmissions that distinguish broadcast from wakeup and let an
endpoint that knows a tree edge tell the other endpoint about it before the
source message ever arrives.  ``M`` crosses each tree edge at most once and
``hello`` crosses each tree edge at most once (only one endpoint is advised
per edge), so the message complexity is at most ``2(n - 1)``.

The scheme ignores node identifiers and uses two constant-size payloads, so
Theorem 3.1's upper bound holds anonymously, asynchronously, and with
bounded-size messages — experiment E7 exercises all three.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Set

from ..core.scheme import Algorithm
from ..encoding import BitString, decode_weight_list
from ..simulator.node import NodeContext
from .tree_wakeup import SOURCE_MESSAGE

__all__ = ["SchemeB", "HELLO_MESSAGE", "safe_decode_weight_ports"]

#: The control payload announcing "the edge you received this on is in T0".
HELLO_MESSAGE = "hello"


def safe_decode_weight_ports(advice: BitString, degree: int) -> List[int]:
    """Decode weight-list advice into local ports, surviving damaged advice.

    Tree-edge weights handed to a node equal port numbers *at that node*, so
    valid values lie in ``0..degree-1``; anything else (or an undecodable
    tail) is dropped rather than crashing the scheme.
    """
    try:
        weights = decode_weight_list(advice)
    except (ValueError, EOFError):
        return []
    return [w for w in weights if 0 <= w < degree]


class _SchemeBProcess:
    """The per-node state machine transcribed from Figure 1."""

    def __init__(self) -> None:
        self._known: Set[int] = set()  # K_x
        self._hello_owed: Set[int] = set()  # H_x
        self._transited: Set[int] = set()  # S_x
        self._has_message = False

    def on_init(self, ctx: NodeContext) -> None:
        self._known = set(safe_decode_weight_ports(ctx.advice, ctx.degree))
        self._hello_owed = set(self._known)
        self._has_message = ctx.is_source
        self._act(ctx)

    def on_receive(self, ctx: NodeContext, payload, port: int) -> None:
        if payload == SOURCE_MESSAGE:
            self._known.add(port)
            self._transited.add(port)
            self._has_message = True
        elif payload == HELLO_MESSAGE:
            self._known.add(port)
        self._act(ctx)

    def _act(self, ctx: NodeContext) -> None:
        if self._has_message:
            for port in sorted(self._known - self._transited):
                ctx.send(SOURCE_MESSAGE, port)
            self._transited |= self._known
            self._hello_owed -= self._transited
        if self._hello_owed:
            for port in sorted(self._hello_owed):
                ctx.send(HELLO_MESSAGE, port)
            self._hello_owed.clear()


class SchemeB(Algorithm):
    """The Theorem 3.1 broadcast algorithm (pair with the light-tree oracle)."""

    is_wakeup_algorithm = False  # it transmits spontaneously, by design
    anonymous_safe = True

    def scheme_for(
        self,
        advice: BitString,
        is_source: bool,
        node_id: Optional[Hashable],
        degree: int,
    ) -> _SchemeBProcess:
        return _SchemeBProcess()
