"""Flooding gossip — the zero-advice gossip baseline.

Every node spontaneously announces its rumor on all ports; whenever a node
learns something new it re-announces its whole knowledge on every port
except the one the news arrived on.  Each node's knowledge grows at most
``n`` times and each growth triggers at most ``deg`` messages, so the
message complexity is ``O(n * m)`` — and on dense networks it really does
pay that, which is the gap the :class:`TreeGossip` +
:class:`repro.oracles.GossipTreeOracle` pair closes to ``2(n - 1)``
messages for ``Theta(n log n)`` advice bits (experiment E10).
"""

from __future__ import annotations

from typing import Hashable, Optional, Set

from ..core.gossip import GOSSIP_KIND, rumor_of
from ..core.scheme import Algorithm
from ..encoding import BitString
from ..simulator.node import NodeContext

__all__ = ["FloodGossip"]


class _FloodGossipScheme:
    def __init__(self) -> None:
        self._known: Set = set()

    def on_init(self, ctx: NodeContext) -> None:
        self._known.add(rumor_of(ctx.node_id))
        payload = (GOSSIP_KIND, frozenset(self._known))
        for port in range(ctx.degree):
            ctx.send(payload, port)

    def on_receive(self, ctx: NodeContext, payload, port: int) -> None:
        if not (isinstance(payload, tuple) and len(payload) == 2 and payload[0] == GOSSIP_KIND):
            return
        rumors = payload[1]
        known = self._known
        # Most receives on dense graphs bring nothing new: test before merging.
        if rumors <= known:
            return
        known |= rumors
        updated = (GOSSIP_KIND, frozenset(known))
        for p in range(ctx.degree):
            if p != port:
                ctx.send(updated, p)


class FloodGossip(Algorithm):
    """Announce-on-growth flooding; zero advice, ``O(n * m)`` messages."""

    is_wakeup_algorithm = False
    anonymous_safe = False  # reads ctx.node_id

    def scheme_for(
        self,
        advice: BitString,
        is_source: bool,
        node_id: Optional[Hashable],
        degree: int,
    ) -> _FloodGossipScheme:
        return _FloodGossipScheme()
