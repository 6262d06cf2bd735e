"""The headline measurement: wakeup vs broadcast difficulty separation.

The paper's central claim is quantitative: achieving *linear message
complexity* costs ``Theta(n log n)`` advice bits for wakeup but only
``Theta(n)`` for broadcast.  :func:`separation_profile` measures both sides
on the same networks — the oracle sizes of the two constructive upper bounds
together with their realized message counts, plus the zero-advice baselines'
message cost — producing the series behind experiment E6.

The interesting quantity is the *ratio* of the two oracle sizes, which grows
like ``log n``: advice for efficient wakeup gets relatively more expensive
without bound as networks grow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..algorithms.flooding import Flooding
from ..algorithms.scheme_b import SchemeB
from ..algorithms.tree_wakeup import TreeWakeup
from ..network.graph import PortLabeledGraph
from ..oracles.light_tree import LightTreeBroadcastOracle
from ..oracles.spanning_tree import SpanningTreeWakeupOracle
from .oracle import NullOracle
from .tasks import run_broadcast, run_wakeup

__all__ = ["SeparationPoint", "separation_point", "separation_profile"]


@dataclass(frozen=True)
class SeparationPoint:
    """One network's worth of the separation measurement."""

    n: int
    m: int
    wakeup_oracle_bits: int
    wakeup_messages: int
    broadcast_oracle_bits: int
    broadcast_messages: int
    flooding_messages: int

    @property
    def advice_ratio(self) -> float:
        """Wakeup advice / broadcast advice — grows like ``log n``."""
        if self.broadcast_oracle_bits == 0:
            return float("inf")
        return self.wakeup_oracle_bits / self.broadcast_oracle_bits

    @property
    def wakeup_bits_per_node(self) -> float:
        """Wakeup advice bits divided by ``n``."""
        return self.wakeup_oracle_bits / self.n

    @property
    def broadcast_bits_per_node(self) -> float:
        """Broadcast advice bits divided by ``n``."""
        return self.broadcast_oracle_bits / self.n


def separation_point(graph: PortLabeledGraph) -> SeparationPoint:
    """Measure both upper bounds and the flooding baseline on one network.

    All three runs must succeed (they do, by Theorems 2.1/3.1); a failure
    raises, since it would mean the reproduction itself is broken.
    """
    wakeup = run_wakeup(graph, SpanningTreeWakeupOracle(), TreeWakeup())
    broadcast = run_broadcast(graph, LightTreeBroadcastOracle(), SchemeB())
    flood = run_broadcast(graph, NullOracle(), Flooding())
    for result in (wakeup, broadcast, flood):
        if not result.success:
            raise RuntimeError(f"separation run failed: {result.summary()}")
    return SeparationPoint(
        n=graph.num_nodes,
        m=graph.num_edges,
        wakeup_oracle_bits=wakeup.oracle_bits,
        wakeup_messages=wakeup.messages,
        broadcast_oracle_bits=broadcast.oracle_bits,
        broadcast_messages=broadcast.messages,
        flooding_messages=flood.messages,
    )


def separation_profile(
    sizes: Sequence[int],
    builder: Callable[[int], PortLabeledGraph],
    progress: Optional[Callable[[int], None]] = None,
) -> List[SeparationPoint]:
    """The separation measurement across a size sweep of one graph family."""
    points = []
    for n in sizes:
        points.append(separation_point(builder(n)))
        if progress is not None:
            progress(n)
    return points
