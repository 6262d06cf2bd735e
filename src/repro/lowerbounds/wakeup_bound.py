"""Theorem 2.2, executed: wakeup needs ``Omega(n log n)`` advice bits.

The theorem's argument has three legs, and each leg is runnable here:

1. **The hard family is real.**  :func:`gadget_wakeup_upper` builds random
   members of ``G_{n,S}`` and runs the Theorem 2.1 oracle + algorithm on
   them: the oracle costs ``Theta(N log N)`` bits on the ``N = 2n``-node
   gadgets and wakeup finishes in exactly ``N - 1`` messages — the upper
   bound is tight *on the lower-bound family itself*.

2. **Below the threshold, concrete algorithms break or pay.**
   :func:`truncated_oracle_outcome` caps the advice at a fraction of the
   full size and reports how much of the network still wakes up;
   :func:`zero_advice_cost` measures what the oracle-free baselines pay on
   the gadgets (``Theta(n^2)`` messages — the information is bought back
   with messages).

3. **No algorithm can do better: the counting bound.**
   :func:`counting_curve` evaluates the paper's Equations 2-5 exactly:
   for oracle size ``alpha * N log2 N`` the adversary of Lemma 2.1 forces
   a message count that is superlinear in ``N`` whenever ``alpha < 1/2``
   — and :func:`adversary_demonstration` actually *runs* that adversary
   against probing schemes on exhaustively enumerated instance families,
   certifying the Lemma 2.1 inequality on every run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence

from ..algorithms.dfs_wakeup import DFSTokenWakeup
from ..algorithms.flooding import Flooding
from ..algorithms.tree_wakeup import TreeWakeup
from ..core.oracle import NullOracle, TruncatingOracle
from ..core.tasks import run_wakeup
from ..network.constructions import sample_edge_tuple, subdivision_family_graph
from ..oracles.spanning_tree import SpanningTreeWakeupOracle
from .counting import wakeup_forced_messages, wakeup_oracle_size_threshold
from .edge_discovery import (
    AdversaryResult,
    LexicographicProber,
    Prober,
    enumerate_instances,
    run_adversary,
)

__all__ = [
    "GadgetWakeupRow",
    "gadget_wakeup_upper",
    "TruncationRow",
    "truncated_oracle_outcome",
    "zero_advice_cost",
    "CountingRow",
    "counting_curve",
    "adversary_demonstration",
]


@dataclass(frozen=True)
class GadgetWakeupRow:
    """Upper bound measured on one gadget: tight size, optimal messages."""

    n: int  # K*_n size; the gadget has N = 2n nodes
    gadget_nodes: int
    oracle_bits: int
    messages: int
    success: bool

    @property
    def bits_per_node_log(self) -> float:
        """Oracle bits / (N log2 N) — the constant in front of the rate."""
        big_n = self.gadget_nodes
        return self.oracle_bits / (big_n * math.log2(big_n))


def _gadget_graph(n: int, seed: int):
    """A random ``G_{n,S}`` member: the edge tuple is a pure function of
    ``(n, seed)``, so one seed always gives the same gadget."""
    return subdivision_family_graph(n, sample_edge_tuple(n, n, random.Random(seed)))


def gadget_wakeup_upper(n: int, seed: int = 0, obs=None) -> GadgetWakeupRow:
    """Run the Theorem 2.1 pair on a random ``G_{n,S}`` (telemetry via ``obs``)."""
    graph = _gadget_graph(n, seed)
    # Counters mode: the row reads messages/success only, so the run skips
    # the per-delivery log (the gadgets are the hot path of this module).
    result = run_wakeup(
        graph, SpanningTreeWakeupOracle(), TreeWakeup(), obs=obs,
        trace_level="counters",
    )
    return GadgetWakeupRow(
        n=n,
        gadget_nodes=graph.num_nodes,
        oracle_bits=result.oracle_bits,
        messages=result.messages,
        success=result.success,
    )


@dataclass(frozen=True)
class TruncationRow:
    """What survives when the advice is capped below the full size."""

    n: int
    budget_bits: int
    full_bits: int
    informed: int
    gadget_nodes: int
    messages: int
    success: bool


def truncated_oracle_outcome(n: int, fraction: float, seed: int = 0) -> TruncationRow:
    """Cap the Theorem 2.1 oracle at ``fraction`` of its size on ``G_{n,S}``.

    This does not *prove* anything (the theorem quantifies over all
    algorithms) — it demonstrates the failure mode the theorem predicts for
    this concrete optimal-size algorithm: missing advice bits mean unreached
    nodes, because the tree structure is literally the information.
    """
    graph = _gadget_graph(n, seed)
    full_oracle = SpanningTreeWakeupOracle()
    full_bits = full_oracle.size_on(graph)
    budget = int(full_bits * fraction)
    result = run_wakeup(
        graph, TruncatingOracle(full_oracle, budget), TreeWakeup(),
        trace_level="counters",
    )
    return TruncationRow(
        n=n,
        budget_bits=budget,
        full_bits=full_bits,
        informed=result.informed,
        gadget_nodes=graph.num_nodes,
        messages=result.messages,
        success=result.success,
    )


def zero_advice_cost(n: int, seed: int = 0) -> dict:
    """Messages paid by the zero-advice wakeup baselines on ``G_{n,S}``.

    Both are ``Theta(m) = Theta(n^2)`` on the gadgets — the quadratic price
    of having no information, against ``N - 1`` with full advice.
    """
    graph = _gadget_graph(n, seed)
    flood = run_wakeup(
        graph, NullOracle(), Flooding(), max_messages=10**7, trace_level="counters"
    )
    dfs = run_wakeup(
        graph, NullOracle(), DFSTokenWakeup(), max_messages=10**7,
        trace_level="counters",
    )
    return {
        "n": n,
        "gadget_nodes": graph.num_nodes,
        "gadget_edges": graph.num_edges,
        "flooding_messages": flood.messages,
        "flooding_success": flood.success,
        "dfs_messages": dfs.messages,
        "dfs_success": dfs.success,
    }


@dataclass(frozen=True)
class CountingRow:
    """One point of the exact Theorem 2.2 bound curve."""

    n: int
    gadget_nodes: int
    alpha: float
    oracle_bits: int
    forced_messages: float

    @property
    def forced_per_node(self) -> float:
        """Superlinearity indicator: grows with ``n`` iff the bound bites."""
        return self.forced_messages / self.gadget_nodes


def counting_curve(
    sizes: Sequence[int], alpha: float, subdivided_factor: int = 1
) -> List[CountingRow]:
    """Evaluate the forced-message bound at oracle size
    ``alpha * N log2 N`` for each ``n`` (``N`` = gadget size).

    ``subdivided_factor = c`` subdivides ``cn`` edges instead of ``n`` —
    the paper's Remark raising the threshold from ``1/2`` to ``c/(c+1)``.
    """
    rows = []
    for n in sizes:
        count = subdivided_factor * n
        big_n = n + count
        bits = int(alpha * big_n * math.log2(big_n))
        rows.append(
            CountingRow(
                n=n,
                gadget_nodes=big_n,
                alpha=alpha,
                oracle_bits=bits,
                forced_messages=wakeup_forced_messages(n, bits, count),
            )
        )
    return rows


def largest_biting_alpha(
    n: int, subdivided_factor: int = 1, step: float = 0.05
) -> float:
    """The largest ``alpha`` (on a grid) at which an oracle of size
    ``alpha * N log2 N`` still forces more than ``4N`` messages at this
    finite ``n``.  Grows with ``subdivided_factor`` toward the paper's
    asymptotic ``c/(c+1)`` threshold (the Remark after Theorem 2.2)."""
    best = 0.0
    alpha = step
    while alpha < 1.0:
        row = counting_curve([n], alpha, subdivided_factor)[0]
        if row.forced_messages > 4 * row.gadget_nodes:
            best = alpha
        alpha += step
    return best


def adversary_demonstration(
    n: int,
    x_size: int,
    probers: Sequence[Prober] = (),
    obs=None,
) -> List[AdversaryResult]:
    """Run the Lemma 2.1 adversary against probing schemes on the full
    instance family over ``K*_n`` (exhaustive — keep ``n``, ``x_size``
    small).  Every returned result satisfies ``certified``.  ``obs``
    (an :class:`repro.obs.Observation`) streams per-probe adversary
    progress for every scheme."""
    instances = enumerate_instances(n, x_size)
    schemes = list(probers) if probers else [LexicographicProber()]
    return [run_adversary(scheme, instances, obs=obs) for scheme in schemes]


def empirical_threshold(n: int) -> dict:
    """Compare the counting threshold with the upper bound's actual size.

    Returns the largest oracle size at which the bound still forces a
    superlinear message count, next to what the Theorem 2.1 oracle pays on
    the gadget — the gap between them is the ``alpha < 1/2`` vs ``alpha = 1``
    window the paper's Remark narrows.
    """
    row = gadget_wakeup_upper(n)
    return {
        "n": n,
        "gadget_nodes": row.gadget_nodes,
        "counting_threshold_bits": wakeup_oracle_size_threshold(n),
        "upper_bound_bits": row.oracle_bits,
    }


__all__.extend(["empirical_threshold", "largest_biting_alpha"])
