"""Theorem 3.2, executed: ``o(n)`` advice cannot buy linear broadcast.

The proof watches how a broadcast algorithm behaves inside an advice-less
``k``-clique that no message has entered, classifies each clique, and picks
the hidden edge ``f_i = {a_i, b_i}`` adversarially:

* **heavy** — the algorithm cannot even produce a scheme without advice
  (in our framework: ``scheme_for`` raises); such cliques must be paid for
  in advice bits;
* **internal** — the scheme's spontaneous chatter eventually traverses all
  clique edges; ``f_i`` is an edge traversed *last*, so the clique pays
  ``k(k-1)/2`` messages before it can reveal itself through ``f_i``'s
  endpoints;
* **external** — some clique edge is never traversed; choosing it as
  ``f_i`` means no message ever leaves the clique spontaneously, so the
  clique must be *found* from outside — an edge-discovery probe.

:func:`classify_clique` performs exactly this observation (deterministic
synchronous run of the advice-less schemes on the labeled clique),
:func:`choose_adversarial_c` assembles ``C*``, and
:func:`gadget_broadcast_outcome` runs real (oracle, algorithm) pairs on the
resulting ``G_{n,S,C*}``.  The counting side (Equations 6-7) lives in
:func:`counting_curve_broadcast` via :mod:`repro.lowerbounds.counting`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.oracle import Oracle, TruncatingOracle
from ..core.scheme import Algorithm
from ..core.tasks import TaskResult, run_broadcast
from ..encoding import BitString
from ..network.constructions import (
    clique_node_labels,
    clique_substitution,
    sample_edge_tuple,
)
from ..network.graph import GraphError, PortLabeledGraph
from ..simulator.engine import Simulation
from ..simulator.schedulers import SynchronousScheduler
from .counting import broadcast_forced_messages, broadcast_target_messages

__all__ = [
    "CliqueClassification",
    "classify_clique",
    "choose_adversarial_c",
    "adversarial_gadget",
    "gadget_broadcast_outcome",
    "BroadcastCountingRow",
    "counting_curve_broadcast",
    "DiscoveryAccounting",
    "clique_discovery_accounting",
]


@dataclass(frozen=True)
class CliqueClassification:
    """The observation the adversary makes about one clique."""

    index: int
    kind: str  # "heavy" | "internal" | "external"
    hidden_edge: Tuple[int, int]  # (a_i, b_i), local 1-based, a < b
    internal_messages: int  # messages in the observed synchronous run


def _labeled_clique(n: int, k: int, index: int) -> PortLabeledGraph:
    """The complete clique ``H_index`` as the scheme would inhabit it:
    gadget labels, rotational ports, every node of degree ``k - 1``."""
    labels = clique_node_labels(n, k, index)
    g = PortLabeledGraph()
    for label in labels:
        g.add_node(label)
    for a in range(1, k + 1):
        for b in range(a + 1, k + 1):
            g.add_edge(
                labels[a - 1],
                labels[b - 1],
                port_u=(b - a - 1) % k,
                port_v=(a - b - 1) % k,
            )
    g.set_source(labels[0])  # placeholder; the run is sourceless
    return g.freeze()


def classify_clique(
    algorithm: Algorithm,
    n: int,
    k: int,
    index: int,
    max_steps: Optional[int] = None,
) -> CliqueClassification:
    """Observe the advice-less synchronous execution inside clique ``index``.

    The execution is exactly the paper's: all status bits 0, all advice
    empty, message delivery synchronous and deterministic.  The run is
    truncated at ``max_steps`` deliveries (default ``k^3``); chatter still
    going by then counts as *internal-in-progress* and we take the latest
    first-traversal seen, which only helps the scheme.
    """
    clique = _labeled_clique(n, k, index)
    labels = clique_node_labels(n, k, index)
    local = {label: a for a, label in enumerate(labels, start=1)}
    schemes = {}
    empty = BitString.empty()
    for v in clique.nodes():
        try:
            schemes[v] = algorithm.scheme_for(empty, False, v, clique.degree(v))
        except Exception:
            return CliqueClassification(
                index=index, kind="heavy", hidden_edge=(1, 2), internal_messages=0
            )
    limit = max_steps if max_steps is not None else k**3 + 10
    sim = Simulation(
        clique,
        schemes,
        scheduler=SynchronousScheduler(),
        no_source=True,
        max_messages=limit,
    )
    trace = sim.run()
    first_traversal: Dict[Tuple[int, int], int] = {}
    for d in trace.deliveries:
        a, b = sorted((local[d.sender], local[d.receiver]))
        first_traversal.setdefault((a, b), d.step)
    all_edges = [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
    untraversed = [e for e in all_edges if e not in first_traversal]
    if untraversed:
        return CliqueClassification(
            index=index,
            kind="external",
            hidden_edge=untraversed[0],
            internal_messages=trace.messages_sent,
        )
    last = max(first_traversal, key=lambda e: (first_traversal[e], e))
    return CliqueClassification(
        index=index,
        kind="internal",
        hidden_edge=last,
        internal_messages=trace.messages_sent,
    )


def choose_adversarial_c(
    algorithm: Algorithm, n: int, k: int
) -> List[CliqueClassification]:
    """Build ``C*``: classify every clique ``H_1 .. H_{n/k}``."""
    if n % k != 0:
        raise GraphError("k must divide n")
    return [classify_clique(algorithm, n, k, i) for i in range(1, n // k + 1)]


def adversarial_gadget(
    algorithm: Algorithm, n: int, k: int, seed: int = 0
) -> Tuple[PortLabeledGraph, List[CliqueClassification]]:
    """A random-``S``, adversarial-``C*`` member of ``G_{n,k}`` for the
    given algorithm.

    The gadget depends on the *algorithm*: the adversary hides each
    ``f_i`` where that algorithm's classification is weakest.
    """
    classifications = choose_adversarial_c(algorithm, n, k)
    edge_tuple = sample_edge_tuple(n, n // k, random.Random(seed))
    graph = clique_substitution(
        n, k, edge_tuple, [c.hidden_edge for c in classifications]
    )
    return graph, classifications


def gadget_broadcast_outcome(
    algorithm: Algorithm,
    oracle: Oracle,
    n: int,
    k: int,
    seed: int = 0,
    budget: Optional[int] = None,
    obs=None,
) -> TaskResult:
    """Run (oracle, algorithm) on the algorithm's own adversarial gadget.

    ``budget`` caps the oracle via :class:`TruncatingOracle` — set it to
    ``n // (2 * k)`` to stand at the paper's ``o(n)`` operating point.
    ``obs`` (an :class:`repro.obs.Observation`) captures the run's
    telemetry, quadratic blowups and limit hits included.
    """
    graph, __ = adversarial_gadget(algorithm, n, k, seed)
    effective = oracle if budget is None else TruncatingOracle(oracle, budget)
    return run_broadcast(graph, effective, algorithm, max_messages=10**7, obs=obs)


@dataclass(frozen=True)
class BroadcastCountingRow:
    """One point of the exact Theorem 3.2 bound curve."""

    n: int
    k: int
    oracle_bits: int
    forced_messages: float
    target_messages: float

    @property
    def bound_bites(self) -> bool:
        """True when the counting argument already forces superlinearity."""
        return self.forced_messages >= self.target_messages


def counting_curve_broadcast(
    pairs: Sequence[Tuple[int, int]], budget_divisor: int = 2
) -> List[BroadcastCountingRow]:
    """Evaluate Equations 6-7 at ``q = n / (budget_divisor * k)`` for each
    ``(n, k)`` with ``4k | n`` — the paper's operating point is
    ``q = n/2k``, against the target ``n(k-1)/8``."""
    rows = []
    for n, k in pairs:
        if n % (4 * k) != 0:
            raise GraphError(f"4k must divide n; got (n={n}, k={k})")
        q = n // (budget_divisor * k)
        rows.append(
            BroadcastCountingRow(
                n=n,
                k=k,
                oracle_bits=q,
                forced_messages=broadcast_forced_messages(n, k, q),
                target_messages=broadcast_target_messages(n, k),
            )
        )
    return rows


@dataclass(frozen=True)
class DiscoveryAccounting:
    """Who found whom: the proof's central count, measured on a real run.

    Theorem 3.2's pivot is that (for the adversarial ``C*``, under the
    linear message budget) at least ``n/4k`` cliques cannot reveal
    themselves: their first boundary event, if any, is an *inbound*
    message.  This record reports, per run, how many cliques were

    * ``self_revealing`` — sent a message out before anything came in,
    * ``discovered_outside`` — received from outside before sending out,
    * ``untouched`` — saw no boundary traffic at all (never found; the
      broadcast necessarily failed to inform them).
    """

    self_revealing: int
    discovered_outside: int
    untouched: int

    @property
    def total(self) -> int:
        return self.self_revealing + self.discovered_outside + self.untouched

    @property
    def not_self_revealing(self) -> int:
        """The quantity the proof bounds below by ``n/4k``."""
        return self.discovered_outside + self.untouched


def clique_discovery_accounting(trace, n: int, k: int) -> DiscoveryAccounting:
    """Classify every clique of a ``G_{n,S,C}`` run by its first boundary event."""
    count = n // k
    member: Dict[int, int] = {}
    for i in range(1, count + 1):
        for label in clique_node_labels(n, k, i):
            member[label] = i
    first_event: Dict[int, str] = {}
    for d in trace.deliveries:
        sender_clique = member.get(d.sender)
        receiver_clique = member.get(d.receiver)
        if sender_clique == receiver_clique:
            continue  # internal, or entirely outside the cliques
        if sender_clique is not None and sender_clique not in first_event:
            first_event[sender_clique] = "out"
        if receiver_clique is not None and receiver_clique not in first_event:
            first_event[receiver_clique] = "in"
    self_revealing = sum(1 for e in first_event.values() if e == "out")
    discovered = sum(1 for e in first_event.values() if e == "in")
    return DiscoveryAccounting(
        self_revealing=self_revealing,
        discovered_outside=discovered,
        untouched=count - len(first_event),
    )
