"""The edge-discovery problem and the Lemma 2.1 adversary, made executable.

**The problem.**  An instance is a triple ``(n, X, Y)``: ``X`` is a set of
*special* edges of ``K*_n``, each carrying a distinct label in
``1..|X|``, and ``Y`` is a disjoint set of edges known in advance to be
non-special.  A discovery scheme knows only ``n``, ``|X|`` and ``Y``; each
*probe* of an edge ``e`` reveals either "``(e, l)`` is special with label
``l``" or "``e`` is not special".  The scheme must discover all of ``X``.
Probes model messages: performing wakeup in ``G_{n,S}`` requires sending a
message into every subdivided edge, so wakeup message complexity dominates
edge-discovery probe complexity.

**The adversary (Lemma 2.1).**  Over a family ``I`` of instances that share
``(n, |X|, Y)``, the adversary keeps the set of still-*active* instances.
On each probe it answers whichever way keeps more instances active (halving
at worst), and when forced to reveal a special edge it picks the majority
label (losing a factor ``|X| - r`` at worst).  Hence at least
``log2(|I|) - log2(|X|!)`` probes are needed before a single instance
remains — the inequality every run of :func:`run_adversary` certifies.

Deterministic probing schemes are the counterparty; three are provided, and
any callable ``knowledge -> edge`` works.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..network.graph import edge_key
from ..obs.events import AdversaryProbe
from ..obs.observe import Observation, resolve_obs

__all__ = [
    "Instance",
    "Knowledge",
    "all_edges",
    "enumerate_instances",
    "sample_instances",
    "run_discovery",
    "AdversaryResult",
    "run_adversary",
    "lemma21_lower_bound",
    "LexicographicProber",
    "ShuffledProber",
    "HalvingProber",
]

Edge = Tuple[int, int]


def all_edges(n: int) -> List[Edge]:
    """Every edge of ``K*_n``, in lexicographic order."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


@dataclass(frozen=True)
class Instance:
    """One edge-discovery instance ``(n, X, Y)``.

    ``special`` maps each special edge to its label (labels are exactly
    ``1..|X|``); ``excluded`` is ``Y``.
    """

    n: int
    special: Tuple[Tuple[Edge, int], ...]  # ((edge, label), ...) sorted by edge
    excluded: FrozenSet[Edge] = frozenset()

    @staticmethod
    def make(n: int, labeled_edges: Iterable[Tuple[Edge, int]], excluded: Iterable[Edge] = ()) -> "Instance":
        """Validate and normalize ``(edge, label)`` pairs and ``Y`` into an instance."""
        special = tuple(sorted(((edge_key(*e), l) for e, l in labeled_edges), key=lambda t: t[0]))
        exc = frozenset(edge_key(*e) for e in excluded)
        labels = sorted(l for __, l in special)
        if labels != list(range(1, len(special) + 1)):
            raise ValueError("labels must be exactly 1..|X|")
        edges = [e for e, __ in special]
        if len(set(edges)) != len(edges):
            raise ValueError("special edges must be distinct")
        if exc & set(edges):
            raise ValueError("X and Y must be disjoint")
        return Instance(n=n, special=special, excluded=exc)

    @property
    def x_size(self) -> int:
        """``|X|``, the number of special edges."""
        return len(self.special)

    def label_of(self, edge: Edge) -> Optional[int]:
        """The label of ``edge`` if special, else ``None`` (orientation-free)."""
        key = edge_key(*edge)
        for e, l in self.special:
            if e == key:
                return l
        return None


@dataclass
class Knowledge:
    """What a discovery scheme legitimately knows: the public parameters
    plus every answer received so far."""

    n: int
    x_size: int
    excluded: FrozenSet[Edge]
    answers: Dict[Edge, Optional[int]] = field(default_factory=dict)

    @property
    def found(self) -> int:
        """Number of special edges discovered so far."""
        return sum(1 for l in self.answers.values() if l is not None)

    @property
    def done(self) -> bool:
        """Every special edge has been discovered."""
        return self.found == self.x_size

    def unprobed(self, edges: Sequence[Edge]) -> List[Edge]:
        """Edges not yet probed and not excluded by ``Y``."""
        return [e for e in edges if e not in self.answers and e not in self.excluded]


Prober = Callable[[Knowledge], Edge]


def enumerate_instances(
    n: int, x_size: int, excluded: Iterable[Edge] = ()
) -> List[Instance]:
    """All instances with the given public parameters: every ordered
    ``x_size``-tuple of distinct non-excluded edges (the label of an edge is
    its position in the tuple)."""
    exc = frozenset(edge_key(*e) for e in excluded)
    pool = [e for e in all_edges(n) if e not in exc]
    out = []
    for combo in permutations(pool, x_size):
        out.append(Instance.make(n, [(e, i + 1) for i, e in enumerate(combo)], exc))
    return out


def sample_instances(
    n: int, x_size: int, count: int, rng: random.Random, excluded: Iterable[Edge] = ()
) -> List[Instance]:
    """A random subfamily of distinct instances (for larger parameters)."""
    exc = frozenset(edge_key(*e) for e in excluded)
    pool = [e for e in all_edges(n) if e not in exc]
    seen = set()
    out: List[Instance] = []
    attempts = 0
    while len(out) < count and attempts < 100 * count:
        attempts += 1
        combo = tuple(rng.sample(pool, x_size))
        if combo in seen:
            continue
        seen.add(combo)
        out.append(Instance.make(n, [(e, i + 1) for i, e in enumerate(combo)], exc))
    return out


def run_discovery(prober: Prober, instance: Instance, max_probes: Optional[int] = None) -> int:
    """Run a scheme against one *fixed* instance; return the probe count."""
    knowledge = Knowledge(
        n=instance.n, x_size=instance.x_size, excluded=instance.excluded
    )
    limit = max_probes if max_probes is not None else len(all_edges(instance.n)) + 1
    probes = 0
    while not knowledge.done:
        if probes >= limit:
            raise RuntimeError("discovery scheme exceeded the probe limit")
        edge = edge_key(*prober(knowledge))
        if edge in knowledge.answers:
            raise RuntimeError(f"scheme probed edge {edge} twice")
        knowledge.answers[edge] = instance.label_of(edge)
        probes += 1
    return probes


@dataclass(frozen=True)
class AdversaryResult:
    """Outcome of one adversary run, with its certified inequality."""

    probes: int
    family_size: int
    x_size: int
    surviving: Instance

    @property
    def lower_bound(self) -> float:
        """Lemma 2.1's bound on this family: ``log2 |I| - log2 |X|!``."""
        return lemma21_lower_bound(self.family_size, self.x_size)

    @property
    def certified(self) -> bool:
        """Whether the run respected the lemma (it always must)."""
        return self.probes >= self.lower_bound - 1e-9


def lemma21_lower_bound(family_size: int, x_size: int) -> float:
    """``log2(|I| / |X|!)`` — the Lemma 2.1 message lower bound."""
    return math.log2(family_size) - math.log2(math.factorial(x_size))


def run_adversary(
    prober: Prober,
    instances: Sequence[Instance],
    max_probes: Optional[int] = None,
    obs: Optional[Observation] = None,
) -> AdversaryResult:
    """Drive a scheme with the Lemma 2.1 adversary over an instance family.

    The adversary maintains the active set explicitly; every answer keeps the
    larger half (majority label for special answers), so the final probe
    count certifies ``probes >= log2 |I| - log2 |X|!``.  Pass ``obs`` to
    stream one :class:`repro.obs.AdversaryProbe` event per probe — the
    halving argument, live: ``active_after`` shrinks by at most half per
    regular answer (with a ``|X| - r`` label factor on special ones).
    """
    obs = resolve_obs(obs)
    if not instances:
        raise ValueError("need a non-empty instance family")
    first = instances[0]
    if any(
        (i.n, i.x_size, i.excluded) != (first.n, first.x_size, first.excluded)
        for i in instances
    ):
        raise ValueError("instances must share (n, |X|, Y)")
    active: List[Instance] = list(instances)
    knowledge = Knowledge(n=first.n, x_size=first.x_size, excluded=first.excluded)
    limit = max_probes if max_probes is not None else len(all_edges(first.n)) + 1
    probes = 0
    while not knowledge.done:
        if probes >= limit:
            raise RuntimeError("discovery scheme exceeded the probe limit")
        edge = edge_key(*prober(knowledge))
        if edge in knowledge.answers:
            raise RuntimeError(f"scheme probed edge {edge} twice")
        active_before = len(active)
        special = [i for i in active if i.label_of(edge) is not None]
        regular = [i for i in active if i.label_of(edge) is None]
        if len(special) >= len(regular):
            by_label: Dict[int, List[Instance]] = {}
            for i in special:
                by_label.setdefault(i.label_of(edge), []).append(i)  # type: ignore[arg-type]
            best_label = max(sorted(by_label), key=lambda l: len(by_label[l]))
            active = by_label[best_label]
            knowledge.answers[edge] = best_label
        else:
            active = regular
            knowledge.answers[edge] = None
        probes += 1
        if obs.enabled:
            obs.emit(
                AdversaryProbe(
                    probe=probes,
                    edge=edge,
                    active_before=active_before,
                    active_after=len(active),
                    answer=knowledge.answers[edge],
                )
            )
    assert len(active) == 1, "a completed scheme pins down exactly one instance"
    return AdversaryResult(
        probes=probes,
        family_size=len(instances),
        x_size=first.x_size,
        surviving=active[0],
    )


# ----------------------------------------------------------------------
# Probing schemes
# ----------------------------------------------------------------------
class LexicographicProber:
    """Probe unprobed edges in lexicographic order."""

    def __call__(self, knowledge: Knowledge) -> Edge:
        candidates = knowledge.unprobed(all_edges(knowledge.n))
        if not candidates:
            raise RuntimeError("no edges left to probe")
        return candidates[0]


class ShuffledProber:
    """Probe edges in a seeded random order fixed up front.

    Still a deterministic function of the knowledge (the order is part of
    the scheme), so the adversary argument applies to it unchanged.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._order: Optional[List[Edge]] = None

    def __call__(self, knowledge: Knowledge) -> Edge:
        if self._order is None:
            order = all_edges(knowledge.n)
            random.Random(self._seed).shuffle(order)
            self._order = order
        for e in self._order:
            if e not in knowledge.answers and e not in knowledge.excluded:
                return e
        raise RuntimeError("no edges left to probe")


class HalvingProber:
    """Probe edges touching the least-explored node first.

    A plausible "smart" heuristic — the adversary beats it just the same,
    which is exactly the lemma's content: *no* scheme does better than the
    counting bound.
    """

    def __call__(self, knowledge: Knowledge) -> Edge:
        candidates = knowledge.unprobed(all_edges(knowledge.n))
        if not candidates:
            raise RuntimeError("no edges left to probe")
        touched: Dict[int, int] = {}
        for (u, v) in knowledge.answers:
            touched[u] = touched.get(u, 0) + 1
            touched[v] = touched.get(v, 0) + 1
        return min(
            candidates, key=lambda e: (touched.get(e[0], 0) + touched.get(e[1], 0), e)
        )
