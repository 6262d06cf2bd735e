"""Content-addressed construction cache for graphs and oracle advice.

The E1-E14 grid rebuilds the same family members over and over: E1, E3,
E4 and E6 all construct ``complete_graph_star(256)``; the two lower-bound
drivers rebuild the same ``G_{n,S}`` subdivisions for every measurement on
them.  Construction is pure — a family name, a size and a builder seed
determine the graph bit for bit, and ``(graph, oracle)`` determines the
advice — so the results are perfect cache fodder.

:class:`ConstructionCache` memoizes both:

* ``cache.graph(family, n, seed=..., builder=...)`` — the built
  :class:`~repro.network.graph.PortLabeledGraph`;
* ``cache.advice(family, n, oracle, graph, seed=...)`` — the oracle's
  :class:`~repro.core.oracle.AdviceMap` on that graph.

Keys are **content addresses**: the SHA-256 of a canonical
``schema|kind|family|n|seed|oracle`` string.  The cache lives in memory
only, as a bounded LRU; pool workers each build their own from the
parent's picklable :class:`CacheSpec` through :func:`init_worker_cache`.

Invalidation is by key: anything that changes what a builder or oracle
produces **must** change the key, which is why the builder ``seed`` and
the oracle ``name`` are part of it.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import multiprocessing.connection
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.oracle import AdviceMap, Oracle
from ..network.builders import FAMILY_BUILDERS
from ..network.graph import PortLabeledGraph

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_MAX_ENTRIES",
    "CacheStats",
    "ConstructionCache",
    "content_address",
    "init_worker_cache",
    "worker_cache",
]

#: Version tag mixed into every key.
CACHE_SCHEMA = "repro-cache/1"

#: Default cap on the number of entries.  Generous — a whole E1-E15 grid fits
#: in a few hundred entries — but bounded, so a long-running server (see
#: :mod:`repro.service`) cannot grow without limit under adversarial or
#: merely heavy-tailed request mixes.
DEFAULT_MAX_ENTRIES = 4096


def content_address(schema: str, *parts: Any) -> str:
    """SHA-256 of ``schema|part|part|...`` — the canonical content key.

    Shared by the construction cache and the run journal of
    :mod:`repro.runner`: any store keyed this way is invalidated simply by
    changing what goes into the key (schema bump, different seed, different
    oracle name, ...).
    """
    raw = "|".join([schema, *(str(part) for part in parts)])
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting; ``evictions`` counts entries the LRU bound dropped."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> Optional[float]:
        return self.hits / self.lookups if self.lookups else None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class CacheSpec:
    """The picklable identity of a cache: enough to rebuild one in a worker.

    The entries deliberately do not travel — each worker process starts
    cold and keeps its own.
    """

    max_entries: Optional[int] = DEFAULT_MAX_ENTRIES

    def build(self) -> "ConstructionCache":
        return ConstructionCache(max_entries=self.max_entries)


#: The worker-process cache, installed by :func:`init_worker_cache`.  One per
#: worker for the pool's lifetime, so repeated (family, n) cells within a
#: worker hit it.
_WORKER_CACHE: Optional["ConstructionCache"] = None


def init_worker_cache(cache_spec: Optional[CacheSpec]) -> None:
    """Pool initializer: hydrate this worker's cache from a picklable spec.

    The fault-tolerant runner in :mod:`repro.runner` starts its pool
    workers this way.  The worker also exits as soon as its parent
    process dies: a SIGKILLed parent cannot shut its pool down, and the
    worker would otherwise wait on the call queue forever.
    """
    global _WORKER_CACHE
    _WORKER_CACHE = cache_spec.build() if cache_spec is not None else None
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with_parent, args=(parent.sentinel,), daemon=True
        ).start()


def _exit_with_parent(sentinel: int) -> None:
    """Block until the parent's sentinel fires, then end this process."""
    multiprocessing.connection.wait([sentinel])
    os._exit(1)


def worker_cache() -> Optional["ConstructionCache"]:
    """This worker's cache (``None`` until :func:`init_worker_cache` ran).

    The accessor for worker entry points, such as
    :func:`repro.runner.core.serialized_experiment_task`.
    """
    return _WORKER_CACHE


class ConstructionCache:
    """Memoize graph construction and oracle advice within one process.

    The cache is a bounded LRU: ``max_entries`` caps the total number of
    cached objects across both kinds (graphs and advice); the
    least-recently-used entry is evicted first and counted in
    ``stats.evictions``.  ``max_entries=None`` disables the bound.
    """

    def __init__(self, max_entries: Optional[int] = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 or None, got {max_entries}")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._memory: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()

    def spec(self) -> CacheSpec:
        """The picklable description workers rebuild this cache from."""
        return CacheSpec(max_entries=self.max_entries)

    # ------------------------------------------------------------------
    # The LRU
    # ------------------------------------------------------------------
    def _mem_get(self, kind: str, key: str) -> Any:
        entry = self._memory.get((kind, key))
        if entry is not None:
            self._memory.move_to_end((kind, key))
        return entry

    def _mem_put(self, kind: str, key: str, value: Any) -> None:
        self._memory[(kind, key)] = value
        self._memory.move_to_end((kind, key))
        if self.max_entries is not None:
            while len(self._memory) > self.max_entries:
                self._memory.popitem(last=False)
                self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def key(kind: str, family: str, n: int, seed: Optional[int], oracle: str = "") -> str:
        """The content address: SHA-256 of the canonical key string."""
        return content_address(CACHE_SCHEMA, kind, family, n, seed, oracle)

    # ------------------------------------------------------------------
    # Graphs
    # ------------------------------------------------------------------
    def graph(
        self,
        family: str,
        n: int,
        seed: Optional[int] = None,
        builder: Optional[Callable[[], PortLabeledGraph]] = None,
    ) -> PortLabeledGraph:
        """The graph for ``(family, n, seed)``, built at most once.

        ``builder`` is a zero-argument callable producing the graph on a
        miss; it defaults to ``FAMILY_BUILDERS[family](n)``.  Builder
        exceptions propagate uncached, so a failing cell fails identically
        with and without a cache.
        """
        key = self.key("graph", family, n, seed)
        cached = self._mem_get("graph", key)
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        if builder is None:
            graph = FAMILY_BUILDERS[family](n)
        else:
            graph = builder()
        if not graph.frozen:
            graph = graph.copy().freeze()
        self._mem_put("graph", key, graph)
        return graph

    # ------------------------------------------------------------------
    # Advice
    # ------------------------------------------------------------------
    def advice(
        self,
        family: str,
        n: int,
        oracle: Oracle,
        graph: PortLabeledGraph,
        seed: Optional[int] = None,
    ) -> AdviceMap:
        """``oracle.advise(graph)``, memoized on ``(family, n, seed, oracle.name)``.

        The caller vouches that ``graph`` *is* the ``(family, n, seed)``
        member — normally it came out of :meth:`graph` — and that
        ``oracle.name`` pins down the oracle's behaviour (true of every
        oracle in the library: parametrized oracles such as
        ``TruncatingOracle`` and ``DepthLimitedTreeOracle`` encode their
        parameters in the name).
        """
        key = self.key("advice", family, n, seed, oracle.name)
        cached = self._mem_get("advice", key)
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        advice = oracle.advise(graph)
        self._mem_put("advice", key, advice)
        return advice

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:
        return (
            f"ConstructionCache(entries={len(self)}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
