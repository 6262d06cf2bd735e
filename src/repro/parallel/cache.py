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
``schema|kind|family|n|seed|oracle`` string.  The in-memory layer is a
plain dict and always on; the optional disk layer (``persist_dir``, or
:func:`default_cache_dir` = ``$REPRO_CACHE_DIR`` falling back to
``~/.cache/repro``) stores graphs through
:mod:`repro.network.serialization` and advice through
:func:`repro.core.oracle.advice_to_json`, so warm entries survive across
processes — including pool workers, which each hydrate their own cache
from the same directory through :func:`init_worker_cache`.

Invalidation is by key: anything that changes what a builder or oracle
produces **must** change the key, which is why the builder ``seed`` and
the oracle ``name`` are part of it and why :data:`CACHE_SCHEMA` is bumped
whenever the serialization formats change.  Deleting the cache directory
is always safe; every entry is derivable.
"""

from __future__ import annotations

import glob
import hashlib
import multiprocessing
import multiprocessing.connection
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.oracle import AdviceMap, Oracle, advice_from_json, advice_to_json
from ..network import serialization
from ..network.builders import FAMILY_BUILDERS
from ..network.graph import GraphError, PortLabeledGraph

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_MAX_ENTRIES",
    "CacheStats",
    "ConstructionCache",
    "content_address",
    "default_cache_dir",
    "init_worker_cache",
    "worker_cache",
]

#: Version tag mixed into every key; bump when the on-disk formats change.
CACHE_SCHEMA = "repro-cache/1"

#: Default cap on the in-memory layer.  Generous — a whole E1-E15 grid fits
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

#: Environment variable naming the persistent cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


@dataclass
class CacheStats:
    """Hit/miss accounting, split by layer.

    ``evictions`` counts entries dropped by the LRU bound on the memory
    layer; ``corrupt_dropped`` counts disk entries that failed to parse
    (torn writes from a crashed process) and were deleted on read.
    """

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    evictions: int = 0
    corrupt_dropped: int = 0

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
            "disk_hits": self.disk_hits,
            "disk_writes": self.disk_writes,
            "evictions": self.evictions,
            "corrupt_dropped": self.corrupt_dropped,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class CacheSpec:
    """The picklable identity of a cache: enough to rebuild one in a worker.

    The in-memory dict deliberately does not travel — worker processes
    start cold in memory and share only the disk layer.
    """

    persist_dir: Optional[str] = None
    max_entries: Optional[int] = DEFAULT_MAX_ENTRIES

    def build(self) -> "ConstructionCache":
        return ConstructionCache(
            persist_dir=self.persist_dir, max_entries=self.max_entries
        )


#: The worker-process cache, installed by :func:`init_worker_cache`.  One per
#: worker for the pool's lifetime, so repeated (family, n) cells within a
#: worker hit memory and all workers share the parent's disk layer.
_WORKER_CACHE: Optional["ConstructionCache"] = None


def init_worker_cache(cache_spec: Optional[CacheSpec]) -> None:
    """Pool initializer: hydrate this worker's cache from a picklable spec.

    The fault-tolerant runner in :mod:`repro.runner` and the serving
    daemon in :mod:`repro.service` both start their pool workers this way.
    The worker also exits as soon as its parent process dies: a SIGKILLed
    parent cannot shut its pool down, and the worker would otherwise wait
    on the call queue forever.
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

    The accessor for worker entry points — e.g.
    :func:`repro.service.jobs.service_job_task` — so they share the
    per-worker memory layer and the cross-worker disk layer.
    """
    return _WORKER_CACHE


class ConstructionCache:
    """Memoize graph construction and oracle advice within (and across) runs.

    ``persist_dir=None`` keeps the cache purely in memory; a directory
    enables the disk layer (created lazily on first write).  Both layers
    are keyed identically, so a disk hit also warms the memory layer.

    The memory layer is a bounded LRU: ``max_entries`` caps the total
    number of cached objects across both kinds (graphs and advice); the
    least-recently-used entry is evicted first and counted in
    ``stats.evictions``.  Eviction never touches the disk layer — an
    evicted-then-requested entry comes back as a disk hit.
    ``max_entries=None`` disables the bound.
    """

    def __init__(
        self,
        persist_dir: Optional[str] = None,
        max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 or None, got {max_entries}")
        self.persist_dir = persist_dir
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._memory: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()

    @classmethod
    def persistent(cls) -> "ConstructionCache":
        """A cache backed by :func:`default_cache_dir`."""
        return cls(persist_dir=default_cache_dir())

    def spec(self) -> CacheSpec:
        """The picklable description workers rebuild this cache from."""
        return CacheSpec(persist_dir=self.persist_dir, max_entries=self.max_entries)

    # ------------------------------------------------------------------
    # Memory layer (bounded LRU)
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
        loaded = self._load_graph(key)
        if loaded is not None:
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self._mem_put("graph", key, loaded)
            return loaded
        self.stats.misses += 1
        if builder is None:
            graph = FAMILY_BUILDERS[family](n)
        else:
            graph = builder()
        if not graph.frozen:
            graph = graph.copy().freeze()
        self._mem_put("graph", key, graph)
        self._store(key, "graph", lambda: serialization.to_json(graph))
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
        advice = self._load_advice(key)
        if advice is not None:
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self._mem_put("advice", key, advice)
            return advice
        self.stats.misses += 1
        advice = oracle.advise(graph)
        self._mem_put("advice", key, advice)
        self._store(key, "advice", lambda: advice_to_json(advice))
        return advice

    # ------------------------------------------------------------------
    # Disk layer
    # ------------------------------------------------------------------
    def _path(self, key: str, kind: str) -> str:
        assert self.persist_dir is not None
        return os.path.join(self.persist_dir, f"{key}.{kind}.json")

    def _load_text(self, key: str, kind: str) -> Optional[str]:
        if self.persist_dir is None:
            return None
        try:
            with open(self._path(key, kind), "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError:
            return None

    def _drop_corrupt(self, key: str, kind: str) -> None:
        """Delete a disk entry that failed to parse and count it.

        A partial or garbled file is the crash window of a concurrent
        writer: another process died between ``mkstemp`` and ``replace``,
        or the entry predates a format change.  Deleting it turns a
        permanent parse failure into a one-time miss — the next ``_store``
        rewrites it whole.
        """
        self.stats.corrupt_dropped += 1
        try:
            os.remove(self._path(key, kind))
        except OSError:
            pass  # already gone (another reader won the race) — fine

    def _load_graph(self, key: str) -> Optional[PortLabeledGraph]:
        text = self._load_text(key, "graph")
        if text is None:
            return None
        try:
            return serialization.from_json(text)
        except (GraphError, ValueError, KeyError, TypeError):
            self._drop_corrupt(key, "graph")
            return None  # corrupt or stale entry: rebuild and overwrite

    def _load_advice(self, key: str) -> Optional[AdviceMap]:
        text = self._load_text(key, "advice")
        if text is None:
            return None
        try:
            return advice_from_json(text)
        except (ValueError, SyntaxError, KeyError, TypeError):
            self._drop_corrupt(key, "advice")
            return None  # torn write from a crashed process: rebuild

    def _store(self, key: str, kind: str, render: Callable[[], str]) -> None:
        """Write-through, atomically (temp file + rename), best effort.

        Serialization limits (e.g. non-JSON node labels) and filesystem
        errors silently degrade to memory-only caching — the cache must
        never make a run fail that would have succeeded without it.
        """
        if self.persist_dir is None:
            return
        try:
            text = render()
        except (GraphError, TypeError, ValueError):
            return
        try:
            os.makedirs(self.persist_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.persist_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, self._path(key, kind))
            self.stats.disk_writes += 1
        except OSError:
            return

    # ------------------------------------------------------------------
    # Crash-window recovery
    # ------------------------------------------------------------------
    def recover(self) -> int:
        """Sweep the disk layer for leftover ``*.tmp`` files and delete them.

        A process killed between ``mkstemp`` and the atomic rename leaves
        an orphaned temp file behind.  Such files are never *read* (loads
        go through the final name only), but a long-running service should
        not accumulate them.  Returns the number of files removed; safe to
        race with concurrent writers, whose temp names are unique.
        """
        if self.persist_dir is None or not os.path.isdir(self.persist_dir):
            return 0
        removed = 0
        for path in sorted(glob.glob(os.path.join(self.persist_dir, "*.tmp"))):
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass  # a concurrent recover() got it first
        return removed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._memory)

    def clear_memory(self) -> None:
        """Drop the in-memory layer (the disk layer stays)."""
        self._memory.clear()

    def __repr__(self) -> str:
        where = self.persist_dir or "memory"
        return (
            f"ConstructionCache({where}, entries={len(self)}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
