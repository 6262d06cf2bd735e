"""The in-memory construction cache and its hand-off to pool workers.

The one process-pool fan-out over the E1-E15 grid is the fault-tolerant
runner in :mod:`repro.runner` (``$REPRO_WORKERS`` sets the default
width).  It hands its workers a :class:`ConstructionCache` through this
package:

* :mod:`repro.parallel.cache` — a content-addressed, in-memory
  :class:`ConstructionCache` memoizing built graphs and oracle advice,
  and the pool initializer
  (:func:`~repro.parallel.cache.init_worker_cache`) that gives each
  worker process a cache of its own.

See ``docs/PARALLEL.md`` for the cache key design and how results stay
identical across worker counts.
"""

from .cache import (
    CACHE_SCHEMA,
    DEFAULT_MAX_ENTRIES,
    CacheStats,
    ConstructionCache,
    worker_cache,
)

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_MAX_ENTRIES",
    "CacheStats",
    "ConstructionCache",
    "worker_cache",
]
