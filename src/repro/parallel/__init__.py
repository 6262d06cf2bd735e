"""The construction cache the process-pool fan-out and the daemon share.

The one process-pool fan-out over the E1-E15 grid is the fault-tolerant
runner in :mod:`repro.runner` (``$REPRO_WORKERS`` sets the default
width); the serving daemon keeps a pool of its own.  Both hand their
workers a :class:`ConstructionCache` through this package:

* :mod:`repro.parallel.cache` — a content-addressed
  :class:`ConstructionCache` memoizing built graphs and oracle advice,
  in memory and optionally on disk (``$REPRO_CACHE_DIR`` or
  ``~/.cache/repro``), and the pool initializer
  (:func:`~repro.parallel.cache.init_worker_cache`) that hands it to
  worker processes.

See ``docs/PARALLEL.md`` for the cache key design and how results stay
identical across worker counts.
"""

from .cache import (
    CACHE_SCHEMA,
    DEFAULT_MAX_ENTRIES,
    CacheStats,
    ConstructionCache,
    default_cache_dir,
    worker_cache,
)

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_MAX_ENTRIES",
    "CacheStats",
    "ConstructionCache",
    "default_cache_dir",
    "worker_cache",
]
