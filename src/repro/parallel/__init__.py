"""Construction caching and picklable grid measurements for the fan-out.

The library's evaluation is a grid — every (family, n, oracle, algorithm)
cell independent of every other.  The one process-pool fan-out over it
is the fault-tolerant runner in :mod:`repro.runner`
(``$REPRO_WORKERS`` sets the default width), which merges results
**deterministically**: rows in grid order, worker event streams
re-emitted in canonical order, so rows, JSONL traces, and metrics
registries are byte-identical to a serial run at the same seed.  This
package holds what that fan-out and the serving daemon share:

* :mod:`repro.parallel.cache` — a content-addressed
  :class:`ConstructionCache` memoizing built graphs and oracle advice,
  in memory and optionally on disk (``$REPRO_CACHE_DIR`` or
  ``~/.cache/repro``), and the pool initializer
  (:func:`~repro.parallel.cache.init_worker_cache`) that hands it to
  worker processes.
* :mod:`repro.parallel.grids` — picklable reference measurements
  (:func:`e1_e4_cell`) used by the equivalence tests and the committed
  parallel benchmark.

See ``docs/PARALLEL.md`` for the determinism contract and cache key
design.
"""

from .cache import (
    CACHE_SCHEMA,
    DEFAULT_MAX_ENTRIES,
    CacheStats,
    ConstructionCache,
    default_cache_dir,
    worker_cache,
)
from .grids import e1_e4_cell

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_MAX_ENTRIES",
    "CacheStats",
    "ConstructionCache",
    "default_cache_dir",
    "worker_cache",
    "e1_e4_cell",
]
