"""The process-pool fan-out: fault-tolerant, journaled, resumable.

The one layer that runs experiment grids across worker processes
(``workers`` explicit, else ``$REPRO_WORKERS``, else 1 — see
:func:`resolve_workers`), merged deterministically so rows, JSONL traces
and metrics registries are byte-identical to a serial run at the same
seed.  On top of the plain pool it adds what a run you actually want to
finish needs: per-cell timeouts, bounded retries with backoff, crash
isolation (a dead worker fails only its own cell), an fsync'd on-disk
journal of settled cells, and ``--resume`` that replays the journal and
recomputes only what is missing — with the same byte-identity.

Entry points: :func:`resilient_sweep_families` fans out
:func:`repro.analysis.sweep_families`, :func:`resilient_run_experiments`
fans out :func:`repro.analysis.experiments.run_experiment`;
:func:`execute_units` is the generic core underneath both.  See
``docs/ROBUSTNESS.md`` for the journal format and the exact guarantees.
"""

from .core import (
    RESULTS_NAME,
    ROWS_NAME,
    RUNNER_TRACE_NAME,
    WORKERS_ENV,
    CellOutcome,
    RunReport,
    RunStats,
    WorkUnit,
    canonical_json,
    execute_units,
    load_results,
    measurement_fingerprint,
    resilient_run_experiments,
    resilient_sweep_families,
    resolve_workers,
)
from .journal import (
    JOURNAL_NAME,
    JOURNAL_SCHEMA,
    JournalEntry,
    RunJournal,
    cell_key,
    load_journal,
)
from .progress import ProgressReporter
from .retry import DEFAULT_RETRIES, RetryPolicy

__all__ = [
    "CellOutcome",
    "DEFAULT_RETRIES",
    "ProgressReporter",
    "JOURNAL_NAME",
    "JOURNAL_SCHEMA",
    "JournalEntry",
    "RESULTS_NAME",
    "ROWS_NAME",
    "RUNNER_TRACE_NAME",
    "RetryPolicy",
    "RunJournal",
    "RunReport",
    "RunStats",
    "WorkUnit",
    "WORKERS_ENV",
    "canonical_json",
    "cell_key",
    "execute_units",
    "load_journal",
    "load_results",
    "measurement_fingerprint",
    "resilient_run_experiments",
    "resilient_sweep_families",
    "resolve_workers",
]
