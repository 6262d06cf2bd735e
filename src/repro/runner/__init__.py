"""The process-pool fan-out: fault-tolerant, journaled, resumable.

The one layer that runs the E1-E15 experiments across worker processes
(``workers`` explicit, else ``$REPRO_WORKERS``, else 1 — see
:func:`resolve_workers`), merged in request order so the results are
exactly what the serial :func:`repro.analysis.experiments.run_experiment`
returns.  On top of the plain pool it adds what a run you actually want
to finish needs: per-experiment timeouts, bounded retries with backoff,
crash isolation (a dead worker fails only its own experiment), an
fsync'd on-disk journal of settled experiments, and ``--resume`` that
replays the journal and recomputes only what is missing, writing a
byte-identical ``results.json``.

Entry point: :func:`resilient_run_experiments`, over the generic core
:func:`execute_units`.  See ``docs/ROBUSTNESS.md`` for the journal
format and the exact guarantees.
"""

from .core import (
    RESULTS_NAME,
    RUNNER_TRACE_NAME,
    WORKERS_ENV,
    CellOutcome,
    RunReport,
    RunStats,
    WorkUnit,
    canonical_json,
    execute_units,
    load_results,
    resilient_run_experiments,
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
    "resilient_run_experiments",
    "resolve_workers",
]
