"""The process-pool fan-out: fault-tolerant, journaled, resumable.

This module is the one place the E1-E15 grid fans out across worker
processes (``workers`` explicit, else ``$REPRO_WORKERS``, else 1).  The
fan-out survives the faults a long run actually meets — a worker
segfaulting or OOM-killed, an experiment hanging, a flaky exception —
and the *parent* itself is interruptible: with a run directory,
completed experiments are journaled to disk
(:mod:`repro.runner.journal`), so a killed run resumes where it
stopped.  Without one, and with no faults, it is a plain process pool.

**The determinism contract carries over.**  A run interrupted at an
arbitrary experiment and resumed writes a ``results.json``
byte-identical to an uninterrupted run: journaled experiments replay
their stored result, fresh ones compute exactly what the serial path
computes, and the merge happens in request order whatever order they
settled in.  Fault telemetry — attempt failures, retries, resumes — is
deliberately kept **out** of the results (faults are host-dependent)
and flows through a separate runner Observation instead, which
``repro stats`` summarizes like any other event stream.

**Fault semantics.**

* A unit that raises keeps the pool alive; the unit is retried with
  exponential backoff up to its budget.
* A unit that exceeds the per-unit ``timeout`` gets its pool recycled
  (there is no way to kill one hung worker out of a pool); the timed-out
  unit is charged an attempt, innocent in-flight units are resubmitted
  free of charge.
* A worker that *dies* breaks the whole
  :class:`~concurrent.futures.ProcessPoolExecutor`, which cannot say
  which unit killed it — so every in-flight unit is re-run **solo** (one
  at a time in a fresh pool).  A unit that crashes alone is definitively
  the culprit and is charged; innocent units simply succeed on their
  solo run.  A dead worker therefore fails only its own unit.
* A unit that exhausts ``retries`` degrades to a structured ``failed``
  record (a FAILED experiment result) and the run continues; the caller
  reports a summary and a nonzero exit code.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import warnings
from collections import deque
from contextlib import contextmanager
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

from ..obs.events import CellAttemptFailed, CellFailed, CellResumed, CellRetried, jsonable
from ..obs.observe import Observation, resolve_obs
from ..obs.sinks import JSONLSink
from .journal import JOURNAL_NAME, JournalEntry, RunJournal, cell_key, load_journal
from .progress import ProgressReporter
from .retry import RetryPolicy

__all__ = [
    "WORKERS_ENV",
    "WorkUnit",
    "CellOutcome",
    "RunStats",
    "RunReport",
    "RESULTS_NAME",
    "RUNNER_TRACE_NAME",
    "resolve_workers",
    "canonical_json",
    "load_results",
    "execute_units",
    "resilient_run_experiments",
]

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: File names written into a run directory next to the journal.
RESULTS_NAME = "results.json"
RUNNER_TRACE_NAME = "runner.jsonl"

#: Safety margin added to the per-cell deadline for pool startup latency.
_DEADLINE_GRACE = 0.05


def resolve_workers(workers: Optional[int] = None) -> int:
    """An explicit ``workers`` wins; else ``$REPRO_WORKERS``; else 1."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        workers = int(env) if env else 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def canonical_json(value: Any) -> Any:
    """Round-trip ``value`` through JSON so fresh and journal-replayed
    payloads are indistinguishable (tuples become lists *now*, not only
    after a resume)."""
    return json.loads(json.dumps(jsonable(value)))


@dataclass(frozen=True)
class WorkUnit:
    """One journalable unit of work: identity + the picklable task."""

    experiment: str
    cell: str
    seed: Any
    fn: Callable[..., Any]
    args: Tuple[Any, ...]

    @property
    def key(self) -> str:
        return cell_key(self.experiment, self.cell, self.seed)


@dataclass
class CellOutcome:
    """How one unit of work settled."""

    unit: WorkUnit
    status: str  # "done" | "failed"
    attempts: int
    row: Optional[Dict[str, Any]] = None
    resumed: bool = False
    error: Optional[str] = None
    detail: Optional[str] = None


@dataclass
class RunStats:
    """End-of-run accounting, printed as the runner summary."""

    done: int = 0
    resumed: int = 0
    failed: int = 0
    retries: int = 0
    attempt_failures: int = 0
    pool_recycles: int = 0
    corrupt_journal_lines: int = 0

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def summary_line(self) -> str:
        parts = [f"{self.done} cell(s) done"]
        if self.resumed:
            parts[0] += f" ({self.resumed} replayed from journal)"
        parts.append(f"{self.failed} failed")
        if self.retries:
            parts.append(f"{self.retries} retry(ies)")
        if self.pool_recycles:
            parts.append(f"{self.pool_recycles} pool recycle(s)")
        if self.corrupt_journal_lines:
            parts.append(f"{self.corrupt_journal_lines} corrupt journal line(s)")
        return "runner: " + ", ".join(parts)


@dataclass
class RunReport:
    """What :func:`resilient_run_experiments` returns: payload + fault accounting."""

    stats: RunStats
    results: Dict[str, Any]
    run_dir: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.stats.ok


# ----------------------------------------------------------------------
# Pool hosting
# ----------------------------------------------------------------------
def init_worker() -> None:
    """Pool initializer: end this worker as soon as its parent process dies.

    A SIGKILLed parent cannot shut its pool down, and the worker would
    otherwise wait on the call queue forever.
    """
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with_parent, args=(parent.sentinel,), daemon=True
        ).start()


def _exit_with_parent(sentinel: int) -> None:
    """Block until the parent's sentinel fires, then end this process."""
    multiprocessing.connection.wait([sentinel])
    os._exit(1)


class _PoolHost:
    """A recyclable process pool: crashes and hangs are cured by
    terminating every worker and starting fresh."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=init_worker
            )
        return self._pool.submit(fn, *args)

    def recycle(self) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # Hung workers would block a graceful shutdown forever; kill them.
        # (_processes is private but stable; degrade to a plain shutdown
        # if it ever disappears.)
        procs = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()


@dataclass
class _Flight:
    """Bookkeeping for one submitted attempt."""

    unit: WorkUnit
    attempts: int  # attempts consumed *before* this one
    deadline: Optional[float]
    solo: bool


# ----------------------------------------------------------------------
# The core loop
# ----------------------------------------------------------------------
def execute_units(
    units: Sequence[WorkUnit],
    *,
    workers: int,
    policy: RetryPolicy,
    journal: Optional[RunJournal] = None,
    journaled: Optional[Dict[str, JournalEntry]] = None,
    runner_obs: Optional[Observation] = None,
    progress: Optional["ProgressReporter"] = None,
) -> Tuple[Dict[str, CellOutcome], RunStats]:
    """Run every unit to a settled outcome, fault-tolerantly.

    Each unit's task returns its JSON-canonical row (see
    :func:`canonical_json`), which the journal stores as is.  Returns
    outcomes keyed by :attr:`WorkUnit.key` — completion order is
    irrelevant; callers merge in their own canonical order.  ``journaled``
    entries with status ``done`` are replayed without recomputation
    (``failed`` entries get a fresh chance).  ``runner_obs`` receives the
    fault/retry/resume telemetry; the deterministic result stream is the
    caller's business entirely.  ``progress`` — an optional
    :class:`repro.runner.progress.ProgressReporter` — gets a heartbeat per
    settled cell (stderr only; results are unaffected).
    """
    obs = resolve_obs(runner_obs)
    stats = RunStats()
    outcomes: Dict[str, CellOutcome] = {}
    pending: deque = deque()
    suspects: deque = deque()

    for unit in units:
        entry = (journaled or {}).get(unit.key)
        if entry is not None and entry.status == "done":
            outcomes[unit.key] = CellOutcome(
                unit,
                "done",
                attempts=entry.attempts,
                row=entry.row,
                resumed=True,
            )
            stats.resumed += 1
            stats.done += 1
            if obs.enabled:
                obs.emit(CellResumed(experiment=unit.experiment, cell=unit.cell))
            if progress is not None:
                progress.cell_done(resumed=True)
        else:
            pending.append((unit, 0))

    if not pending:
        if progress is not None:
            progress.finish()
        return outcomes, stats

    # A hard ceiling on pool recycles: every recycle charges at least one
    # attempt somewhere, so a healthy run can never exceed the total
    # attempt budget.  Tripping this means the pool itself cannot start.
    max_recycles = len(pending) * policy.max_attempts + 8

    # Never wider than the work: a worker with no unit to run is a wasted fork.
    pool = _PoolHost(min(workers, len(pending)))
    in_flight: Dict[Future, _Flight] = {}

    def settle_failed(flight: _Flight, error: str, detail: str) -> None:
        unit = flight.unit
        attempts = flight.attempts + 1
        stats.attempt_failures += 1
        if obs.enabled:
            obs.emit(
                CellAttemptFailed(
                    experiment=unit.experiment,
                    cell=unit.cell,
                    attempt=attempts,
                    error=error,
                    detail=detail,
                )
            )
        if attempts >= policy.max_attempts:
            stats.failed += 1
            if obs.enabled:
                obs.emit(
                    CellFailed(
                        experiment=unit.experiment,
                        cell=unit.cell,
                        attempts=attempts,
                        error=error,
                        detail=detail,
                    )
                )
            outcomes[unit.key] = CellOutcome(
                unit, "failed", attempts=attempts, error=error, detail=detail
            )
            if progress is not None:
                progress.cell_failed()
            if journal is not None:
                journal.append(
                    JournalEntry(
                        key=unit.key,
                        experiment=unit.experiment,
                        cell=unit.cell,
                        seed=unit.seed,
                        status="failed",
                        attempts=attempts,
                        error=error,
                        detail=detail,
                    )
                )
        else:
            delay = policy.delay(attempts)
            stats.retries += 1
            if obs.enabled:
                obs.emit(
                    CellRetried(
                        experiment=unit.experiment,
                        cell=unit.cell,
                        attempt=attempts,
                        delay_s=delay,
                    )
                )
            if delay:
                time.sleep(delay)
            # Once suspect, always solo: keeps crash attribution exact.
            (suspects if flight.solo else pending).append((unit, attempts))

    def settle_done(flight: _Flight, row: Dict[str, Any]) -> None:
        unit = flight.unit
        attempts = flight.attempts + 1
        outcomes[unit.key] = CellOutcome(unit, "done", attempts=attempts, row=row)
        stats.done += 1
        if progress is not None:
            progress.cell_done()
        if journal is not None:
            journal.append(
                JournalEntry(
                    key=unit.key,
                    experiment=unit.experiment,
                    cell=unit.cell,
                    seed=unit.seed,
                    status="done",
                    attempts=attempts,
                    row=row,
                )
            )

    def submit(unit: WorkUnit, attempts: int, solo: bool) -> None:
        deadline = (
            time.monotonic() + policy.timeout + _DEADLINE_GRACE
            if policy.timeout is not None
            else None
        )
        future = pool.submit(unit.fn, *unit.args)
        in_flight[future] = _Flight(unit, attempts, deadline, solo)

    try:
        while pending or suspects or in_flight:
            if not in_flight and suspects:
                unit, attempts = suspects.popleft()
                submit(unit, attempts, solo=True)
            elif not suspects:
                while pending and len(in_flight) < workers:
                    unit, attempts = pending.popleft()
                    submit(unit, attempts, solo=False)
            if not in_flight:
                continue

            poll: Optional[float] = None
            if policy.timeout is not None:
                nearest = min(
                    f.deadline for f in in_flight.values() if f.deadline is not None
                )
                poll = max(0.0, nearest - time.monotonic()) + _DEADLINE_GRACE
            done, _ = wait(set(in_flight), timeout=poll, return_when=FIRST_COMPLETED)

            broke = False
            for future in done:
                flight = in_flight.pop(future)
                try:
                    payload = future.result()
                except BrokenExecutor:
                    broke = True
                    if flight.solo:
                        # Running alone: this cell provably killed its worker.
                        settle_failed(
                            flight,
                            "WorkerCrash",
                            "worker process died while running this cell",
                        )
                    else:
                        # Culprit unknown — re-run solo, free of charge.
                        suspects.append((flight.unit, flight.attempts))
                except Exception as exc:  # the task itself raised; pool is fine
                    settle_failed(flight, type(exc).__name__, str(exc))
                else:
                    settle_done(flight, payload)

            if broke:
                # The pool is dead; cells still marked in-flight died with it.
                for flight in in_flight.values():
                    suspects.append((flight.unit, flight.attempts))
                in_flight.clear()
                stats.pool_recycles += 1
                if stats.pool_recycles > max_recycles:
                    raise RuntimeError(
                        "runner: worker pool kept breaking "
                        f"({stats.pool_recycles} recycles); giving up"
                    )
                pool.recycle()
                continue

            if policy.timeout is not None and in_flight:
                now = time.monotonic()
                expired = [
                    future
                    for future, flight in in_flight.items()
                    if flight.deadline is not None and now >= flight.deadline
                ]
                if expired:
                    expired_flights = [in_flight.pop(future) for future in expired]
                    survivors = list(in_flight.values())
                    in_flight.clear()
                    stats.pool_recycles += 1
                    if stats.pool_recycles > max_recycles:
                        raise RuntimeError(
                            "runner: worker pool kept breaking "
                            f"({stats.pool_recycles} recycles); giving up"
                        )
                    pool.recycle()
                    for flight in expired_flights:
                        settle_failed(
                            flight,
                            "TimeoutError",
                            f"cell exceeded its {policy.timeout}s wall-clock budget",
                        )
                    for flight in survivors:
                        # Collateral of the recycle: resubmit, no attempt charged.
                        pending.appendleft((flight.unit, flight.attempts))
    finally:
        pool.shutdown()

    if progress is not None:
        progress.finish()
    return outcomes, stats


# ----------------------------------------------------------------------
# The front-end: registry experiments
# ----------------------------------------------------------------------
@contextmanager
def _open_run_dir(
    run_dir: Optional[str], runner_obs: Optional[Observation]
) -> Iterator[Tuple[Optional[RunJournal], Dict[str, JournalEntry], int, Optional[Observation]]]:
    """Open ``run_dir`` for one run: ``(journal, journaled, corrupt, runner_obs)``.

    Loads the journal (its entries by key and the corrupt-line count) and
    opens it for append.  Unless the caller brings its own ``runner_obs``,
    fault telemetry goes to the run directory's ``runner.jsonl``, opened
    for append so a resumed run extends (never truncates) the interrupted
    run's record.  Without a run directory nothing is journaled.
    """
    if run_dir is None:
        yield None, {}, 0, runner_obs
        return
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, JOURNAL_NAME)
    journaled, corrupt = load_journal(path)
    stream = None
    if runner_obs is None:
        stream = open(os.path.join(run_dir, RUNNER_TRACE_NAME), "a", encoding="utf-8")
        runner_obs = Observation(JSONLSink(stream))
    try:
        with RunJournal(path) as journal:
            yield journal, journaled, corrupt, runner_obs
    finally:
        if stream is not None:
            runner_obs.close()
            stream.close()


#: The fields :func:`experiment_result_to_dict` writes, in order.
_RESULT_FIELDS = ("experiment", "title", "rows", "findings", "columns")


def experiment_result_to_dict(result: Any) -> Dict[str, Any]:
    """Serialize an :class:`~repro.analysis.result.ExperimentResult` for
    the journal (JSON-canonical, so replay is byte-stable)."""
    return canonical_json(
        {
            "experiment": result.experiment,
            "title": result.title,
            "rows": result.rows,
            "findings": result.findings,
            "columns": list(result.columns) if result.columns is not None else None,
        }
    )


def experiment_result_from_dict(data: Any) -> Any:
    """Rehydrate what :func:`experiment_result_to_dict` wrote.

    Raises :class:`ValueError` when ``data`` is not that shape: not an
    object, a field missing or of the wrong type, a row that is not an
    object, a finding or column that is not a string.
    """
    from ..analysis.result import ExperimentResult

    if not isinstance(data, dict):
        raise ValueError(f"an experiment result must be an object, not {type(data).__name__}")
    missing = [name for name in _RESULT_FIELDS if name not in data]
    if missing:
        raise ValueError(f"experiment result lacks {', '.join(missing)}")
    rows, findings, columns = data["rows"], data["findings"], data["columns"]
    if not (
        isinstance(data["experiment"], str)
        and isinstance(data["title"], str)
        and isinstance(rows, list)
        and all(isinstance(row, dict) for row in rows)
        and isinstance(findings, list)
        and all(isinstance(finding, str) for finding in findings)
        and (columns is None or isinstance(columns, list))
        and all(isinstance(column, str) for column in columns or ())
    ):
        raise ValueError(f"experiment result {data['experiment']!r} has a field of the wrong type")
    return ExperimentResult(
        experiment=data["experiment"],
        title=data["title"],
        rows=rows,
        findings=findings,
        columns=columns,
    )


def _failed_experiment_result(eid: str, failure: Dict[str, Any]) -> Any:
    """The FAILED result standing in for an experiment that exhausted its
    retries: its single row is the structured ``failed`` record."""
    from ..analysis.result import ExperimentResult

    return ExperimentResult(
        experiment=failure.get("experiment", eid.upper()),
        title="FAILED",
        rows=[failure],
        findings=[
            f"failed after {failure.get('attempts', '?')} attempt(s): "
            f"{failure.get('error')}: {failure.get('detail')}"
        ],
    )


def load_results(run_dir: str) -> Dict[str, Any]:
    """Rehydrate a run directory's ``results.json`` as experiment results.

    Returns the same shape :func:`resilient_run_experiments` hands back in
    ``report.results``: requested ids mapped to
    :class:`~repro.analysis.result.ExperimentResult`, with entries that
    exhausted their retries synthesized into single-row ``failed`` results.
    This is what lets ``repro verdict --results DIR`` replay a saved run
    instead of re-executing the grid.  A file that is not that shape
    raises :class:`ValueError` naming the file and the experiment id.
    """
    path = os.path.join(run_dir, RESULTS_NAME)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"no {RESULTS_NAME} in {run_dir!r} — was this directory written by "
            "resilient_run_experiments (repro all --run-dir)?"
        )
    with open(path, "r", encoding="utf-8") as handle:
        serialized = json.load(handle)
    if not isinstance(serialized, dict):
        raise ValueError(
            f"{path}: expected an object of experiment results, not {type(serialized).__name__}"
        )
    results: Dict[str, Any] = {}
    for eid, payload in serialized.items():
        try:
            if isinstance(payload, dict) and payload.get("failed"):
                results[eid] = _failed_experiment_result(eid, payload)
            else:
                results[eid] = experiment_result_from_dict(payload)
        except ValueError as exc:
            raise ValueError(f"{path}: {eid}: {exc}") from None
    return results


def serialized_experiment_task(experiment_id: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: run one registry experiment, return it as the
    JSON-canonical dict the journal stores."""
    from ..analysis.experiments import run_experiment

    return experiment_result_to_dict(run_experiment(experiment_id, **kwargs))


def resilient_run_experiments(
    ids: Sequence[str],
    workers: Optional[int] = None,
    kwargs_by_id: Optional[Dict[str, Dict[str, Any]]] = None,
    policy: Optional[RetryPolicy] = None,
    run_dir: Optional[str] = None,
    runner_obs: Optional[Observation] = None,
    progress: Optional[ProgressReporter] = None,
) -> RunReport:
    """Run several registry experiments across a process pool.

    Each experiment id is one journaled unit of work.  ``report.results``
    maps the requested ids (in request order, whatever the completion
    order) to :class:`~repro.analysis.result.ExperimentResult`, so
    ``repro exp E1 E2 --workers 4`` prints exactly what the serial CLI
    prints.  ``kwargs_by_id`` passes per-experiment keyword arguments
    (e.g. ``{"E1": {"sizes": (8, 16)}}``).  An experiment that exhausts
    its retries maps to a synthesized failure result whose single row is
    the structured ``failed`` record.  With a ``run_dir`` the merged
    payload also lands in ``results.json`` for byte-level diffing.
    """
    from ..analysis.experiments import EXPERIMENTS

    workers = resolve_workers(workers)
    policy = policy or RetryPolicy()
    kwargs_by_id = kwargs_by_id or {}
    for eid in ids:
        if eid.upper() not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {eid!r}; have {sorted(EXPERIMENTS)}"
            )

    units = [
        WorkUnit(
            experiment=eid.upper(),
            cell=json.dumps(kwargs_by_id.get(eid, {}), sort_keys=True, default=repr),
            seed="",
            fn=serialized_experiment_task,
            args=(eid, kwargs_by_id.get(eid, {})),
        )
        for eid in ids
    ]
    with _open_run_dir(run_dir, runner_obs) as (journal, journaled, corrupt, runner_obs):
        # A journaled row that is not an experiment result is a corrupt
        # line like a torn one: warned about, counted, recomputed.
        for unit in units:
            entry = journaled.get(unit.key)
            if entry is None or entry.status != "done":
                continue
            try:
                experiment_result_from_dict(entry.row)
            except ValueError as exc:
                warnings.warn(
                    f"{journal.path}: corrupted journal line for {unit.experiment} "
                    f"({exc}); the experiment will be recomputed",
                    stacklevel=2,
                )
                del journaled[unit.key]
                corrupt += 1
        outcomes, stats = execute_units(
            units,
            workers=workers,
            policy=policy,
            journal=journal,
            journaled=journaled,
            runner_obs=runner_obs,
            progress=progress,
        )
    stats.corrupt_journal_lines = corrupt

    results: Dict[str, Any] = {}
    serialized: Dict[str, Any] = {}
    for eid, unit in zip(ids, units):
        outcome = outcomes[unit.key]
        if outcome.status == "done":
            results[eid] = experiment_result_from_dict(outcome.row)
            serialized[eid] = outcome.row
        else:
            serialized[eid] = {
                "experiment": eid.upper(),
                "failed": True,
                "error": outcome.error,
                "detail": outcome.detail,
                "attempts": outcome.attempts,
            }
            results[eid] = _failed_experiment_result(eid, serialized[eid])
    if run_dir is not None:
        with open(os.path.join(run_dir, RESULTS_NAME), "w", encoding="utf-8") as handle:
            json.dump(serialized, handle, indent=2)
            handle.write("\n")
    return RunReport(stats=stats, results=results, run_dir=run_dir)
