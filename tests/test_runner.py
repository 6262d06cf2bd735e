"""The fault-tolerant runner's guarantees, stated as executable assertions.

The contract under test (docs/ROBUSTNESS.md), on the path ``repro exp``
and ``repro all`` run — :func:`repro.runner.resilient_run_experiments`:

1. No faults: the results are what the serial ``run_experiment`` returns.
2. Kill-and-resume: interrupt a journaled run at *any* experiment
   boundary (or mid-append) and resume; ``results.json`` is
   byte-identical to an uninterrupted run's.
3. Fault isolation: a crashing worker, a hung experiment, or a flaky
   exception costs exactly the guilty experiment (a FAILED result after
   the retry budget); every other result matches the serial path.
4. Journal corruption degrades to recomputation with a warning, never to
   wrong results.

Faults are injected by monkeypatching the worker entry point,
``repro.runner.core.serialized_experiment_task``, with module-level
functions (they must pickle across the process boundary).  Cross-process
state (fail once, then succeed; an armed bomb) goes through marker files
in the test's working directory, which pool workers inherit.
"""

import json
import os
import time

import pytest

from repro.analysis.experiments import run_experiment
from repro.obs import MetricsRegistry, Observation
from repro.obs.sinks import MemorySink
from repro.runner import (
    JOURNAL_NAME,
    JOURNAL_SCHEMA,
    JournalEntry,
    RetryPolicy,
    RunJournal,
    cell_key,
    load_journal,
    resilient_run_experiments,
)
from repro.runner.core import RESULTS_NAME, RUNNER_TRACE_NAME, serialized_experiment_task

#: Fast policy for tests: immediate retries, one re-attempt.
FAST = RetryPolicy(retries=1, backoff_base=0.0)

#: Eight cheap experiments: eight units, so nine journal boundaries.
GRID = {
    "E1": {"sizes": (8,), "families": ("path", "cycle")},
    "E3": {"sizes": (8, 12), "families": ("complete",)},
    "E4": {"sizes": (8,), "families": ("path", "complete")},
    "E6": {"sizes": (8, 16)},
    "E9": {"n": 16, "families": ("grid",)},
    "E10": {"sizes": (8,), "families": ("complete",)},
    "E11": {"sizes": (8,), "families": ("complete",)},
    "E12": {"sizes": (8,), "families": ("cycle",)},
}
IDS = list(GRID)

#: The experiment every fault injector picks on.
GUILTY = "E4"


# ----------------------------------------------------------------------
# Fault-injecting worker entry points (module-level: they must pickle)
# ----------------------------------------------------------------------
def crash_task(experiment_id, kwargs):
    """Kill the worker process outright on the guilty experiment."""
    if experiment_id == GUILTY:
        os._exit(17)
    return serialized_experiment_task(experiment_id, kwargs)


def hang_task(experiment_id, kwargs):
    """Hang far past any test timeout on the guilty experiment."""
    if experiment_id == GUILTY:
        time.sleep(300)
    return serialized_experiment_task(experiment_id, kwargs)


def raise_task(experiment_id, kwargs):
    """Deterministically raise on the guilty experiment."""
    if experiment_id == GUILTY:
        raise RuntimeError("injected failure")
    return serialized_experiment_task(experiment_id, kwargs)


def flaky_task(experiment_id, kwargs):
    """Raise on the first attempt at the guilty experiment; succeed ever after."""
    if experiment_id == GUILTY and not os.path.exists("flake-marker"):
        with open("flake-marker", "w", encoding="utf-8") as handle:
            handle.write("tripped")
        raise RuntimeError("flaky: first attempt")
    return serialized_experiment_task(experiment_id, kwargs)


def bomb_task(experiment_id, kwargs):
    """Run normally until ``armed`` exists; then crash the worker.

    Journal keys do not depend on the task function, so a journal written
    before arming the bomb still matches — which is how the tests prove
    resumed experiments are *replayed*, not rerun.
    """
    if os.path.exists("armed"):
        os._exit(23)
    return serialized_experiment_task(experiment_id, kwargs)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serial():
    return {eid: run_experiment(eid, **kwargs) for eid, kwargs in GRID.items()}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """An uninterrupted journaled run: its directory and results.json bytes."""
    run_dir = str(tmp_path_factory.mktemp("reference"))
    report = resilient_run_experiments(
        IDS, workers=2, kwargs_by_id=GRID, policy=FAST, run_dir=run_dir
    )
    assert report.ok
    with open(os.path.join(run_dir, RESULTS_NAME), "rb") as handle:
        return run_dir, handle.read()


@pytest.fixture
def inject(monkeypatch, tmp_path):
    """Swap the worker entry point; markers land in ``tmp_path``."""
    monkeypatch.chdir(tmp_path)

    def use(task):
        monkeypatch.setattr("repro.runner.core.serialized_experiment_task", task)

    return use


def run_grid(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("policy", FAST)
    return resilient_run_experiments(IDS, kwargs_by_id=GRID, **kwargs)


def runner_observation():
    return Observation(MemorySink(), MetricsRegistry())


def results_bytes(run_dir):
    with open(os.path.join(run_dir, RESULTS_NAME), "rb") as handle:
        return handle.read()


def assert_only_guilty_failed(report, serial, error):
    failed = [eid for eid, result in report.results.items() if result.title == "FAILED"]
    assert failed == [GUILTY]
    (row,) = report.results[GUILTY].rows
    assert row["failed"] and row["error"] == error
    assert row["attempts"] == FAST.max_attempts
    for eid, result in report.results.items():
        if eid != GUILTY:
            assert result.rows == serial[eid].rows
            assert result.findings == serial[eid].findings


# ----------------------------------------------------------------------
# 1. No faults: the run directory
# ----------------------------------------------------------------------
def test_resilient_experiments_write_run_dir_files(tmp_path, serial):
    run_dir = str(tmp_path / "run")
    report = run_grid(run_dir=run_dir)
    assert sorted(os.listdir(run_dir)) == sorted(
        [JOURNAL_NAME, RESULTS_NAME, RUNNER_TRACE_NAME]
    )
    with open(os.path.join(run_dir, RESULTS_NAME), encoding="utf-8") as handle:
        serialized = json.load(handle)
    assert list(serialized) == IDS
    for eid in IDS:
        assert report.results[eid].rows == serial[eid].rows
        assert serialized[eid]["rows"] == serial[eid].rows
    entries, corrupt = load_journal(os.path.join(run_dir, JOURNAL_NAME))
    assert corrupt == 0
    assert len(entries) == len(IDS)
    assert all(e.status == "done" for e in entries.values())


# ----------------------------------------------------------------------
# 2. Kill-and-resume byte-identity
# ----------------------------------------------------------------------
def truncated_copy(journal_path, target_dir, keep_lines, partial_tail=""):
    """A run dir whose journal holds the first ``keep_lines`` entries —
    exactly what a SIGKILL at that boundary leaves behind."""
    os.makedirs(target_dir, exist_ok=True)
    with open(journal_path, encoding="utf-8") as handle:
        lines = handle.readlines()
    with open(os.path.join(target_dir, JOURNAL_NAME), "w", encoding="utf-8") as handle:
        handle.writelines(lines[:keep_lines])
        handle.write(partial_tail)


@pytest.mark.parametrize("keep", range(len(GRID) + 1))
def test_resume_after_interruption_is_byte_identical(tmp_path, reference, keep):
    ref_dir, ref_bytes = reference
    resumed_dir = str(tmp_path / f"resume{keep}")
    truncated_copy(os.path.join(ref_dir, JOURNAL_NAME), resumed_dir, keep)
    runner_obs = runner_observation()
    report = run_grid(run_dir=resumed_dir, runner_obs=runner_obs)
    assert results_bytes(resumed_dir) == ref_bytes
    assert report.stats.resumed == keep
    assert report.stats.done == len(IDS)
    resumes = runner_obs.metrics.counter("runner_cells_resumed").value
    assert resumes == keep or keep == 0


def test_resume_with_torn_final_line_recomputes_that_cell(tmp_path, reference):
    """A SIGKILL mid-append leaves a torn line: warned about, recomputed."""
    ref_dir, ref_bytes = reference
    resumed_dir = str(tmp_path / "torn")
    truncated_copy(
        os.path.join(ref_dir, JOURNAL_NAME),
        resumed_dir,
        3,
        partial_tail='{"schema":"repro-runner/1","key":"abc","exp',  # torn write
    )
    with pytest.warns(UserWarning, match="corrupted journal line"):
        report = run_grid(run_dir=resumed_dir)
    assert results_bytes(resumed_dir) == ref_bytes
    assert report.stats.resumed == 3
    assert report.stats.corrupt_journal_lines == 1


def test_resume_with_wrong_shape_row_recomputes_that_experiment(tmp_path):
    """A journaled row that is valid JSON but no experiment result is a
    corrupt line too: warned about, counted, recomputed."""
    ref_dir = str(tmp_path / "ref")
    resilient_run_experiments(
        ["E1", "E3"], workers=2, kwargs_by_id=EXP_KWARGS, policy=FAST, run_dir=ref_dir
    )
    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    with open(os.path.join(ref_dir, JOURNAL_NAME), encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    for record in records:
        if record["experiment"] == "E1":
            record["row"] = {"title": "x"}
    (bad_dir / JOURNAL_NAME).write_text("".join(json.dumps(r) + "\n" for r in records))

    with pytest.warns(UserWarning, match="corrupted journal line for E1"):
        report = resilient_run_experiments(
            ["E1", "E3"], workers=2, kwargs_by_id=EXP_KWARGS, policy=FAST, run_dir=str(bad_dir)
        )
    assert report.stats.resumed == 1
    assert report.stats.corrupt_journal_lines == 1
    assert "1 corrupt journal line(s)" in report.stats.summary_line()
    with open(os.path.join(ref_dir, RESULTS_NAME), "rb") as handle:
        assert (bad_dir / RESULTS_NAME).read_bytes() == handle.read()
    # The recomputed row was journaled: the next resume replays both.
    again = resilient_run_experiments(
        ["E1", "E3"], workers=2, kwargs_by_id=EXP_KWARGS, policy=FAST, run_dir=str(bad_dir)
    )
    assert again.stats.resumed == 2 and again.stats.corrupt_journal_lines == 0


def test_resume_replays_done_cells_without_recomputing(tmp_path, inject):
    """After a full journaled run, arm the bomb: a resume that *ran* any
    experiment would crash its worker — so finishing proves replay."""
    inject(bomb_task)
    run_dir = str(tmp_path / "run")
    first = run_grid(run_dir=run_dir)
    assert first.ok
    first_bytes = results_bytes(run_dir)

    (tmp_path / "armed").write_text("armed")
    runner_obs = runner_observation()
    again = run_grid(run_dir=run_dir, runner_obs=runner_obs)
    assert again.ok
    assert results_bytes(run_dir) == first_bytes
    assert again.stats.resumed == len(IDS)
    assert runner_obs.metrics.counter("runner_cells_resumed").value == len(IDS)


def test_resume_misses_on_different_kwargs(tmp_path, serial):
    """A journal written for one grid must not answer another."""
    run_dir = str(tmp_path / "run")
    resilient_run_experiments(
        ["E1"], workers=1, kwargs_by_id={"E1": {"sizes": (16,)}}, policy=FAST, run_dir=run_dir
    )
    report = resilient_run_experiments(
        ["E1"], workers=1, kwargs_by_id={"E1": GRID["E1"]}, policy=FAST, run_dir=run_dir
    )
    assert report.stats.resumed == 0
    assert report.results["E1"].rows == serial["E1"].rows


def test_resume_reads_journal_lines_that_carry_events(tmp_path, reference):
    """Journal lines with an ``events`` field (written before the journal
    stopped storing telemetry) still replay."""
    ref_dir, ref_bytes = reference
    old_dir = tmp_path / "old"
    old_dir.mkdir()
    with open(os.path.join(ref_dir, JOURNAL_NAME), encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    lines = []
    for record in records:
        assert "events" not in record
        record["events"] = []
        lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    (old_dir / JOURNAL_NAME).write_text("".join(lines))
    report = run_grid(run_dir=str(old_dir))
    assert report.stats.resumed == len(IDS)
    assert (old_dir / RESULTS_NAME).read_bytes() == ref_bytes


# ----------------------------------------------------------------------
# 3. Fault isolation: crash, hang, exception, flake
# ----------------------------------------------------------------------
def test_worker_crash_fails_only_its_cell(inject, serial):
    inject(crash_task)
    runner_obs = runner_observation()
    report = run_grid(runner_obs=runner_obs)
    assert not report.ok
    assert report.stats.failed == 1
    assert_only_guilty_failed(report, serial, "WorkerCrash")
    assert runner_obs.metrics.counter("runner_cells_failed").value == 1
    assert report.stats.pool_recycles >= 1


def test_timeout_fails_only_the_hung_cell(inject, serial):
    inject(hang_task)
    policy = RetryPolicy(retries=1, timeout=2.0, backoff_base=0.0)
    report = run_grid(policy=policy)
    assert not report.ok
    assert_only_guilty_failed(report, serial, "TimeoutError")


def test_exception_exhausts_retries_then_degrades(inject, serial):
    inject(raise_task)
    runner_obs = runner_observation()
    report = run_grid(runner_obs=runner_obs)
    assert_only_guilty_failed(report, serial, "RuntimeError")
    assert "injected failure" in report.results[GUILTY].findings[0]
    metrics = runner_obs.metrics
    assert metrics.counter("runner_attempt_failures").value == FAST.max_attempts
    assert metrics.counter("runner_retries").value == FAST.retries
    assert metrics.counter("runner_cells_failed").value == 1


def test_flaky_cell_retries_to_success(inject, serial):
    inject(flaky_task)
    runner_obs = runner_observation()
    report = run_grid(runner_obs=runner_obs)
    assert report.ok
    assert report.stats.failed == 0
    assert report.stats.retries == 1
    for eid in IDS:
        assert report.results[eid].rows == serial[eid].rows
    assert runner_obs.metrics.counter("runner_retries").value == 1
    assert "runner_cells_failed" not in runner_obs.metrics


def test_failed_cells_are_journaled_and_retried_on_resume(tmp_path, inject, reference):
    """``failed`` journal entries are recorded but NOT replayed: a resume
    gives the experiment a fresh chance — which succeeds once the fault is
    gone, and re-fails while it persists."""
    inject(raise_task)
    run_dir = str(tmp_path / "run")
    report = run_grid(run_dir=run_dir)
    assert not report.ok
    entries, _ = load_journal(os.path.join(run_dir, JOURNAL_NAME))
    statuses = sorted(e.status for e in entries.values())
    assert statuses.count("failed") == 1 and statuses.count("done") == len(IDS) - 1

    again = run_grid(run_dir=run_dir)
    assert again.stats.resumed == len(IDS) - 1
    assert again.stats.attempt_failures == FAST.max_attempts  # re-ran, re-failed
    assert not again.ok

    inject(serialized_experiment_task)
    fixed = run_grid(run_dir=run_dir)
    assert fixed.ok
    assert fixed.stats.resumed == len(IDS) - 1
    assert results_bytes(run_dir) == reference[1]


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def test_retry_policy_math():
    policy = RetryPolicy(retries=3, backoff_base=0.5, backoff_factor=2.0)
    assert policy.max_attempts == 4
    assert policy.delay(1) == 0.5
    assert policy.delay(2) == 1.0
    assert policy.delay(3) == 2.0
    assert RetryPolicy(backoff_base=0.0).delay(5) == 0.0


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy().delay(0)


# ----------------------------------------------------------------------
# Journal plumbing
# ----------------------------------------------------------------------
def test_cell_key_separates_every_coordinate():
    keys = {
        cell_key("E1", "{}", ""),
        cell_key("E1", '{"sizes": [8]}', ""),
        cell_key("E3", "{}", ""),
        cell_key("E1", "{}", 1),
    }
    assert len(keys) == 4


def test_journal_round_trip(tmp_path):
    path = str(tmp_path / "j.jsonl")
    entry = JournalEntry(
        key=cell_key("E1", "{}", ""),
        experiment="E1",
        cell="{}",
        seed="",
        status="done",
        attempts=2,
        row={"a": 1},
    )
    with RunJournal(path) as journal:
        journal.append(entry)
    entries, corrupt = load_journal(path)
    assert corrupt == 0
    assert entries[entry.key].to_dict() == entry.to_dict()


def test_load_journal_missing_file_is_empty(tmp_path):
    entries, corrupt = load_journal(str(tmp_path / "absent.jsonl"))
    assert entries == {} and corrupt == 0


def test_load_journal_skips_wrong_schema_and_keeps_last_duplicate(tmp_path):
    path = str(tmp_path / "j.jsonl")
    key = cell_key("E1", "{}", "")
    good = JournalEntry(key=key, experiment="E1", cell="{}", seed="", status="failed")
    better = JournalEntry(
        key=key, experiment="E1", cell="{}", seed="", status="done", row={"ok": 1}
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"schema": "other/9", "key": "x"}) + "\n")
        handle.write(json.dumps(good.to_dict()) + "\n")
        handle.write(json.dumps(better.to_dict()) + "\n")
    with pytest.warns(UserWarning, match="corrupted journal line"):
        entries, corrupt = load_journal(path)
    assert corrupt == 1
    assert entries[key].status == "done"
    assert JOURNAL_SCHEMA in json.dumps(entries[key].to_dict())


# ----------------------------------------------------------------------
# The experiments front-end
# ----------------------------------------------------------------------
EXP_KWARGS = {
    "E1": {"sizes": (8,), "families": ("path", "cycle")},
    "E3": {"sizes": (8, 12), "families": ("complete",)},
}


def test_resilient_experiments_match_serial(tmp_path):
    serial = {eid: run_experiment(eid, **kwargs) for eid, kwargs in EXP_KWARGS.items()}
    run_dir = str(tmp_path / "run")
    report = resilient_run_experiments(
        ["E1", "E3"], workers=2, kwargs_by_id=EXP_KWARGS, policy=FAST, run_dir=run_dir
    )
    assert report.ok
    assert list(report.results) == ["E1", "E3"]
    for eid in EXP_KWARGS:
        assert report.results[eid].rows == serial[eid].rows
        assert report.results[eid].findings == serial[eid].findings
    with open(os.path.join(run_dir, RESULTS_NAME), encoding="utf-8") as handle:
        serialized = json.load(handle)
    assert list(serialized) == ["E1", "E3"]
    assert serialized["E1"]["rows"] == serial["E1"].rows


def test_resilient_experiments_resume_results_byte_identical(tmp_path):
    ref_dir = str(tmp_path / "ref")
    resilient_run_experiments(
        ["E1", "E3"], workers=2, kwargs_by_id=EXP_KWARGS, policy=FAST, run_dir=ref_dir
    )
    resumed_dir = str(tmp_path / "resumed")
    truncated_copy(os.path.join(ref_dir, JOURNAL_NAME), resumed_dir, 1)
    report = resilient_run_experiments(
        ["E1", "E3"],
        workers=2,
        kwargs_by_id=EXP_KWARGS,
        policy=FAST,
        run_dir=resumed_dir,
    )
    assert report.stats.resumed == 1
    with open(os.path.join(ref_dir, RESULTS_NAME), "rb") as handle:
        reference = handle.read()
    with open(os.path.join(resumed_dir, RESULTS_NAME), "rb") as handle:
        assert handle.read() == reference  # byte-identical


def test_resilient_experiments_rejects_unknown_id():
    with pytest.raises(ValueError, match="unknown experiment"):
        resilient_run_experiments(["E99"], workers=1, policy=FAST)


# ----------------------------------------------------------------------
# Fault telemetry feeds `repro stats`
# ----------------------------------------------------------------------
def test_runner_trace_replays_into_stats(tmp_path, inject):
    from repro.obs import read_jsonl, stats_report

    inject(raise_task)
    run_dir = str(tmp_path / "run")
    run_grid(run_dir=run_dir)
    events = read_jsonl(os.path.join(run_dir, RUNNER_TRACE_NAME))
    report_text = stats_report(events)
    assert "runner_attempt_failures" in report_text
    assert "runner_cells_failed" in report_text
