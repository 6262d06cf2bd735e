"""The fault-tolerant runner's guarantees, stated as executable assertions.

The contract under test (docs/ROBUSTNESS.md):

1. No faults: the resilient sweep is byte-identical to the serial one —
   rows, JSONL trace, and metrics registry.
2. Kill-and-resume: interrupt a journaled run at *any* cell boundary (or
   mid-append) and resume; the merged output is byte-identical to an
   uninterrupted run.
3. Fault isolation: a crashing worker, a hung cell, or a flaky exception
   costs exactly the guilty cell (a structured ``failed`` row after the
   retry budget); every other row matches the serial path.
4. Journal corruption degrades to recomputation with a warning, never to
   wrong results.

Measurements used as fault injectors live at module level so they pickle
across the process boundary; cross-process state (fail once, then
succeed) goes through marker files under ``tmp_path``.
"""

import functools
import io
import json
import os

import pytest

from repro.analysis import sweep_families
from repro.analysis.experiments import run_experiment
from repro.obs import JSONLSink, MetricsRegistry, Observation
from repro.obs.sinks import MemorySink
from repro.parallel import e1_e4_cell
from repro.runner import (
    JOURNAL_NAME,
    JOURNAL_SCHEMA,
    JournalEntry,
    RetryPolicy,
    RunJournal,
    cell_key,
    load_journal,
    measurement_fingerprint,
    resilient_run_experiments,
    resilient_sweep_families,
)
from repro.runner.core import ROWS_NAME, RESULTS_NAME, RUNNER_TRACE_NAME

FAMILIES = ("path", "cycle", "complete")
SIZES = (3, 6, 8)

#: Fast policy for tests: immediate retries, one re-attempt.
FAST = RetryPolicy(retries=1, backoff_base=0.0)


# ----------------------------------------------------------------------
# Fault-injecting measurements (module-level: they must pickle)
# ----------------------------------------------------------------------
def plain_cell(family, n, graph, seed=0):
    return {"family": family, "n": n, "value": n * 10 + seed}


def crash_cell(family, n, graph, seed=0):
    """Kill the worker process outright on one grid cell."""
    if family == "cycle" and n == 6:
        os._exit(17)
    return plain_cell(family, n, graph, seed=seed)


def hang_cell(family, n, graph, seed=0):
    """Hang far past any test timeout on one grid cell."""
    if family == "cycle" and n == 6:
        import time

        time.sleep(300)
    return plain_cell(family, n, graph, seed=seed)


def raise_cell(family, n, graph, seed=0):
    """Deterministically raise on one grid cell."""
    if family == "cycle" and n == 6:
        raise RuntimeError("injected failure")
    return plain_cell(family, n, graph, seed=seed)


def flaky_cell(family, n, graph, marker=""):
    """Raise on the first attempt at one cell; succeed ever after."""
    if family == "cycle" and n == 6 and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("tripped")
        raise RuntimeError("flaky: first attempt")
    return plain_cell(family, n, graph)


def bomb_cell(family, n, graph, marker="", seed=0):
    """Measure normally until ``marker`` exists; then crash the worker.

    Same fingerprint either way (the partial binds only ``marker`` and
    ``seed``), so a journal written before arming the bomb still matches —
    which is how the tests prove resumed cells are *replayed*, not rerun.
    """
    if os.path.exists(marker):
        os._exit(23)
    return plain_cell(family, n, graph, seed=seed)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def observed_serial(seed):
    stream = io.StringIO()
    metrics = MetricsRegistry()
    obs = Observation(JSONLSink(stream), metrics)
    rows = sweep_families(
        SIZES, functools.partial(e1_e4_cell, seed=seed), families=FAMILIES, obs=obs
    )
    return rows, stream.getvalue(), metrics.snapshot()


def observed_resilient(seed, **kwargs):
    stream = io.StringIO()
    metrics = MetricsRegistry()
    obs = Observation(JSONLSink(stream), metrics)
    report = resilient_sweep_families(
        SIZES,
        functools.partial(e1_e4_cell, seed=seed),
        families=FAMILIES,
        obs=obs,
        **kwargs,
    )
    return report, stream.getvalue(), metrics.snapshot()


def runner_observation():
    return Observation(MemorySink(), MetricsRegistry())


# ----------------------------------------------------------------------
# 1. No faults: byte-identical to serial
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_resilient_sweep_byte_identical_to_serial(seed, workers):
    serial_rows, serial_jsonl, serial_metrics = observed_serial(seed)
    report, jsonl, metrics = observed_resilient(seed, workers=workers, policy=FAST)
    assert report.rows == serial_rows
    assert jsonl == serial_jsonl
    assert metrics == serial_metrics
    assert serial_jsonl  # not vacuous
    assert report.ok and report.stats.failed == 0


def test_resilient_sweep_writes_run_dir_files(tmp_path):
    run_dir = str(tmp_path / "run")
    report, _, _ = observed_resilient(0, workers=2, policy=FAST, run_dir=run_dir)
    assert sorted(os.listdir(run_dir)) == sorted(
        [JOURNAL_NAME, ROWS_NAME, RUNNER_TRACE_NAME]
    )
    with open(os.path.join(run_dir, ROWS_NAME), encoding="utf-8") as handle:
        assert json.load(handle) == report.rows
    entries, corrupt = load_journal(os.path.join(run_dir, JOURNAL_NAME))
    assert corrupt == 0
    assert len(entries) == len(FAMILIES) * len(SIZES)
    assert all(e.status == "done" for e in entries.values())


# ----------------------------------------------------------------------
# 2. Kill-and-resume byte-identity
# ----------------------------------------------------------------------
def truncated_copy(journal_path, target_dir, keep_lines, partial_tail=""):
    """A run dir whose journal holds the first ``keep_lines`` entries —
    exactly what a SIGKILL at that cell boundary leaves behind."""
    os.makedirs(target_dir, exist_ok=True)
    with open(journal_path, encoding="utf-8") as handle:
        lines = handle.readlines()
    with open(os.path.join(target_dir, JOURNAL_NAME), "w", encoding="utf-8") as handle:
        handle.writelines(lines[:keep_lines])
        handle.write(partial_tail)


@pytest.mark.parametrize("keep", [0, 1, 5, 8])
def test_resume_after_interruption_is_byte_identical(tmp_path, keep):
    serial_rows, serial_jsonl, serial_metrics = observed_serial(0)
    full = str(tmp_path / "full")
    observed_resilient(0, workers=2, policy=FAST, run_dir=full)

    resumed_dir = str(tmp_path / f"resume{keep}")
    truncated_copy(os.path.join(full, JOURNAL_NAME), resumed_dir, keep)
    runner_obs = runner_observation()
    report, jsonl, metrics = observed_resilient(
        0, workers=2, policy=FAST, run_dir=resumed_dir, runner_obs=runner_obs
    )
    assert report.rows == serial_rows
    assert jsonl == serial_jsonl
    assert metrics == serial_metrics
    assert report.stats.resumed == keep
    resumes = runner_obs.metrics.counter("runner_cells_resumed").value
    assert resumes == keep or keep == 0


def test_resume_with_torn_final_line_recomputes_that_cell(tmp_path):
    """A SIGKILL mid-append leaves a torn line: warned about, recomputed."""
    serial_rows, serial_jsonl, _ = observed_serial(0)
    full = str(tmp_path / "full")
    observed_resilient(0, workers=2, policy=FAST, run_dir=full)

    resumed_dir = str(tmp_path / "torn")
    truncated_copy(
        os.path.join(full, JOURNAL_NAME),
        resumed_dir,
        3,
        partial_tail='{"schema":"repro-runner/1","key":"abc","exp',  # torn write
    )
    with pytest.warns(UserWarning, match="corrupted journal line"):
        report, jsonl, _ = observed_resilient(
            0, workers=2, policy=FAST, run_dir=resumed_dir
        )
    assert report.rows == serial_rows
    assert jsonl == serial_jsonl
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


def test_resume_replays_done_cells_without_recomputing(tmp_path):
    """After a full journaled run, arm the bomb: a resume that *ran* any
    cell would crash its worker — so finishing proves replay."""
    marker = str(tmp_path / "armed")
    run_dir = str(tmp_path / "run")
    measurement = functools.partial(bomb_cell, marker=marker, seed=0)
    first = resilient_sweep_families(
        SIZES, measurement, families=FAMILIES, workers=2, policy=FAST, run_dir=run_dir
    )
    assert first.ok

    with open(marker, "w", encoding="utf-8") as handle:
        handle.write("armed")
    runner_obs = runner_observation()
    again = resilient_sweep_families(
        SIZES,
        measurement,
        families=FAMILIES,
        workers=2,
        policy=FAST,
        run_dir=run_dir,
        runner_obs=runner_obs,
    )
    assert again.ok
    assert again.rows == first.rows
    assert again.stats.resumed == len(FAMILIES) * len(SIZES)
    resumed = runner_obs.metrics.counter("runner_cells_resumed").value
    assert resumed == len(FAMILIES) * len(SIZES)


def test_resume_misses_on_different_measurement_fingerprint(tmp_path):
    """A journal written for seed=0 must not answer a seed=1 run."""
    run_dir = str(tmp_path / "run")
    observed_resilient(0, workers=2, policy=FAST, run_dir=run_dir)
    serial_rows, serial_jsonl, _ = observed_serial(1)
    report, jsonl, _ = observed_resilient(1, workers=2, policy=FAST, run_dir=run_dir)
    assert report.stats.resumed == 0
    assert report.rows == serial_rows
    assert jsonl == serial_jsonl


def test_journal_written_without_obs_resumes_as_observed_run(tmp_path):
    """Workers capture events whenever a journal is written, not only when
    the writing run observes: a later resume may replay the journal into
    an observed run, which must see the serial stream."""
    serial_rows, serial_jsonl, serial_metrics = observed_serial(0)
    run_dir = str(tmp_path / "run")
    first = resilient_sweep_families(
        SIZES,
        functools.partial(e1_e4_cell, seed=0),
        families=FAMILIES,
        workers=2,
        policy=FAST,
        run_dir=run_dir,
    )
    assert first.rows == serial_rows

    report, jsonl, metrics = observed_resilient(0, workers=2, policy=FAST, run_dir=run_dir)
    assert report.stats.resumed == len(FAMILIES) * len(SIZES)
    assert report.rows == serial_rows
    assert jsonl == serial_jsonl
    assert metrics == serial_metrics


# ----------------------------------------------------------------------
# 3. Fault isolation: crash, hang, exception, flake
# ----------------------------------------------------------------------
def assert_only_cycle6_failed(rows, error):
    failed = [r for r in rows if r.get("failed")]
    assert [(r["family"], r["n"]) for r in failed] == [("cycle", 6)]
    assert failed[0]["error"] == error
    assert failed[0]["attempts"] == FAST.max_attempts
    good = [r for r in rows if not r.get("failed")]
    assert len(good) == len(FAMILIES) * len(SIZES) - 1
    assert all(r["value"] == r["n"] * 10 for r in good)


def test_worker_crash_fails_only_its_cell():
    runner_obs = runner_observation()
    report = resilient_sweep_families(
        SIZES,
        functools.partial(crash_cell, seed=0),
        families=FAMILIES,
        workers=2,
        policy=FAST,
        runner_obs=runner_obs,
    )
    assert not report.ok
    assert report.stats.failed == 1
    assert_only_cycle6_failed(report.rows, "WorkerCrash")
    assert runner_obs.metrics.counter("runner_cells_failed").value == 1
    assert report.stats.pool_recycles >= 1


def test_timeout_fails_only_the_hung_cell():
    policy = RetryPolicy(retries=1, timeout=2.0, backoff_base=0.0)
    report = resilient_sweep_families(
        SIZES,
        functools.partial(hang_cell, seed=0),
        families=FAMILIES,
        workers=2,
        policy=policy,
    )
    assert not report.ok
    failed = [r for r in report.rows if r.get("failed")]
    assert [(r["family"], r["n"]) for r in failed] == [("cycle", 6)]
    assert failed[0]["error"] == "TimeoutError"
    assert len([r for r in report.rows if not r.get("failed")]) == 8


def test_exception_exhausts_retries_then_degrades():
    runner_obs = runner_observation()
    report = resilient_sweep_families(
        SIZES,
        functools.partial(raise_cell, seed=0),
        families=FAMILIES,
        workers=2,
        policy=FAST,
        runner_obs=runner_obs,
    )
    assert_only_cycle6_failed(report.rows, "RuntimeError")
    metrics = runner_obs.metrics
    assert metrics.counter("runner_attempt_failures").value == FAST.max_attempts
    assert metrics.counter("runner_retries").value == FAST.retries
    assert metrics.counter("runner_cells_failed").value == 1


def test_flaky_cell_retries_to_success(tmp_path):
    marker = str(tmp_path / "flake-marker")
    runner_obs = runner_observation()
    report = resilient_sweep_families(
        SIZES,
        functools.partial(flaky_cell, marker=marker),
        families=FAMILIES,
        workers=2,
        policy=FAST,
        runner_obs=runner_obs,
    )
    assert report.ok
    assert report.stats.failed == 0
    assert report.stats.retries == 1
    assert [r["value"] for r in report.rows] == [n * 10 for __ in FAMILIES for n in SIZES]
    assert runner_obs.metrics.counter("runner_retries").value == 1
    assert "runner_cells_failed" not in runner_obs.metrics


def test_failed_cells_are_journaled_and_retried_on_resume(tmp_path):
    """``failed`` journal entries are recorded but NOT replayed: the resume
    gives the cell a fresh chance (here: the injected fault is gone)."""
    run_dir = str(tmp_path / "run")
    report = resilient_sweep_families(
        SIZES,
        functools.partial(raise_cell, seed=0),
        families=FAMILIES,
        workers=2,
        policy=FAST,
        run_dir=run_dir,
    )
    assert not report.ok
    entries, _ = load_journal(os.path.join(run_dir, JOURNAL_NAME))
    statuses = sorted(e.status for e in entries.values())
    assert statuses.count("failed") == 1 and statuses.count("done") == 8

    # "Fix the bug" by switching to the healthy measurement of the same
    # shape — but at the *same* fingerprint the failure would persist, so
    # emulate the fix by resuming with the fault gone: raise_cell's
    # injected failure is keyed to (cycle, 6); rerunning with plain_cell
    # has a different fingerprint, so instead resume with raise_cell on a
    # grid where the journal answers the 8 healthy cells and the failed
    # cell raises again — proving failed entries re-run rather than replay.
    runner_obs = runner_observation()
    again = resilient_sweep_families(
        SIZES,
        functools.partial(raise_cell, seed=0),
        families=FAMILIES,
        workers=2,
        policy=FAST,
        run_dir=run_dir,
        runner_obs=runner_obs,
    )
    assert again.stats.resumed == 8
    assert again.stats.attempt_failures == FAST.max_attempts  # re-ran, re-failed
    assert not again.ok


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
        cell_key("sweep:a", "path:6", ""),
        cell_key("sweep:a", "path:8", ""),
        cell_key("sweep:b", "path:6", ""),
        cell_key("sweep:a", "path:6", 1),
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
        events=[{"event": "x"}],
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


def test_measurement_fingerprint_distinguishes_partial_bindings():
    base = measurement_fingerprint(e1_e4_cell)
    seeded0 = measurement_fingerprint(functools.partial(e1_e4_cell, seed=0))
    seeded1 = measurement_fingerprint(functools.partial(e1_e4_cell, seed=1))
    assert base in seeded0
    assert seeded0 != seeded1 != base


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
def test_runner_trace_replays_into_stats(tmp_path):
    from repro.obs import read_jsonl, stats_report

    run_dir = str(tmp_path / "run")
    resilient_sweep_families(
        SIZES,
        functools.partial(raise_cell, seed=0),
        families=FAMILIES,
        workers=2,
        policy=FAST,
        run_dir=run_dir,
    )
    events = read_jsonl(os.path.join(run_dir, RUNNER_TRACE_NAME))
    report_text = stats_report(events)
    assert "runner_attempt_failures" in report_text
    assert "runner_cells_failed" in report_text
