"""Tests for the ``python -m repro`` command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import main

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 12):
            assert f"E{i}:" in out


class TestExperiment:
    def test_runs_one(self, capsys):
        assert main(["experiment", "E3"]) == 0
        out = capsys.readouterr().out
        assert "[E3]" in out
        assert "4n" in out

    def test_runs_many(self, capsys):
        assert main(["experiment", "E3", "E8"]) == 0
        out = capsys.readouterr().out
        assert "[E3]" in out and "[E8]" in out

    def test_unknown_id(self, capsys):
        assert main(["experiment", "E42"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_case_insensitive(self, capsys):
        assert main(["experiment", "e8"]) == 0
        assert "[E8]" in capsys.readouterr().out


class TestSeparation:
    def test_default(self, capsys):
        assert main(["separation", "--sizes", "16,32,64"]) == 0
        out = capsys.readouterr().out
        assert "[E6]" in out
        assert "wakeup_bits" in out

    def test_family_option(self, capsys):
        assert main(["separation", "--family", "gnp_sparse", "--sizes", "16,32,64"]) == 0
        assert "gnp_sparse" in capsys.readouterr().out


class TestQuickstart:
    def test_default_n(self, capsys):
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "wakeup" in out and "broadcast" in out and "flooding" in out

    def test_custom_n(self, capsys):
        assert main(["quickstart", "16"]) == 0
        out = capsys.readouterr().out
        assert "n=16" in out

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_size_too_small_is_a_usage_error(self, n, capsys):
        assert main(["quickstart", n]) == 2
        assert capsys.readouterr().err == "error: K*_n needs n >= 2\n"


class TestArgparseBehaviour:
    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestFailurePaths:
    """Bad invocations exit with code 2 and a clear message — never a
    traceback."""

    def test_invalid_workers_zero(self, capsys):
        assert main(["experiment", "E3", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "workers must be >= 1" in err

    def test_invalid_workers_negative(self, capsys):
        assert main(["exp", "E3", "--workers", "-4"]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_invalid_trace_level_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--trace-level", "verbose"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_invalid_retries(self, capsys):
        assert main(["experiment", "E3", "--retries", "-1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "retries" in err

    def test_invalid_timeout(self, capsys):
        assert main(["experiment", "E3", "--timeout", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "timeout" in err

    def test_missing_resume_directory(self, capsys):
        assert main(["experiment", "E3", "--resume", "does/not/exist"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "does/not/exist" in err


#: Input errors in each command's own arguments: a malformed comma list,
#: a name outside its set, a size the graph builder refuses, a hash seed
#: outside 0..2**32 - 1, or an output path that names a directory or
#: whose directory does not exist (the test runs in an empty directory and
#: checks it stays empty).
BAD_ARGVS = [
    ["mega", "--sizes", "abc"],
    ["mega", "--sizes", "0"],
    ["mega", "--sizes", "1"],
    ["mega", "--sizes", "10", "--count", "100"],
    ["mega", "--batch-seeds", "x"],
    ["separation", "--sizes", "abc"],
    ["separation", "--sizes", "1"],
    ["separation", "--family", "nope"],
    ["report", "--only", "E99"],
    ["trace", "--scheduler", "nope"],
    ["sanitize", "--hash-seeds", "x"],
    ["sanitize", "--hash-seeds", "-1"],
    ["sanitize", "--hash-seeds", "4294967296"],
    ["trace", "--out", "missing/dir/x.jsonl"],
    ["trace", "--out", "."],
    ["report", "missing/dir/r.md", "--only", "E8"],
    ["profile", "E8", "--flame", "missing/dir/f.txt"],
    ["verdict", "E8", "--json-out", "missing/dir/v.json"],
]


@pytest.mark.parametrize("argv", BAD_ARGVS, ids=" ".join)
def test_input_error_exits_2_without_traceback(argv, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.path.abspath(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "error: " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert os.listdir(tmp_path) == []


class TestResilientRuns:
    def test_run_dir_then_resume_replays(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert main(["experiment", "E3", "--run-dir", run_dir]) == 0
        first = capsys.readouterr().out
        assert "[E3]" in first
        assert "runner: 1 cell(s) done, 0 failed" in first

        assert main(["experiment", "E3", "--resume", run_dir]) == 0
        second = capsys.readouterr().out
        assert "[E3]" in second
        assert "1 replayed from journal" in second
        # the experiment table itself is byte-identical
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("runner:")]
        assert strip(first) == strip(second)

    def test_corrupted_journal_line_warns_and_recomputes(self, tmp_path, capsys):
        import os

        run_dir = str(tmp_path / "run")
        assert main(["experiment", "E3", "--run-dir", run_dir]) == 0
        capsys.readouterr()
        with open(os.path.join(run_dir, "journal.jsonl"), "w", encoding="utf-8") as f:
            f.write("{not json at all\n")
        with pytest.warns(UserWarning, match="corrupted journal line"):
            assert main(["experiment", "E3", "--resume", run_dir]) == 0
        out = capsys.readouterr().out
        assert "[E3]" in out
        assert "1 cell(s) done, 0 failed" in out
        assert "replayed" not in out  # nothing valid to replay: recomputed
        assert "1 corrupt journal line(s)" in out

    def test_workers_output_matches_serial(self, capsys):
        assert main(["exp", "E3", "E8"]) == 0
        serial = capsys.readouterr().out
        assert main(["exp", "E3", "E8", "--workers", "2"]) == 0
        pooled = capsys.readouterr().out
        assert "runner: 2 cell(s) done, 0 failed" in pooled
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("runner:")]
        assert strip(pooled) == strip(serial)

    def test_runner_path_at_one_worker_prints_the_in_process_tables(
        self, monkeypatch, capsys
    ):
        """``--timeout`` sends even a one-worker run through the runner's
        pool; above its ``runner:`` line it prints what the in-process run
        prints."""
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert main(["exp", "E3", "E8"]) == 0
        plain = capsys.readouterr().out
        assert main(["exp", "E3", "E8", "--timeout", "120"]) == 0
        pooled = capsys.readouterr().out
        assert "runner: 2 cell(s) done, 0 failed" in pooled
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("runner:")]
        assert strip(pooled) == strip(plain)


class TestReport:
    def test_writes_markdown(self, tmp_path, capsys):
        path = str(tmp_path / "report.md")
        assert main(["report", path, "--only", "E3"]) == 0
        text = open(path).read()
        assert "# Experiment report" in text
        assert "## E3" in text
        assert "| family |" in text
        assert "Findings:" in text

    def test_multiple_ids(self, tmp_path):
        path = str(tmp_path / "r.md")
        assert main(["report", path, "--only", "E3,E8"]) == 0
        text = open(path).read()
        assert "## E3" in text and "## E8" in text


class TestCompare:
    def test_default(self, capsys):
        assert main(["compare", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "Thm 2.1 pair" in out
        assert "n=16" in out

    def test_unknown_family(self, capsys):
        assert main(["compare", "--family", "nope"]) == 2
        assert "unknown family" in capsys.readouterr().err

    @pytest.mark.parametrize("family,n", [("cycle", "0"), ("grid", "-3"), ("complete", "1")])
    def test_size_no_family_builds(self, family, n, capsys):
        assert main(["compare", "--family", family, "--n", n]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "needs n >= " in err


class TestListRegistry:
    def test_lists_algorithm_metadata(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ALGORITHM_REGISTRY" in out
        assert "anonymous_safe" in out
        assert "SchemeB" in out and "TreeWakeup" in out


class TestTrace:
    def test_broadcast_trace_end_to_end(self, tmp_path, capsys):
        out_path = str(tmp_path / "run.jsonl")
        assert main(
            ["trace", "--task", "broadcast", "--family", "kstar",
             "--n", "16", "--out", out_path]
        ) == 0
        out = capsys.readouterr().out
        assert "broadcast on kstar n=16" in out
        assert "Wall time per phase" in out
        assert f"events to {out_path}" in out
        text = open(out_path).read()
        assert '"event":"run_started"' in text
        assert '"event":"run_ended"' in text

    def test_wakeup_trace_defaults(self, tmp_path, capsys):
        out_path = str(tmp_path / "w.jsonl")
        assert main(["trace", "--task", "wakeup", "--n", "8", "--out", out_path]) == 0
        out = capsys.readouterr().out
        assert "wakeup on kstar n=8" in out
        assert "TreeWakeup" in out

    def test_unknown_family(self, tmp_path, capsys):
        assert main(
            ["trace", "--family", "nope", "--out", str(tmp_path / "x.jsonl")]
        ) == 2
        assert "unknown family" in capsys.readouterr().err

    @pytest.mark.parametrize("family,n", [("barbell", "0"), ("grid", "-3"), ("star", "1")])
    def test_size_no_family_builds(self, family, n, tmp_path, capsys):
        assert main(
            ["trace", "--family", family, "--n", n, "--out", str(tmp_path / "x.jsonl")]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "needs n >= " in err

    def test_unknown_algorithm(self, tmp_path, capsys):
        assert main(
            ["trace", "--algorithm", "Nope", "--out", str(tmp_path / "x.jsonl")]
        ) == 2
        assert "unknown algorithm" in capsys.readouterr().err


class TestStats:
    def test_stats_renders_saved_trace(self, tmp_path, capsys):
        out_path = str(tmp_path / "run.jsonl")
        assert main(["trace", "--n", "8", "--out", out_path]) == 0
        capsys.readouterr()
        assert main(["stats", out_path]) == 0
        out = capsys.readouterr().out
        assert "Runs (1)" in out
        assert "messages_sent" in out

    def test_stats_missing_file(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "absent.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_stats_rejects_non_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["stats", str(bad)]) == 2
        assert "not JSON" in capsys.readouterr().err

    def test_stats_skips_event_kinds_it_does_not_know(self, tmp_path, capsys):
        """A saved stream holding kinds this version no longer emits (or
        not yet) still reads: those events fold into nothing."""
        out_path = tmp_path / "run.jsonl"
        assert main(["trace", "--n", "8", "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["stats", str(out_path)]) == 0
        expected = capsys.readouterr().out
        with open(out_path, "a", encoding="utf-8") as handle:
            handle.write('{"event":"sweep_cell_measured","family":"kstar","n":8}\n')
        assert main(["stats", str(out_path)]) == 0
        assert capsys.readouterr().out == expected


class TestBenchExport:
    def test_converts_benchmark_json(self, tmp_path, capsys):
        import json

        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps({
            "version": "5.2.3",
            "machine_info": {"python_version": "3.12"},
            "benchmarks": [
                {"name": "t", "fullname": "f::t", "group": None,
                 "stats": {"min": 1, "max": 2, "mean": 1.5, "stddev": 0.1,
                           "median": 1.4, "rounds": 3, "iterations": 1}},
            ],
        }))
        out = tmp_path / "bench.json"
        assert main(["bench-export", str(raw), "--out", str(out)]) == 0
        assert "1 benchmark(s)" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-bench/1"

    def test_rejects_non_benchmark_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["bench-export", str(bad)]) == 2
        assert "error" in capsys.readouterr().err
