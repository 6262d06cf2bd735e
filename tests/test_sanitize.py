"""Tests for the hash-randomization stress harness (``repro sanitize``)."""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.sanitize import (
    SMOKE_CELLS,
    cell_names,
    format_report,
    run_cell,
    run_matrix,
)

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(REPO_ROOT, "src")


def _digest_in_subprocess(cell, hash_seed, fastpath="1"):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["REPRO_FASTPATH"] = fastpath
    env["PYTHONPATH"] = SRC
    script = (
        "import hashlib\n"
        "from repro.sanitize import run_cell\n"
        f"print(hashlib.sha256(run_cell({cell!r})).hexdigest())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.strip()


class TestGrid:
    def test_grid_covers_all_tasks_and_a_random_scheduler(self):
        tasks = {cell.task for cell in SMOKE_CELLS}
        assert tasks == {"broadcast", "wakeup", "gossip"}
        assert any(cell.scheduler == "random" for cell in SMOKE_CELLS)

    def test_cell_names_are_unique(self):
        names = cell_names()
        assert len(names) == len(set(names))

    def test_unknown_cell_is_a_usage_error(self, capsys):
        assert main(["sanitize", "--cells", "no-such-cell"]) == 2
        assert "unknown sanitize cell" in capsys.readouterr().err


#: sha256 of ``run_cell(name)`` for every smoke cell.  The matrix only
#: compares blobs within one version; these pins carry the bytes across
#: changes to the engines, the record types and the gossip pair.
CELL_DIGESTS = {
    "broadcast-kstar-sync": "791fdc0a4bf36d0a6889dcb9b114c4f9eed0f28c17065e11ccb17ccb4567ff76",
    "broadcast-cycle-random": "a3842167733d7581f93728ea0be2e6b19ff60e929459aa4e6865a653b6ddfb56",
    "wakeup-kstar-fifo": "5dde54707d43186f7f8db7dfe85fc2dcf974bfa0f8e1735f71601879487b12c4",
    "gossip-complete-sync": "8894880099c707d73c8c3fb26de56193023f1148fac4728c26b351a510c7735e",
    "gossip-randomtree-random": "56385a54d0461866123ff8e33f99d540f060978006912effd7c3a6fadc370651",
}


class TestPinnedBlobs:
    @pytest.mark.parametrize("name", cell_names())
    def test_cell_digest(self, name):
        assert hashlib.sha256(run_cell(name)).hexdigest() == CELL_DIGESTS.get(name)


class TestBlobDeterminism:
    def test_run_cell_is_repeatable_in_process(self):
        for name in ("broadcast-kstar-sync", "gossip-complete-sync"):
            assert run_cell(name) == run_cell(name)

    def test_blob_is_canonical_jsonl_plus_summary(self):
        blob = run_cell("gossip-complete-sync").decode("utf-8")
        lines = blob.strip().split("\n")
        assert len(lines) > 1
        import json

        summary = json.loads(lines[-1])
        assert summary["success"] is True
        # Every delivery line carries a payload rendered as a sorted list,
        # never a raw frozenset repr.
        assert "frozenset" not in blob

    def test_gossip_blob_is_byte_identical_across_hash_seeds(self):
        # The headline regression: gossip rumor payloads are frozensets of
        # strings, whose repr order followed PYTHONHASHSEED before the
        # jsonable fix.  Three interpreter launches must agree exactly.
        digests = {
            _digest_in_subprocess("gossip-complete-sync", seed) for seed in (0, 1, 2)
        }
        assert len(digests) == 1

    def test_fastpath_and_reference_engines_agree(self):
        a = _digest_in_subprocess("broadcast-kstar-sync", 0, fastpath="1")
        b = _digest_in_subprocess("broadcast-kstar-sync", 0, fastpath="0")
        assert a == b


class TestMatrix:
    def test_small_matrix_is_identical_and_reports_ok(self):
        names = ["gossip-complete-sync"]
        ok, entries = run_matrix(hash_seeds=(0, 1), cells=names)
        assert ok
        # 2 seeds x 2 engines + 1 repeat
        assert len(entries) == 5
        report = format_report(ok, entries, names)
        assert "byte-identical" in report
        assert "DIVERGED" not in report

    def test_divergence_is_reported_per_entry(self):
        from repro.sanitize import MatrixEntry

        entries = [
            MatrixEntry(label="hashseed=0", digests={"c": "a" * 64}),
            MatrixEntry(label="hashseed=1", digests={"c": "b" * 64}),
        ]
        report = format_report(False, entries, ["c"])
        assert "DIVERGED" in report
        assert "hashseed=1" in report

    def test_cli_exit_zero_on_identical_run(self, capsys):
        assert main(["sanitize", "--hash-seeds", "0", "--cells", "wakeup-kstar-fifo"]) == 0
        assert "byte-identical" in capsys.readouterr().out
