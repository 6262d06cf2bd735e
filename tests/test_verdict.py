"""Tests for the pre-registered verdict harness (repro.verdict + CLI).

The expensive part — running experiments — happens once per module in the
``seed_results`` fixture; every evaluator/CLI/log test reads from it.  The
planted-tamper tests are the point of the harness: bending E6's wakeup
series to linear must flip the verdict to REFUTED and the CLI to exit 1.
"""

import copy
import json
import os

import pytest

from repro.analysis import EXPERIMENTS, run_experiment
from repro.cli import main
from repro.obs import MetricsRegistry, VerdictRendered, apply_event
from repro.runner.core import experiment_result_to_dict
from repro.verdict import (
    CONFIRMED,
    CRITERIA,
    INCONCLUSIVE,
    MARKER,
    PROFILES,
    REFUTED,
    SCHEMA,
    append_research_log,
    evaluate_experiment,
    evaluate_results,
    render_markdown_table,
    report_to_dict,
    report_to_json,
)

SEED_IDS = ("E1", "E3", "E6", "E8")


@pytest.fixture(scope="module")
def seed_results():
    return {eid: run_experiment(eid) for eid in SEED_IDS}


@pytest.fixture(scope="module")
def seed_report(seed_results):
    return evaluate_results(seed_results, experiments=SEED_IDS)


class TestRegistry:
    def test_every_experiment_is_pre_registered(self):
        assert set(CRITERIA) == set(EXPERIMENTS)

    def test_criteria_name_their_experiment(self):
        for eid, criterion in CRITERIA.items():
            assert criterion.experiment == eid
            assert criterion.theorem and criterion.hypothesis and criterion.lesson
            assert criterion.checks, f"{eid} registers no checks"

    def test_profiles(self):
        assert set(PROFILES) == {"default", "full"}
        assert PROFILES["default"] == {}
        assert set(PROFILES["full"]) <= set(CRITERIA)


class TestEvaluator:
    def test_committed_seeds_confirm(self, seed_report):
        assert {v.status for v in seed_report.verdicts} == {CONFIRMED}
        assert seed_report.refuted == 0
        assert seed_report.exit_code == 0
        for v in seed_report.verdicts:
            assert all(c.status == CONFIRMED for c in v.checks)

    def test_growth_check_reports_numbers(self, seed_report):
        e6 = next(v for v in seed_report.verdicts if v.experiment == "E6")
        wakeup = next(c for c in e6.checks if "wakeup advice" in c.claim)
        assert "n log n" in wakeup.measured and "R^2" in wakeup.measured
        assert "rel.err <= 0.05" in wakeup.predicted

    def test_missing_result_is_inconclusive_not_refuted(self):
        report = evaluate_results({}, experiments=["E5"])
        (verdict,) = report.verdicts
        assert verdict.status == INCONCLUSIVE
        assert verdict.note == "experiment not run"
        assert report.exit_code == 0

    def test_unregistered_id_raises(self):
        with pytest.raises(ValueError, match="E99"):
            evaluate_results({}, experiments=["E99"])

    def test_verdicts_sorted_numerically(self, seed_results):
        report = evaluate_results(seed_results, experiments=["E8", "E1", "E3"])
        assert [v.experiment for v in report.verdicts] == ["E1", "E3", "E8"]

    def test_degraded_rows_block_confirmation(self, seed_results):
        rows = copy.deepcopy(seed_results["E8"].rows)
        rows.append({"failed": True, "error": "ValueError", "detail": "boom"})
        verdict = evaluate_experiment(CRITERIA["E8"], {"rows": rows})
        assert verdict.status == INCONCLUSIVE
        assert "degraded" in verdict.note


def tampered_e6_rows(result):
    """E6's rows with the wakeup series bent to linear (3n) growth."""
    rows = copy.deepcopy(result.rows)
    for row in rows:
        row["wakeup_bits"] = 3 * row["n"]
        row["ratio"] = row["wakeup_bits"] / row["broadcast_bits"]
    return rows


class TestPlantedTamper:
    def test_linear_wakeup_refutes_e6(self, seed_results):
        verdict = evaluate_experiment(
            CRITERIA["E6"], {"rows": tampered_e6_rows(seed_results["E6"])}
        )
        assert verdict.status == REFUTED
        wakeup = next(c for c in verdict.checks if "wakeup advice" in c.claim)
        assert wakeup.status == REFUTED
        assert "* n (" in wakeup.measured  # the linear model won the race

    def test_noisy_election_refutes_e12(self):
        """E12's 1-bit oracle must elect silently: rows whose election sent
        n messages refute it, though every election still succeeded."""
        rows = copy.deepcopy(run_experiment("E12").rows)
        for row in rows:
            if row["family"] != "ring/anonymous":
                row["1bit_msgs"] = row["n"]
        verdict = evaluate_experiment(CRITERIA["E12"], {"rows": rows})
        assert verdict.status == REFUTED
        silent = next(c for c in verdict.checks if "zero messages" in c.claim)
        assert silent.status == REFUTED
        assert silent.measured.startswith("0/12 rows")

    def test_zero_series_refutes_growth(self):
        """An all-zero series fits every model exactly (rel.err 0, R^2 1):
        E4's Theta(n) growth check must refute it, not confirm it."""
        rows = [
            {
                "family": "complete",
                "n": n,
                "oracle_bits": 0,
                "8n_bound": 8 * n,
                "messages": n - 1,
                "2(n-1)": 2 * (n - 1),
                "success": True,
            }
            for n in (16, 32, 64, 128, 256)
        ]
        verdict = evaluate_experiment(CRITERIA["E4"], {"rows": rows})
        growth = next(c for c in verdict.checks if "grow Theta(n)" in c.claim)
        assert growth.status == REFUTED
        assert "best fit 0.000 * n" in growth.measured
        assert verdict.status == REFUTED

    def test_tampered_run_dir_fails_cli(self, seed_results, tmp_path, capsys):
        """The CI gate end-to-end: a bent curve in results.json exits 1."""
        serialized = experiment_result_to_dict(seed_results["E6"])
        serialized["rows"] = tampered_e6_rows(seed_results["E6"])
        run_dir = tmp_path / "run-tampered"
        run_dir.mkdir()
        (run_dir / "results.json").write_text(json.dumps({"E6": serialized}))
        assert main(["verdict", "E6", "--results", str(run_dir), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["refuted"] == 1
        assert report["verdicts"][0]["status"] == REFUTED

    def test_untampered_run_dir_confirms(self, seed_results, tmp_path, capsys):
        run_dir = tmp_path / "run-clean"
        run_dir.mkdir()
        payload = {"E6": experiment_result_to_dict(seed_results["E6"])}
        (run_dir / "results.json").write_text(json.dumps(payload))
        assert main(["verdict", "E6", "--results", str(run_dir)]) == 0
        assert "replay" in capsys.readouterr().out


class TestReportFormats:
    def test_json_schema_and_roundtrip(self, seed_report):
        document = report_to_dict(seed_report)
        assert document["schema"] == SCHEMA
        assert document["confirmed"] == len(SEED_IDS)
        assert document == json.loads(report_to_json(seed_report))

    def test_json_is_deterministic(self, seed_report):
        assert report_to_json(seed_report) == report_to_json(seed_report)

    def test_markdown_table(self, seed_report):
        text = render_markdown_table(seed_report)
        assert "| Experiment | Theorem | Verdict | Checks |" in text
        for eid in SEED_IDS:
            assert f"## {eid} — CONFIRMED" in text
        assert "- [x]" in text and "- [ ]" not in text


class TestResearchLog:
    def test_creates_file_with_marker(self, seed_report, tmp_path):
        path = str(tmp_path / "RESEARCH_LOG.md")
        added = append_research_log(seed_report, path)
        assert added == len(SEED_IDS)
        text = open(path).read()
        assert MARKER in text
        assert "E6 CONFIRMED" in text

    def test_idempotent_rerun(self, seed_report, tmp_path):
        path = str(tmp_path / "RESEARCH_LOG.md")
        append_research_log(seed_report, path)
        before = open(path).read()
        assert append_research_log(seed_report, path) == 0
        assert open(path).read() == before

    def test_new_entries_land_newest_first(self, seed_results, tmp_path):
        path = str(tmp_path / "RESEARCH_LOG.md")
        old = evaluate_results(seed_results, experiments=["E8"])
        new = evaluate_results(seed_results, experiments=["E1"], profile="full")
        append_research_log(old, path)
        append_research_log(new, path)
        text = open(path).read()
        assert text.index("E1 CONFIRMED") < text.index("E8 CONFIRMED")
        assert text.index(MARKER) < text.index("E1 CONFIRMED")

    def test_entries_carry_no_timestamps(self, seed_report, tmp_path):
        path = str(tmp_path / "RESEARCH_LOG.md")
        append_research_log(seed_report, path)
        assert "202" not in open(path).read()  # no years, no dates


class TestObsIntegration:
    def test_apply_event_counts_verdicts(self):
        reg = MetricsRegistry()
        apply_event(
            reg,
            VerdictRendered(
                experiment="E6", status="CONFIRMED", confirmed=4, refuted=0, inconclusive=0
            ),
        )
        apply_event(
            reg,
            VerdictRendered(
                experiment="E2", status="REFUTED", confirmed=3, refuted=2, inconclusive=1
            ),
        )
        snap = {name: rec["value"] for name, rec in reg.snapshot().items()}
        assert snap["verdicts"] == 2
        assert snap["verdicts_confirmed"] == 1
        assert snap["verdicts_refuted"] == 1
        assert snap["verdict_checks_confirmed"] == 7
        assert snap["verdict_checks_refuted"] == 2
        assert snap["verdict_checks_inconclusive"] == 1


class TestCLI:
    def test_live_subset_confirms(self, capsys):
        assert main(["verdict", "E3", "E8"]) == 0
        out = capsys.readouterr().out
        assert "# Verdicts (default grid, live)" in out
        assert "REFUTED" not in out.replace("REFUTED 0", "")

    def test_json_output(self, capsys):
        assert main(["verdict", "E8", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == SCHEMA
        assert report["verdicts"][0]["experiment"] == "E8"

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["verdict", "E99"]) == 2
        assert "no pre-registered criteria" in capsys.readouterr().err

    def test_unknown_profile_exits_2(self, capsys):
        assert main(["verdict", "E8", "--profile", "huge"]) == 2
        assert "unknown profile" in capsys.readouterr().err

    def test_missing_results_dir_exits_2(self, tmp_path, capsys):
        assert main(["verdict", "E8", "--results", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "saved",
        ([1, 2], {"E1": 5}, {"E1": {"title": "x"}}),
        ids=("not-an-object", "result-not-an-object", "result-missing-fields"),
    )
    def test_wrong_shape_results_exit_2(self, saved, tmp_path, capsys):
        """Valid JSON of the wrong shape is a usage error, never REFUTED."""
        (tmp_path / "results.json").write_text(json.dumps(saved))
        assert main(["verdict", "E1", "--results", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "results.json" in err
        if isinstance(saved, dict):
            assert "E1" in err

    def test_artifacts_and_log(self, tmp_path, capsys):
        json_out = str(tmp_path / "verdict.json")
        md_out = str(tmp_path / "verdict.md")
        log = str(tmp_path / "RESEARCH_LOG.md")
        trace = str(tmp_path / "events.jsonl")
        assert (
            main(
                [
                    "verdict",
                    "E8",
                    "--json-out",
                    json_out,
                    "--md-out",
                    md_out,
                    "--log",
                    log,
                    "--trace",
                    trace,
                ]
            )
            == 0
        )
        assert json.load(open(json_out))["schema"] == SCHEMA
        assert "| Experiment |" in open(md_out).read()
        assert MARKER in open(log).read()
        events = [json.loads(line) for line in open(trace) if line.strip()]
        assert any(e.get("event") == "verdict_rendered" for e in events)

    def test_not_run_warns_but_passes(self, seed_results, tmp_path, capsys):
        run_dir = tmp_path / "run-partial"
        run_dir.mkdir()
        payload = {"E8": experiment_result_to_dict(seed_results["E8"])}
        (run_dir / "results.json").write_text(json.dumps(payload))
        assert main(["verdict", "E8", "E5", "--results", str(run_dir)]) == 0
        err = capsys.readouterr().err
        assert "E5 INCONCLUSIVE" in err and "not run" in err
