"""Tests for the analysis harness: fits, tables, task dispatch, separation."""

import math

import pytest

from repro.algorithms import Flooding, SchemeB
from repro.analysis import (
    GROWTH_MODELS,
    classify_growth,
    fit_rate,
    format_table,
    format_value,
)
from repro.core import NullOracle, run_task, run_wakeup, separation_point, separation_profile
from repro.network import complete_graph_star
from repro.oracles import LightTreeBroadcastOracle
from repro.simulator import WakeupViolation


class TestFits:
    def test_fit_exact_linear(self):
        ns = [10, 20, 40, 80]
        ys = [3 * n for n in ns]
        fit = fit_rate(ns, ys, "n")
        assert fit.constant == pytest.approx(3.0)
        assert fit.rel_rms_residual == pytest.approx(0.0, abs=1e-12)

    def test_fit_exact_nlogn(self):
        ns = [16, 64, 256, 1024]
        ys = [2 * n * math.log2(n) for n in ns]
        fits = classify_growth(ns, ys)
        assert fits[0].model == "n log n"
        assert fits[0].constant == pytest.approx(2.0)

    def test_classification_separates(self):
        ns = [16, 64, 256, 1024]
        linear = [5 * n + 3 for n in ns]
        assert classify_growth(ns, linear)[0].model == "n"

    def test_quadratic_model(self):
        ns = [4, 8, 16, 32]
        ys = [n * n for n in ns]
        fits = classify_growth(ns, ys, models=("n", "n^2"))
        assert fits[0].model == "n^2"

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            fit_rate([1, 2], [1, 2], "exp")

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_rate([1], [1], "n")

    def test_all_models_callable(self):
        for name, shape in GROWTH_MODELS.items():
            assert shape(16) > 0

    def test_str(self):
        fit = fit_rate([1, 2, 4], [2, 4, 8], "n")
        assert "n" in str(fit)


class TestTables:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(0.0) == "0"
        assert format_value(3.14159) == "3.142"
        assert format_value(123456.0) == "1.23e+05"
        assert format_value("x") == "x"
        assert format_value(7) == "7"

    def test_format_table_basic(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}]
        out = format_table(rows, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_missing_cells(self):
        out = format_table([{"a": 1}, {"b": 2}], columns=("a", "b"))
        assert "-" in out

    def test_empty(self):
        assert "(no rows)" in format_table([], title="x")


class TestSweeps:
    def test_run_task_dispatches_by_name(self, k5):
        result = run_task("wakeup", k5, NullOracle(), Flooding())
        assert result.task == "wakeup"
        assert result.trace.summary() == run_wakeup(k5, NullOracle(), Flooding()).trace.summary()
        # Only the wakeup forbids Scheme B's spontaneous hellos.
        assert run_task("broadcast", k5, LightTreeBroadcastOracle(), SchemeB()).success
        with pytest.raises(WakeupViolation):
            run_task("wakeup", k5, LightTreeBroadcastOracle(), SchemeB())

    def test_run_task_unknown_task(self, k5):
        with pytest.raises(ValueError, match="unknown task 'gossip'"):
            run_task("gossip", k5, NullOracle(), Flooding())


class TestSeparation:
    def test_point_fields(self):
        p = separation_point(complete_graph_star(16))
        assert p.n == 16
        assert p.wakeup_messages == 15
        assert p.broadcast_messages <= 30
        assert p.flooding_messages == 2 * p.m - p.n + 1
        assert p.advice_ratio > 1  # wakeup needs more advice
        assert p.wakeup_bits_per_node > p.broadcast_bits_per_node

    def test_profile_and_ratio_growth(self):
        points = separation_profile([16, 64, 256], complete_graph_star)
        ratios = [p.advice_ratio for p in points]
        assert ratios == sorted(ratios)  # the log n gap widens

    def test_profile_progress_callback(self):
        seen = []
        separation_profile([8, 16], complete_graph_star, progress=seen.append)
        assert seen == [8, 16]


class TestReport:
    def test_render_markdown_subset(self):
        from repro.analysis import render_markdown

        text = render_markdown(["E8"])
        assert "## E8" in text
        assert text.count("##") == 1

    def test_render_sorted_numerically(self):
        from repro.analysis import render_markdown

        text = render_markdown(["E10", "E9"])
        assert text.index("## E9") < text.index("## E10")

    def test_write_report(self, tmp_path):
        from repro.analysis import write_report

        path = tmp_path / "out.md"
        write_report(str(path), ["E3"])
        assert path.read_text().startswith("# Experiment report")


class TestComparison:
    def test_default_matrix(self, k5):
        from repro.analysis import comparison_matrix

        rows = comparison_matrix(k5)
        assert len(rows) == 4
        assert all(r["success"] for r in rows)
        by_design = {r["design"]: r for r in rows}
        assert by_design["Thm 2.1 pair"]["messages"] == 4
        assert by_design["flooding"]["oracle_bits"] == 0

    def test_custom_pairs(self, k5):
        from repro.algorithms import SchemeB
        from repro.analysis import comparison_matrix
        from repro.core import NullOracle

        rows = comparison_matrix(k5, pairs=[("mismatch", NullOracle(), SchemeB(), "broadcast")])
        assert len(rows) == 1
        assert not rows[0]["success"]  # degrades, never crashes

    def test_format(self, k5):
        from repro.analysis import format_comparison

        text = format_comparison(k5)
        assert "Thm 2.1 pair" in text
        assert "n=5" in text
