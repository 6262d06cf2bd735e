"""Measurement harness: the E1-E15 registry, growth fits, tables, reports."""

from .compare import DEFAULT_PAIRS, comparison_matrix, format_comparison
from .extensions import (
    experiment_e10_gossip,
    experiment_e11_construction,
    experiment_e12_election,
    experiment_e13_exploration,
    experiment_e14_time,
    experiment_e9_tradeoff,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentResult,
    experiment_e1_wakeup_upper,
    experiment_e2_wakeup_lower,
    experiment_e3_light_tree,
    experiment_e4_broadcast_upper,
    experiment_e5_broadcast_lower,
    experiment_e6_separation,
    experiment_e7_robustness,
    experiment_e8_counting,
    format_experiment,
    run_experiment,
)
from .report import render_markdown, write_report
from .fits import GROWTH_MODELS, GrowthFit, classify_growth, fit_rate
from .series import (
    Series,
    degraded_rows,
    experiment_rows,
    growth_finding_series,
    measured_series,
)
from .measure import run_pair, task_result_row
from .tables import format_table, format_value

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "run_experiment",
    "format_experiment",
    "experiment_e1_wakeup_upper",
    "experiment_e2_wakeup_lower",
    "experiment_e3_light_tree",
    "experiment_e4_broadcast_upper",
    "experiment_e5_broadcast_lower",
    "experiment_e6_separation",
    "experiment_e7_robustness",
    "experiment_e8_counting",
    "experiment_e9_tradeoff",
    "experiment_e10_gossip",
    "experiment_e11_construction",
    "experiment_e12_election",
    "experiment_e13_exploration",
    "experiment_e14_time",
    "GrowthFit",
    "GROWTH_MODELS",
    "fit_rate",
    "classify_growth",
    "Series",
    "measured_series",
    "growth_finding_series",
    "degraded_rows",
    "experiment_rows",
    "run_pair",
    "task_result_row",
    "format_table",
    "format_value",
    "comparison_matrix",
    "format_comparison",
    "DEFAULT_PAIRS",
    "render_markdown",
    "write_report",
]
