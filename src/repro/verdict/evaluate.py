"""The verdict evaluator: locked rows in, CONFIRMED/REFUTED/INCONCLUSIVE out.

Given experiment results (live :class:`~repro.analysis.result.ExperimentResult`
objects or their ``results.json`` dicts from the journaled runner), every
check in the pre-registered criterion renders to exactly one of three
statuses with its measured-vs-predicted numbers attached:

* **CONFIRMED** — the predicate held with the frozen tolerances.
* **REFUTED** — the data contradicts the claim.  No hedging: a losing
  growth winner or a violated exact count is REFUTED even by one row.
* **INCONCLUSIVE** — the data cannot decide (series missing, too few
  points, empty row selection, degraded/failed cells, a winning fit below
  the quality floor).  Missing data never masquerades as either outcome.

An experiment's verdict aggregates its checks: any REFUTED check refutes
the experiment; otherwise any INCONCLUSIVE check (or any degraded row in
the input) leaves it INCONCLUSIVE; only a clean sweep CONFIRMS.  The
evaluator never touches a measurement — it reads, compares, reports.

Reports export as canonical JSON under the ``repro-verdict/1`` schema and
as a markdown table for humans and CI artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..analysis.fits import classify_growth
from ..analysis.result import ExperimentResult
from ..analysis.series import degraded_rows, experiment_rows, measured_series
from ..runner.core import canonical_json
from .criteria import (
    CRITERIA,
    Check,
    ColumnEquals,
    ColumnsBound,
    ColumnsEqual,
    Criterion,
    GrowthWinner,
    RatioGrows,
    RowsFalse,
    RowsTrue,
    Where,
)

__all__ = [
    "CONFIRMED",
    "REFUTED",
    "INCONCLUSIVE",
    "SCHEMA",
    "CheckResult",
    "Verdict",
    "VerdictReport",
    "evaluate_check",
    "evaluate_experiment",
    "evaluate_results",
    "report_to_dict",
    "report_to_json",
    "render_markdown_table",
]

CONFIRMED = "CONFIRMED"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"

#: Canonical-JSON schema tag, versioned like ``repro-bench/1``.
SCHEMA = "repro-verdict/1"


@dataclass(frozen=True)
class CheckResult:
    """One check, rendered: the claim, the status, and the numbers."""

    claim: str
    status: str
    measured: str
    predicted: str


@dataclass(frozen=True)
class Verdict:
    """One experiment's rendered criterion."""

    experiment: str
    theorem: str
    hypothesis: str
    lesson: str
    status: str
    checks: Tuple[CheckResult, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class VerdictReport:
    """Every requested experiment's verdict, plus the roll-up counts."""

    verdicts: Tuple[Verdict, ...]
    profile: str = "default"
    source: str = "live"

    @property
    def confirmed(self) -> int:
        return sum(1 for v in self.verdicts if v.status == CONFIRMED)

    @property
    def refuted(self) -> int:
        return sum(1 for v in self.verdicts if v.status == REFUTED)

    @property
    def inconclusive(self) -> int:
        return sum(1 for v in self.verdicts if v.status == INCONCLUSIVE)

    @property
    def exit_code(self) -> int:
        return 1 if self.refuted else 0


def _match(row: Mapping[str, Any], where: Where, where_not: Where = ()) -> bool:
    return all(row.get(k) == v for k, v in where) and all(
        row.get(k) != v for k, v in where_not
    )


def _select(rows: Sequence[Mapping[str, Any]], where: Where, where_not: Where = ()):
    return [r for r in rows if _match(r, where, where_not)]


def _flag_check(
    check: Check,
    rows: Sequence[Mapping[str, Any]],
    column: str,
    want_truthy: bool,
    where: Where,
    where_not: Where = (),
) -> CheckResult:
    selected = _select(rows, where, where_not)
    predicted = f"{column} {'truthy' if want_truthy else 'falsy'} on every selected row"
    if not selected:
        return CheckResult(check.claim, INCONCLUSIVE, "no rows selected", predicted)
    bad = [r for r in selected if bool(r.get(column)) != want_truthy]
    measured = f"{len(selected) - len(bad)}/{len(selected)} rows"
    status = CONFIRMED if not bad else REFUTED
    return CheckResult(check.claim, status, measured, predicted)


def evaluate_check(
    check: Check,
    rows: Sequence[Mapping[str, Any]],
    series: Mapping[str, Any],
) -> CheckResult:
    """Render one pre-registered check against one experiment's data."""
    if isinstance(check, GrowthWinner):
        predicted = (
            f"best fit {check.expect} of {list(check.models)} with "
            f"rel.err <= {check.max_rel_err} and R^2 >= {check.min_r2}"
        )
        s = series.get(check.series)
        if s is None:
            return CheckResult(
                check.claim, INCONCLUSIVE, f"series {check.series!r} absent", predicted
            )
        if len(s) < check.min_points:
            return CheckResult(
                check.claim,
                INCONCLUSIVE,
                f"only {len(s)} points (need {check.min_points})",
                predicted,
            )
        fits = classify_growth(s.xs, s.ys, models=check.models)
        best = fits[0]
        measured = (
            f"best fit {best.constant:.3f} * {best.model} "
            f"(rel.err {best.rel_rms_residual:.4f}, R^2 {best.r_squared:.4f})"
        )
        if best.model != check.expect:
            return CheckResult(check.claim, REFUTED, measured, predicted)
        # An all-zero series fits every model exactly; only a positive
        # constant is growth.
        if best.constant <= 0:
            return CheckResult(check.claim, REFUTED, measured + " — constant not positive", predicted)
        if best.rel_rms_residual > check.max_rel_err or best.r_squared < check.min_r2:
            return CheckResult(check.claim, INCONCLUSIVE, measured + " — below quality floor", predicted)
        return CheckResult(check.claim, CONFIRMED, measured, predicted)

    if isinstance(check, ColumnsEqual):
        selected = _select(rows, check.where)
        predicted = f"{check.left} == {check.right} on every row"
        if not selected:
            return CheckResult(check.claim, INCONCLUSIVE, "no rows selected", predicted)
        bad = [r for r in selected if r.get(check.left) != r.get(check.right)]
        status = CONFIRMED if not bad else REFUTED
        if bad:
            worst = bad[0]
            measured = (
                f"{len(bad)}/{len(selected)} rows differ "
                f"(e.g. {worst.get(check.left)!r} != {worst.get(check.right)!r})"
            )
        else:
            measured = f"equal on all {len(selected)} rows"
        return CheckResult(check.claim, status, measured, predicted)

    if isinstance(check, ColumnsBound):
        selected = _select(rows, check.where)
        factor = "" if check.factor == 1.0 else f"{check.factor} * "
        predicted = f"{check.left} <= {factor}{check.right} on every row"
        if not selected:
            return CheckResult(check.claim, INCONCLUSIVE, "no rows selected", predicted)
        numeric = [
            r
            for r in selected
            if isinstance(r.get(check.left), (int, float))
            and isinstance(r.get(check.right), (int, float))
        ]
        if not numeric:
            return CheckResult(check.claim, INCONCLUSIVE, "no numeric rows", predicted)
        bad = [r for r in numeric if r[check.left] > check.factor * r[check.right]]
        ratios = [
            r[check.left] / (check.factor * r[check.right])
            for r in numeric
            if r[check.right]
        ]
        worst = max(ratios) if ratios else float("nan")
        measured = f"worst ratio {worst:.3f} over {len(numeric)} rows"
        status = CONFIRMED if not bad else REFUTED
        return CheckResult(check.claim, status, measured, predicted)

    if isinstance(check, ColumnEquals):
        selected = _select(rows, check.where, check.where_not)
        predicted = f"{check.column} == {check.value!r} on every row"
        if not selected:
            return CheckResult(check.claim, INCONCLUSIVE, "no rows selected", predicted)
        bad = [r for r in selected if r.get(check.column) != check.value]
        measured = (
            f"{len(selected) - len(bad)}/{len(selected)} rows"
            + (f" (e.g. {bad[0].get(check.column)!r})" if bad else "")
        )
        status = CONFIRMED if not bad else REFUTED
        return CheckResult(check.claim, status, measured, predicted)

    if isinstance(check, RowsTrue):
        return _flag_check(check, rows, check.column, True, check.where, check.where_not)

    if isinstance(check, RowsFalse):
        return _flag_check(check, rows, check.column, False, check.where)

    if isinstance(check, RatioGrows):
        s = series.get(check.series)
        predicted = f"{check.series} strictly grows first -> last (gain > {check.min_gain})"
        if s is None or len(s) < 2:
            return CheckResult(check.claim, INCONCLUSIVE, "series absent or too short", predicted)
        first, last = s.ys[0], s.ys[-1]
        measured = f"{first:.3f} -> {last:.3f} across n={s.xs[0]:.0f}..{s.xs[-1]:.0f}"
        if first <= 0:
            return CheckResult(check.claim, INCONCLUSIVE, measured, predicted)
        status = CONFIRMED if last / first > check.min_gain else REFUTED
        return CheckResult(check.claim, status, measured, predicted)

    raise TypeError(f"unknown check type {type(check).__name__}")


def evaluate_experiment(
    criterion: Criterion,
    result: Union[ExperimentResult, Mapping[str, Any], None],
) -> Verdict:
    """Render one criterion against one experiment's locked result."""
    if result is None:
        return Verdict(
            experiment=criterion.experiment,
            theorem=criterion.theorem,
            hypothesis=criterion.hypothesis,
            lesson=criterion.lesson,
            status=INCONCLUSIVE,
            note="experiment not run",
        )
    _, all_rows = experiment_rows(result, criterion.experiment)
    degraded = degraded_rows(result)
    rows = [r for r in all_rows if not (r.get("skipped") or r.get("failed"))]
    series = measured_series(result, criterion.experiment)
    checks = tuple(evaluate_check(c, rows, series) for c in criterion.checks)
    if any(c.status == REFUTED for c in checks):
        status = REFUTED
    elif any(c.status == INCONCLUSIVE for c in checks) or degraded:
        status = INCONCLUSIVE
    else:
        status = CONFIRMED
    note = ""
    if degraded:
        note = f"{len(degraded)} degraded row(s) in the input — cannot confirm a partial run"
    return Verdict(
        experiment=criterion.experiment,
        theorem=criterion.theorem,
        hypothesis=criterion.hypothesis,
        lesson=criterion.lesson,
        status=status,
        checks=checks,
        note=note,
    )


def _experiment_sort_key(eid: str) -> Tuple[int, str]:
    digits = "".join(ch for ch in eid if ch.isdigit())
    return (int(digits) if digits else 0, eid)


def evaluate_results(
    results: Mapping[str, Union[ExperimentResult, Mapping[str, Any]]],
    experiments: Optional[Sequence[str]] = None,
    profile: str = "default",
    source: str = "live",
) -> VerdictReport:
    """Render every requested experiment's pre-registered criterion.

    ``experiments`` defaults to every id in the criteria registry that has
    a result (plus any explicitly requested id, which renders INCONCLUSIVE
    "not run" when its result is absent — absence is never silent).
    """
    if experiments is None:
        ids = [eid for eid in CRITERIA if eid in results]
    else:
        ids = [eid.upper() for eid in experiments]
    verdicts: List[Verdict] = []
    for eid in sorted(ids, key=_experiment_sort_key):
        criterion = CRITERIA.get(eid)
        if criterion is None:
            raise ValueError(
                f"no pre-registered criterion for {eid!r}; have {sorted(CRITERIA)}"
            )
        verdicts.append(evaluate_experiment(criterion, results.get(eid)))
    return VerdictReport(verdicts=tuple(verdicts), profile=profile, source=source)


def report_to_dict(report: VerdictReport) -> Dict[str, Any]:
    """The canonical-JSON export under the ``repro-verdict/1`` schema."""
    return canonical_json(
        {
            "schema": SCHEMA,
            "profile": report.profile,
            "source": report.source,
            "confirmed": report.confirmed,
            "refuted": report.refuted,
            "inconclusive": report.inconclusive,
            "verdicts": [
                {
                    "experiment": v.experiment,
                    "theorem": v.theorem,
                    "hypothesis": v.hypothesis,
                    "lesson": v.lesson,
                    "status": v.status,
                    "note": v.note,
                    "checks": [
                        {
                            "claim": c.claim,
                            "status": c.status,
                            "measured": c.measured,
                            "predicted": c.predicted,
                        }
                        for c in v.checks
                    ],
                }
                for v in report.verdicts
            ],
        }
    )


def report_to_json(report: VerdictReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


def render_markdown_table(report: VerdictReport) -> str:
    """The human-facing verdict table (also the CI artifact)."""
    lines = [
        f"# Verdicts ({report.profile} grid, {report.source})",
        "",
        f"CONFIRMED {report.confirmed} / REFUTED {report.refuted} / "
        f"INCONCLUSIVE {report.inconclusive}",
        "",
        "| Experiment | Theorem | Verdict | Checks |",
        "|---|---|---|---|",
    ]
    for v in report.verdicts:
        passed = sum(1 for c in v.checks if c.status == CONFIRMED)
        lines.append(
            f"| {v.experiment} | {v.theorem} | **{v.status}** | {passed}/{len(v.checks)} |"
        )
    lines.append("")
    for v in report.verdicts:
        lines.append(f"## {v.experiment} — {v.status}")
        lines.append("")
        lines.append(f"*{v.hypothesis}*")
        if v.note:
            lines.append("")
            lines.append(f"> {v.note}")
        lines.append("")
        for c in v.checks:
            mark = {CONFIRMED: "x", REFUTED: " ", INCONCLUSIVE: "?"}[c.status]
            lines.append(f"- [{mark}] {c.claim}")
            lines.append(f"  - measured: {c.measured}")
            lines.append(f"  - predicted: {c.predicted}")
        lines.append("")
    return "\n".join(lines)
