"""The uniform measured-series surface of the experiment registry.

Every experiment's headline numbers — oracle bits vs ``n``, messages vs
``n``, bound columns — used to live only inside each driver's row-plucking
code, which made them unreachable for anything but that driver's own
findings.  :func:`measured_series` exposes them uniformly: given an
:class:`~repro.analysis.result.ExperimentResult` (live, or round-tripped
through a runner ``results.json``), it returns named :class:`Series`
records that downstream consumers — the drivers' own growth-fit findings
and the pre-registered verdict criteria (:mod:`repro.verdict`) — read
through one shape instead of re-implementing per-experiment row spelunking.

Keys are ``column`` for a whole-table series (rows in table order) and
``column[group]`` for a per-group slice (e.g. ``oracle_bits[complete]``).
Part-style tables (``part``/``detail``/``value``/``reference``/``ok`` rows)
contribute ``value[part]`` series when their rows carry a numeric ``value``
and a numeric size field (``N`` or ``n``).

Rows flagged ``skipped`` or ``failed`` (the structured record of an
experiment the runner gave up on, see :mod:`repro.runner`) are excluded
from every series; :func:`degraded_rows` surfaces them so consumers can
refuse to call a partial run CONFIRMED.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .result import ExperimentResult

__all__ = ["Series", "measured_series", "degraded_rows", "experiment_rows"]

Number = Union[int, float]


@dataclass(frozen=True)
class Series:
    """One measured curve: ``ys`` over ``xs``, in row order."""

    experiment: str
    key: str
    xs: Tuple[float, ...]
    ys: Tuple[float, ...]
    group: Optional[str] = None

    def __len__(self) -> int:
        return len(self.xs)


def _numeric(value: Any) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def degraded_rows(result: Union[ExperimentResult, Mapping[str, Any], Sequence[Mapping[str, Any]]]) -> List[Mapping[str, Any]]:
    """The rows that are fault/skip records rather than measurements."""
    rows = experiment_rows(result)[1]
    return [r for r in rows if r.get("skipped") or r.get("failed")]


def experiment_rows(
    result: Union[ExperimentResult, Mapping[str, Any], Sequence[Mapping[str, Any]]],
    experiment: Optional[str] = None,
) -> Tuple[str, List[Mapping[str, Any]]]:
    """Normalize the accepted shapes to ``(experiment_id, rows)``.

    Accepts a live :class:`ExperimentResult`, its journal-serialized dict
    (what ``results.json`` stores), or a bare row list plus an explicit
    ``experiment`` id.
    """
    if isinstance(result, ExperimentResult):
        return result.experiment, list(result.rows)
    if isinstance(result, Mapping):
        return str(result.get("experiment", experiment or "?")), list(result.get("rows", []))
    if experiment is None:
        raise ValueError("a bare row list needs an explicit experiment id")
    return experiment, list(result)


def _group_values(rows: Sequence[Mapping[str, Any]], key: str) -> List[str]:
    seen: List[str] = []
    for row in rows:
        value = row.get(key)
        if isinstance(value, str) and value not in seen:
            seen.append(value)
    return seen


def _series_from(
    experiment: str,
    rows: Sequence[Mapping[str, Any]],
    key: str,
    x_field: str,
    y_field: str,
    group: Optional[str] = None,
) -> Optional[Series]:
    xs: List[float] = []
    ys: List[float] = []
    for row in rows:
        x = _numeric(row.get(x_field))
        y = _numeric(row.get(y_field))
        if x is None or y is None:
            continue
        xs.append(x)
        ys.append(y)
    if not xs:
        return None
    return Series(experiment, key, tuple(xs), tuple(ys), group=group)


def measured_series(
    result: Union[ExperimentResult, Mapping[str, Any], Sequence[Mapping[str, Any]]],
    experiment: Optional[str] = None,
) -> Dict[str, Series]:
    """Every numeric series an experiment's rows expose, keyed uniformly.

    * Sweep-style rows (carrying an ``n`` and numeric measurement columns)
      yield one whole-table series per column plus a ``column[family]``
      slice per family (ditto ``scheduler``-grouped rows).
    * Part-style rows (``part``/``value``) yield ``value[part]`` series
      over their ``N`` (or ``n``) field where both are numeric.

    Degraded (skipped/failed) rows never contribute points.
    """
    eid, all_rows = experiment_rows(result, experiment)
    rows = [r for r in all_rows if not (r.get("skipped") or r.get("failed"))]
    out: Dict[str, Series] = {}
    if not rows:
        return out

    part_rows = [r for r in rows if isinstance(r.get("part"), str)]
    plain_rows = [r for r in rows if not isinstance(r.get("part"), str)]

    if plain_rows:
        x_field = "n" if any(_numeric(r.get("n")) is not None for r in plain_rows) else None
        if x_field is not None:
            columns: List[str] = []
            for row in plain_rows:
                for key in row:
                    if key not in columns:
                        columns.append(key)
            numeric_cols = [
                c
                for c in columns
                if c != x_field
                and any(_numeric(r.get(c)) is not None for r in plain_rows)
            ]
            for col in numeric_cols:
                series = _series_from(eid, plain_rows, col, x_field, col)
                if series is not None:
                    out[col] = series
            for group_field in ("family", "scheduler"):
                for group in _group_values(plain_rows, group_field):
                    grouped = [r for r in plain_rows if r.get(group_field) == group]
                    for col in numeric_cols:
                        series = _series_from(
                            eid, grouped, f"{col}[{group}]", x_field, col, group=group
                        )
                        if series is not None:
                            out[series.key] = series

    for part in _group_values(part_rows, "part"):
        grouped = [r for r in part_rows if r.get("part") == part]
        x_field = "N" if any(_numeric(r.get("N")) is not None for r in grouped) else "n"
        series = _series_from(eid, grouped, f"value[{part}]", x_field, "value", group=part)
        if series is not None:
            out[series.key] = series
    return out


def growth_finding_series(
    result: Union[ExperimentResult, Sequence[Mapping[str, Any]]],
    column: str,
    experiment: Optional[str] = None,
    min_points: int = 3,
) -> List[Series]:
    """The per-family slices of ``column`` with enough points to fit.

    This is the surface the experiment drivers' own growth findings go
    through (instead of hand-grouping rows), so the fits the findings print
    and the fits the verdict criteria gate on come from one extraction.
    """
    slices = measured_series(result, experiment)
    return [
        s
        for key, s in slices.items()
        if s.group is not None and key == f"{column}[{s.group}]" and len(s) >= min_points
    ]


__all__.append("growth_finding_series")
