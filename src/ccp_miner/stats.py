"""Cross-project inference: stability, co-change precision/lift, twin analysis.

Metric series are per-entity year-to-value maps. Improvement direction is
metric-specific and always passed explicitly (+1 when higher is better,
-1 when lower is better, as for CCP). Ties at a threshold count as
non-improvement under the strict comparator; stated positive thresholds
use the inclusive comparator by default.
"""

from __future__ import annotations

import statistics
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path

from .errors import InputError
from .ingestion import read_csv


@dataclass(frozen=True)
class MetricSeries:
    """One metric tracked over years for a single entity."""

    entity_id: str
    points: Mapping[int, float]


def load_series_csv(path: str | Path) -> list[MetricSeries]:
    """Load an ``entity,year,value`` CSV into metric series."""
    points: dict[str, dict[int, float]] = {}
    for entity, year, value in read_csv(path, {"entity": str, "year": int, "value": float}):
        if year in points.get(entity, {}):
            raise InputError(f"duplicate year {year} for entity {entity!r} in {path}")
        points.setdefault(entity, {})[year] = value
    return [MetricSeries(entity_id=e, points=p) for e, p in points.items()]


def load_developer_series_csv(path: str | Path) -> dict[tuple[str, str], MetricSeries]:
    """Load a ``developer,project,year,value`` CSV into per-pair metric series."""
    columns = {"developer": str, "project": str, "year": int, "value": float}
    series: dict[tuple[str, str], dict[int, float]] = {}
    for developer, project, year, value in read_csv(path, columns):
        series.setdefault((developer, project), {})[year] = value
    return {
        key: MetricSeries(entity_id=f"{key[0]}:{key[1]}", points=points)
        for key, points in series.items()
    }


def pearson(xs: list[float], ys: list[float]) -> float:
    """Sample Pearson correlation; ValueError for unequal, short or constant series."""
    return statistics.correlation(xs, ys)


def _adjacent_pairs(
    series: Iterable[MetricSeries], year_range: tuple[int, int] | None = None
) -> list[tuple[float, float]]:
    pairs = []
    for s in series:
        for year, value in s.points.items():
            if (year + 1) not in s.points:
                continue
            if year_range is not None and not (year_range[0] <= year <= year_range[1] - 1):
                continue
            pairs.append((value, s.points[year + 1]))
    return pairs


@dataclass(frozen=True)
class StabilityReport:
    n_pairs: int
    pearson: float
    mean_signed_delta: float
    mean_abs_delta: float

    def as_dict(self) -> dict:
        return {
            "n_pairs": self.n_pairs,
            "pearson": self.pearson,
            "mean_signed_delta": self.mean_signed_delta,
            "mean_abs_delta": self.mean_abs_delta,
        }


def stability(
    series: list[MetricSeries], year_range: tuple[int, int] | None = None
) -> StabilityReport:
    """Year-over-year stability: correlation and deltas of adjacent-year pairs."""
    pairs = _adjacent_pairs(series, year_range)
    if len(pairs) < 2:
        raise InputError("stability requires at least two adjacent-year pairs")
    first = [a for a, _ in pairs]
    second = [b for _, b in pairs]
    deltas = [b - a for a, b in pairs]
    return StabilityReport(
        n_pairs=len(pairs),
        pearson=pearson(first, second),
        mean_signed_delta=statistics.fmean(deltas),
        mean_abs_delta=statistics.fmean(abs(d) for d in deltas),
    )


# ---------------------------------------------------------------------------
# Co-change

def _improved(delta_value: float, threshold: float, sign: int, comparator: str) -> bool:
    change = sign * delta_value
    if comparator == "inclusive":
        return change >= threshold
    return change > threshold


def _resolve_comparator(comparator: str, threshold: float) -> str:
    # Policy: strict for zero thresholds, inclusive for stated positive ones.
    if comparator == "auto":
        return "strict" if threshold == 0.0 else "inclusive"
    if comparator not in ("strict", "inclusive"):
        raise ValueError(f"unknown comparator {comparator!r}")
    return comparator


@dataclass(frozen=True)
class CoChangeReport:
    n_pairs: int
    match_rate: float
    precision: float | None
    base_rate: float
    lift: float | None
    thresholds: tuple[float, float]

    def as_dict(self) -> dict:
        return {
            "n_pairs": self.n_pairs,
            "match_rate": self.match_rate,
            "precision": self.precision,
            "base_rate": self.base_rate,
            "lift": self.lift,
            "thresholds": list(self.thresholds),
        }


def co_change(
    series_i: list[MetricSeries],
    series_j: list[MetricSeries],
    delta_i: float = 0.0,
    delta_j: float = 0.0,
    improvement_sign_i: int = 1,
    improvement_sign_j: int = 1,
    comparator: str = "auto",
    year_range: tuple[int, int] | None = None,
) -> CoChangeReport:
    """Do year-over-year improvements in metric i coincide with metric j?

    Pools adjacent-year pairs of entities covered by both metrics, marks
    improvement events per metric, and reports match rate, precision
    P(j improved | i improved), base rate P(j improved), and the symmetric
    precision lift.
    """
    if delta_i < 0 or delta_j < 0:
        raise ValueError("thresholds must be non-negative")
    cmp_i = _resolve_comparator(comparator, delta_i)
    cmp_j = _resolve_comparator(comparator, delta_j)
    by_entity_j = {s.entity_id: s.points for s in series_j}
    events = []
    for s in series_i:
        if s.entity_id not in by_entity_j:
            continue
        points_j = by_entity_j[s.entity_id]
        for year, value in s.points.items():
            if year_range is not None and not (year_range[0] <= year <= year_range[1] - 1):
                continue
            if (year + 1) not in s.points or year not in points_j or (year + 1) not in points_j:
                continue
            imp_i = _improved(s.points[year + 1] - value, delta_i, improvement_sign_i, cmp_i)
            imp_j = _improved(
                points_j[year + 1] - points_j[year], delta_j, improvement_sign_j, cmp_j
            )
            events.append((imp_i, imp_j))
    if not events:
        raise InputError("co_change found no overlapping adjacent-year pairs")
    n = len(events)
    n_i = sum(1 for i, _ in events if i)
    n_j = sum(1 for _, j in events if j)
    n_ij = sum(1 for i, j in events if i and j)
    match_rate = sum(1 for i, j in events if i == j) / n
    base_rate = n_j / n
    precision = n_ij / n_i if n_i else None
    # lift computed from the joint form, exactly symmetric in i and j
    lift = (n * n_ij) / (n_i * n_j) - 1.0 if n_i and n_j else None
    return CoChangeReport(
        n_pairs=n,
        match_rate=match_rate,
        precision=precision,
        base_rate=base_rate,
        lift=lift,
        thresholds=(delta_i, delta_j),
    )


# ---------------------------------------------------------------------------
# Twin (same developer, different projects) analysis

@dataclass(frozen=True)
class TwinReport:
    n_developer_pairs: int
    precision: float
    delta_project: float
    delta_dev: float
    comparator: str

    def __post_init__(self):
        if not 0.0 <= self.precision <= 1.0:
            raise ValueError("precision must be a probability")

    def as_dict(self) -> dict:
        return {
            "n_developer_pairs": self.n_developer_pairs,
            "precision": self.precision,
            "delta_project": self.delta_project,
            "delta_dev": self.delta_dev,
            "comparator": self.comparator,
        }


def twin_analysis(
    dev_project_series: Mapping[tuple[str, str], MetricSeries],
    project_series: list[MetricSeries],
    delta_project: float = 0.0,
    delta_dev: float = 0.0,
    improvement_sign: int = 1,
    comparator: str = "auto",
) -> TwinReport:
    """Same-developer comparison across project pairs.

    For each developer, year, and unordered project pair where one project
    is better than the other by more than `delta_project`, check whether
    the developer's own metric is better in the better project by more than
    `delta_dev`. Precision is the success fraction over all qualifying
    (developer, project pair, year) cases.
    """
    cmp_project = _resolve_comparator(comparator, delta_project)
    cmp_dev = _resolve_comparator(comparator, delta_dev)
    project_points = {s.entity_id: s.points for s in project_series}
    by_developer: dict[str, dict[str, Mapping[int, float]]] = {}
    for (developer, project), series in dev_project_series.items():
        by_developer.setdefault(developer, {})[project] = series.points

    qualifying = 0
    successes = 0
    for developer, projects in sorted(by_developer.items()):
        names = sorted(projects)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if a not in project_points or b not in project_points:
                    continue
                years = (
                    set(projects[a])
                    & set(projects[b])
                    & set(project_points[a])
                    & set(project_points[b])
                )
                for year in sorted(years):
                    gap = improvement_sign * (project_points[a][year] - project_points[b][year])
                    if _improved(abs(gap), delta_project, 1, cmp_project) and gap != 0:
                        better, worse = (a, b) if gap > 0 else (b, a)
                    else:
                        continue
                    qualifying += 1
                    dev_gap = improvement_sign * (
                        projects[better][year] - projects[worse][year]
                    )
                    if _improved(dev_gap, delta_dev, 1, cmp_dev):
                        successes += 1
    if qualifying == 0:
        raise InputError("twin_analysis found no qualifying project pairs")
    return TwinReport(
        n_developer_pairs=qualifying,
        precision=successes / qualifying,
        delta_project=delta_project,
        delta_dev=delta_dev,
        comparator=cmp_project,
    )
