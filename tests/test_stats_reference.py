"""co_change and twin_analysis against verbatim copies of their first implementations.

The references visit developers, project pairs and years in sorted order and
orient each pair by name, so a change in which pairs qualify or succeed, or in
the threshold comparisons, shows up as a different report.
"""

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from ccp_miner.errors import InputError
from ccp_miner.stats import (
    CoChangeReport,
    TwinReport,
    co_change,
    twin_analysis,
)

# ---------------------------------------------------------------------------
# Reference implementations


@dataclass(frozen=True, slots=True)
class MetricSeries:
    """One metric tracked over years for a single entity."""

    entity_id: str
    points: Mapping[int, float]


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


def reference_co_change(
    series_i: list[MetricSeries],
    series_j: list[MetricSeries],
    delta_i: float = 0.0,
    delta_j: float = 0.0,
    improvement_sign_i: int = 1,
    improvement_sign_j: int = 1,
    comparator: str = "auto",
    year_range: tuple[int, int] | None = None,
) -> CoChangeReport:
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


def reference_twin_analysis(
    dev_project_series: Mapping[tuple[str, str], MetricSeries],
    project_series: list[MetricSeries],
    delta_project: float = 0.0,
    delta_dev: float = 0.0,
    improvement_sign: int = 1,
    comparator: str = "auto",
) -> TwinReport:
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


# ---------------------------------------------------------------------------
# Properties

# Few distinct values, so exact ties and differences equal to a threshold are common.
VALUES = st.sampled_from([-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, float("nan")]) | st.floats(-1, 1)
# Two to three years out of three, so most entities share adjacent years.
POINTS = st.dictionaries(st.integers(2018, 2020), VALUES, min_size=1, max_size=3)
ENTITIES = st.sampled_from(["e0", "e1", "e2", "e3"])
THRESHOLDS = st.sampled_from([0.0, 0.25, 0.5])
COMPARATORS = st.sampled_from(["auto", "strict", "inclusive"])
SIGNS = st.sampled_from([-1, 1])


def outcome(study, *args, **kwargs):
    """The report as a dict, or the error it raised."""
    try:
        return dataclasses.asdict(study(*args, **kwargs))
    except InputError as exc:
        return ("InputError", str(exc))


def metric_series(points_by_entity: dict) -> list[MetricSeries]:
    return [MetricSeries(entity, points) for entity, points in points_by_entity.items()]


class TestAgainstReference:
    @given(
        st.dictionaries(ENTITIES, POINTS),
        st.dictionaries(ENTITIES, POINTS),
        THRESHOLDS,
        THRESHOLDS,
        SIGNS,
        SIGNS,
        COMPARATORS,
    )
    @settings(max_examples=300, deadline=None)
    def test_co_change(self, points_i, points_j, delta_i, delta_j, sign_i, sign_j, comparator):
        kwargs = {
            "improvement_sign_i": sign_i,
            "improvement_sign_j": sign_j,
            "comparator": comparator,
        }
        assert outcome(co_change, points_i, points_j, delta_i, delta_j, **kwargs) == outcome(
            reference_co_change,
            metric_series(points_i), metric_series(points_j), delta_i, delta_j, **kwargs
        )

    @given(
        st.dictionaries(
            st.tuples(st.sampled_from(["ann", "bob"]), ENTITIES), POINTS, min_size=2, max_size=8
        ),
        st.dictionaries(ENTITIES, POINTS, min_size=2),
        THRESHOLDS,
        THRESHOLDS,
        SIGNS,
        COMPARATORS,
    )
    @settings(max_examples=300, deadline=None)
    def test_twin_analysis(
        self, dev_points, project_points, delta_project, delta_dev, sign, comparator
    ):
        devs = {key: MetricSeries(f"{key[0]}:{key[1]}", p) for key, p in dev_points.items()}
        thresholds = (delta_project, delta_dev, sign, comparator)
        assert outcome(twin_analysis, dev_points, project_points, *thresholds) == outcome(
            reference_twin_analysis, devs, metric_series(project_points), *thresholds
        )
