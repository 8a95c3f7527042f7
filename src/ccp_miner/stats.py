"""Cross-project inference: co-change precision/lift and twin analysis.

A metric series is a year-to-value map, and a set of them is keyed by
entity (a project, or a (developer, project) pair). Improvement direction is
metric-specific and always passed explicitly (+1 when higher is better,
-1 when lower is better, as for CCP). Ties at a threshold count as
non-improvement under the strict comparator; stated positive thresholds
use the inclusive comparator by default.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from .errors import InputError
from .ingestion import read_csv


def _finite(text: str) -> float:
    """A metric value: a float that is neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"metric value {text!r} is not finite")
    return value


def load_series_csv(
    path: str | Path, keys: tuple[str, ...] = ("entity",)
) -> dict[str | tuple[str, ...], dict[int, float]]:
    """Load a CSV with the ``keys`` columns, ``year`` and ``value`` as key -> year -> value.

    A series is keyed by the text of its one key column (``entity`` by
    default) or by the tuple of the texts of several, as ``("developer",
    "project")`` gives. A key's repeated year or a value that is not finite
    is an error.
    """
    n = len(keys)
    key_of = operator.itemgetter(*range(n))
    series: dict[str | tuple[str, ...], dict[int, float]] = {}
    for row in read_csv(path, {**dict.fromkeys(keys, str), "year": int, "value": _finite}):
        key = key_of(row)
        year = row[n]
        points = series.get(key)
        if points is None:
            series[key] = {year: row[n + 1]}
        elif year in points:
            named = " in ".join(f"{name} {text!r}" for name, text in zip(keys, row))
            raise InputError(f"duplicate year {year} for {named} in {path}")
        else:
            points[year] = row[n + 1]
    return series


# ---------------------------------------------------------------------------
# Co-change

# How an improvement compares with its threshold, by resolved comparator.
_BEATS = {"strict": operator.gt, "inclusive": operator.ge}


def _resolve_comparator(comparator: str, threshold: float) -> str:
    if threshold < 0:
        raise ValueError("thresholds must be non-negative")
    # Policy: strict for zero thresholds, inclusive for stated positive ones.
    if comparator == "auto":
        return "strict" if threshold == 0.0 else "inclusive"
    if comparator not in _BEATS:
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


def co_change(
    series_i: Mapping[str, Mapping[int, float]],
    series_j: Mapping[str, Mapping[int, float]],
    delta_i: float = 0.0,
    delta_j: float = 0.0,
    improvement_sign_i: int = 1,
    improvement_sign_j: int = 1,
    comparator: str = "auto",
) -> CoChangeReport:
    """Do year-over-year improvements in metric i coincide with metric j?

    Pools adjacent-year pairs of entities covered by both metrics, marks
    improvement events per metric, and reports match rate, precision
    P(j improved | i improved), base rate P(j improved), and the symmetric
    precision lift. A negative threshold raises ValueError.
    """
    beats_i = _BEATS[_resolve_comparator(comparator, delta_i)]
    beats_j = _BEATS[_resolve_comparator(comparator, delta_j)]
    n = n_i = n_j = n_ij = matches = 0
    for entity, points_i in series_i.items():
        points_j = series_j.get(entity)
        if points_j is None:
            continue
        for year, value in points_i.items():
            if (year + 1) not in points_i or year not in points_j or (year + 1) not in points_j:
                continue
            imp_i = beats_i(improvement_sign_i * (points_i[year + 1] - value), delta_i)
            imp_j = beats_j(improvement_sign_j * (points_j[year + 1] - points_j[year]), delta_j)
            n += 1
            n_i += imp_i
            n_j += imp_j
            n_ij += imp_i and imp_j
            matches += imp_i == imp_j
    if not n:
        raise InputError("co_change found no overlapping adjacent-year pairs")
    match_rate = matches / n
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


def twin_analysis(
    dev_project_series: Mapping[tuple[str, str], Mapping[int, float]],
    project_series: Mapping[str, Mapping[int, float]],
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
    (developer, project pair, year) cases. A negative threshold raises
    ValueError.
    """
    cmp_project = _resolve_comparator(comparator, delta_project)
    project_beats = _BEATS[cmp_project]
    dev_beats = _BEATS[_resolve_comparator(comparator, delta_dev)]
    # A project without a series of its own is never in a qualifying pair.
    by_developer: dict[str, list[tuple[Mapping[int, float], Mapping[int, float]]]] = {}
    for (developer, project), dev_points in dev_project_series.items():
        points = project_series.get(project)
        if points is not None:
            by_developer.setdefault(developer, []).append((dev_points, points))

    # The report is two counts, so neither developers, pairs nor years need an order.
    qualifying = 0
    successes = 0
    for projects in by_developer.values():
        for (dev_a, project_a), (dev_b, project_b) in itertools.combinations(projects, 2):
            for year in dev_a.keys() & dev_b.keys() & project_a.keys() & project_b.keys():
                gap = improvement_sign * (project_a[year] - project_b[year])
                if gap == 0 or not project_beats(abs(gap), delta_project):
                    continue
                qualifying += 1
                # b - a is exactly -(a - b), so the gap's sign orients the developer's gap.
                dev_gap = improvement_sign * (dev_a[year] - dev_b[year])
                if dev_beats(dev_gap if gap > 0 else -dev_gap, delta_dev):
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
