"""Per-project-per-year metrics: CCP, coupling, speed, retention, onboarding.

All distributions are capped (one-sided winsorizing at a corpus quantile)
before averaging, so a handful of outliers cannot dominate a project mean.
Improvement-direction conventions: lower CCP is better, higher speed,
retention and onboarding are better.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, fields
from statistics import fmean

from .classifier import ClassifierVerdict, TermModel, classify_message
from .errors import InputError
from .estimator import CcpEstimate, ModelPerformance, estimate_ccp
from .ingestion import CommitRecord

# The paper's fixed thresholds.
CAP_QUANTILE = 0.99  # quantile at which distributions are capped
SPEED_CAP = 500  # most commits one developer counts for in developer speed
MIN_NEW_DEVELOPERS = 10  # new developers below which onboarding is not reported

# Extensions of common Turing-complete programming languages; used to
# restrict dominant-language detection to code.
LANGUAGE_EXTENSIONS = frozenset(
    {
        "c", "h", "cc", "cpp", "cxx", "hpp", "cs", "java", "js", "jsx", "ts",
        "tsx", "py", "rb", "go", "rs", "php", "swift", "kt", "kts", "scala",
        "sh", "bash", "pl", "pm", "r", "m", "mm", "lua", "dart", "hs", "clj",
        "cljs", "ex", "exs", "erl", "jl", "groovy", "vb", "fs", "ml", "pas",
        "asm", "f90", "f95", "cob", "ada", "d", "nim", "zig", "elm",
    }
)


def winsorize(values: list[float], quantile: float = CAP_QUANTILE) -> list[float]:
    """One-sided winsorizing: cap values above the nearest-rank(lower) quantile.

    Order and length are preserved; idempotent and monotone.
    """
    if not values:
        raise InputError("winsorize requires a non-empty list")
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    # nearest-rank threshold; small lists are left uncapped rather than
    # squashed to their minimum
    rank = max(1, math.ceil(quantile * len(values)))
    threshold = sorted(values)[rank - 1]
    return [min(v, threshold) for v in values]


def project_ccp(
    commits: list[CommitRecord], model: TermModel, perf: ModelPerformance
) -> CcpEstimate:
    """Classify a project's commits and estimate its CCP."""
    if not commits:
        raise InputError("project_ccp requires at least one commit")
    k = sum(1 for c in commits if classify_message(c.message, model).corrective)
    return estimate_ccp(k=k, n=len(commits), perf=perf)


def _capped_sizes(
    commits: list[CommitRecord], verdicts: list[ClassifierVerdict]
) -> list[tuple[CommitRecord, float]]:
    """Non-corrective commits that carry files, each with its capped file count."""
    if len(commits) != len(verdicts):
        raise ValueError("commits and verdicts must be aligned")
    kept = [c for c, v in zip(commits, verdicts) if not v.corrective and c.files]
    if not kept:
        return []
    return list(zip(kept, winsorize([float(len(c.files)) for c in kept])))


def coupling(commits: list[CommitRecord], verdicts: list[ClassifierVerdict]) -> float | None:
    """Mean files per non-corrective commit, winsorized at CAP_QUANTILE.

    Corrective commits are excluded because bug fixes touch systematically
    fewer files and would distort the comparison. None when no
    non-corrective commit carries files.
    """
    capped = _capped_sizes(commits, verdicts)
    if not capped:
        return None
    return fmean(size for _, size in capped)


def coupling_by_file(
    commits: list[CommitRecord], verdicts: list[ClassifierVerdict]
) -> float | None:
    """Per-file variant: mean over files of the mean size of their commits."""
    sizes_by_file: dict[str, list[float]] = {}
    for commit, size in _capped_sizes(commits, verdicts):
        for path in commit.files:
            sizes_by_file.setdefault(path, []).append(size)
    if not sizes_by_file:
        return None
    return fmean(fmean(sizes) for sizes in sizes_by_file.values())


def file_length_stats(head_listing: list[tuple[str, int]]) -> float:
    """Mean file size in KB over a HEAD snapshot listing, winsorized at CAP_QUANTILE."""
    if not head_listing:
        raise InputError("file_length_stats requires a non-empty listing")
    return fmean(winsorize([float(size) for _, size in head_listing])) / 1024.0


def developer_speed(commits: list[CommitRecord], involved: set[str]) -> float | None:
    """Mean non-merge commits per involved author, capped at SPEED_CAP; None when none involved."""
    if not involved:
        return None
    counts = Counter(c.author_id for c in commits if not c.is_merge)
    missing = involved - set(counts)
    if missing:
        raise ValueError(f"involved authors absent from commits: {sorted(missing)[:3]}")
    return fmean(min(counts[a], SPEED_CAP) for a in involved)


def retention(year_t_involved: set[str], year_t1_authors: set[str]) -> float | None:
    """Fraction of involved developers active again the next year."""
    if not year_t_involved:
        return None
    return len(year_t_involved & year_t1_authors) / len(year_t_involved)


def onboarding(
    prior_authors: set[str],
    year_t1_authors: set[str],
    year_t1_involved: set[str],
) -> float | None:
    """Fraction of newly arrived developers that become involved.

    New developers are authors of year t+1 not seen before; the ratio is
    suppressed (None) below MIN_NEW_DEVELOPERS new developers to avoid noise.
    """
    new = year_t1_authors - prior_authors
    if len(new) < MIN_NEW_DEVELOPERS:
        return None
    return len(new & year_t1_involved) / len(new)


def dominant_language(head_listing: list[tuple[str, int]]) -> str | None:
    """Extension owning strictly more than 80% of the files, if it is a
    known programming-language extension."""
    if not head_listing:
        raise InputError("dominant_language requires a non-empty listing")
    counts: Counter[str] = Counter()
    for path, _ in head_listing:
        _, _, ext = path.rpartition(".")
        counts[ext.lower() if ext else ""] += 1
    total = len(head_listing)
    ext, count = counts.most_common(1)[0]
    if ext in LANGUAGE_EXTENSIONS and count > 0.8 * total:
        return ext
    return None


# ---------------------------------------------------------------------------
# Quality-term correlation

@dataclass(frozen=True)
class TermGroupResult:
    group_id: str
    has_term: bool
    ccp_raw: float
    n_commits: int
    occurrences: int


def quality_term_analysis(
    groups: Mapping[str, list[CommitRecord]],
    model: TermModel,
    perf: ModelPerformance,
    terms: list[str],
    level: str = "file",
    file_min_commits: int = 10,
    file_rate: float = 0.1,
    project_min_occurrences: int = 10,
) -> list[TermGroupResult]:
    """Flag groups (files or projects) mentioning quality terms; pair with CCP.

    File level: groups under `file_min_commits` commits are dropped and a
    group is flagged when its term hit rate is at least `file_rate`.
    Project level: flagged when total occurrences reach
    `project_min_occurrences`.
    """
    if level not in ("file", "project"):
        raise ValueError(f"level must be 'file' or 'project', got {level!r}")
    if not groups:
        raise InputError("quality_term_analysis requires a non-empty grouping")
    compiled = [re.compile(t, re.IGNORECASE) for t in terms]
    results = []
    for group_id, commits in groups.items():
        if not commits:
            continue
        occurrences = sum(
            1 for c in commits if any(p.search(c.message) for p in compiled)
        )
        if level == "file":
            if len(commits) < file_min_commits:
                continue
            flagged = occurrences / len(commits) >= file_rate
        else:
            flagged = occurrences >= project_min_occurrences
        estimate = project_ccp(commits, model, perf)
        results.append(
            TermGroupResult(
                group_id=group_id,
                has_term=flagged,
                ccp_raw=estimate.ccp_raw,
                n_commits=len(commits),
                occurrences=occurrences,
            )
        )
    return results


# ---------------------------------------------------------------------------
# Per-project-year stats bundle and grouping

@dataclass
class ProjectYearStats:
    """Metric bundle for one project in one calendar year."""

    repo_id: str
    year: int
    n_commits: int
    k_hits: int
    ccp: CcpEstimate
    coupling: float | None = None
    coupling_by_file: float | None = None
    speed: float | None = None
    retention: float | None = None
    onboarding: float | None = None
    dominant_language: str | None = None
    avg_file_kb: float | None = None

    def as_dict(self) -> dict:
        return {
            "repo_id": self.repo_id,
            "year": self.year,
            "n_commits": self.n_commits,
            "k_hits": self.k_hits,
            "ccp": self.ccp.as_dict(),
            "coupling": self.coupling,
            "coupling_by_file": self.coupling_by_file,
            "speed": self.speed,
            "retention": self.retention,
            "onboarding": self.onboarding,
            "dominant_language": self.dominant_language,
            "avg_file_kb": self.avg_file_kb,
        }

    @classmethod
    def flat_columns(cls) -> list[str]:
        """Keys of ``as_flat_dict``, in order: the CSV report's header."""
        ccp_columns = ["hit_rate", "ccp_raw", "ccp_status"]
        return [f.name for f in fields(cls) if f.name != "ccp"] + ccp_columns

    def as_flat_dict(self) -> dict:
        out = self.as_dict()
        ccp = out.pop("ccp")
        out.update(
            {
                "hit_rate": ccp["hit_rate"],
                "ccp_raw": ccp["ccp_raw"],
                "ccp_status": ccp["status"],
            }
        )
        return out


@dataclass(frozen=True)
class GroupComparison:
    n: int
    mean_ccp: float | None
    lift: float | None

    def as_dict(self) -> dict:
        return {"n": self.n, "mean_ccp": self.mean_ccp, "lift": self.lift}


def compare_groups(values_by_label: Mapping[str, list[float]]) -> dict[str, GroupComparison]:
    """Per-group mean and lift versus the complement of all other groups."""
    out = {}
    for label, values in values_by_label.items():
        complement = [
            v for other, vals in values_by_label.items() if other != label for v in vals
        ]
        mean = fmean(values) if values else None
        lift = None
        if values and complement:
            comp_mean = fmean(complement)
            if comp_mean != 0.0:
                lift = mean / comp_mean - 1.0
        out[label] = GroupComparison(n=len(values), mean_ccp=mean, lift=lift)
    return out


def group_compare(
    stats: Iterable[ProjectYearStats], labels: Mapping[str, str]
) -> dict[str, GroupComparison]:
    """Group project-year stats by label and compare mean CCP with lift.

    `labels` maps repo_id to its group; every project must be labeled.
    """
    values: dict[str, list[float]] = {}
    for stat in stats:
        if stat.repo_id not in labels:
            raise ValueError(f"project {stat.repo_id} missing from the grouping")
        values.setdefault(labels[stat.repo_id], []).append(stat.ccp.ccp_raw)
    return compare_groups(values)


@dataclass(frozen=True)
class ProjectProfile:
    """Grouping inputs not derivable from a single project-year."""

    repo_id: str
    first_commit_year: int
    n_developers: int
    dominant_language: str | None = None


@dataclass
class ControlPartitions:
    age: dict[str, list[str]]
    developers: dict[str, list[str]]
    language: dict[str, list[str]]
    developer_cutoffs: tuple[int, int]


def control_groups(profiles: list[ProjectProfile]) -> ControlPartitions:
    """Partition projects by age, developer count, and dominant language.

    Age groups: young (started 2018+), medium (2016-17), old (2008-15);
    earlier starts are excluded from the age partition. Developer cutoffs
    are this corpus's own p25/p75, boundary inclusive.
    """
    if not profiles:
        raise InputError("control_groups requires at least one profile")
    age: dict[str, list[str]] = {"young": [], "medium": [], "old": []}
    for p in profiles:
        if p.first_commit_year >= 2018:
            age["young"].append(p.repo_id)
        elif p.first_commit_year >= 2016:
            age["medium"].append(p.repo_id)
        elif p.first_commit_year >= 2008:
            age["old"].append(p.repo_id)

    counts = sorted(p.n_developers for p in profiles)
    last = len(counts) - 1
    p25, p75 = counts[25 * last // 100], counts[75 * last // 100]
    developers: dict[str, list[str]] = {"few": [], "intermediate": [], "numerous": []}
    for p in profiles:
        if p.n_developers <= p25:
            developers["few"].append(p.repo_id)
        elif p.n_developers <= p75:
            developers["intermediate"].append(p.repo_id)
        else:
            developers["numerous"].append(p.repo_id)

    language: dict[str, list[str]] = {}
    for p in profiles:
        language.setdefault(p.dominant_language or "none", []).append(p.repo_id)

    return ControlPartitions(
        age=age, developers=developers, language=language, developer_cutoffs=(p25, p75)
    )
