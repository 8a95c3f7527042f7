"""Per-project-per-year metrics: coupling, speed, retention, onboarding.

The caller classifies the commits and estimates the CCP; this module takes
a corrective flag per commit, the involved authors' commit counts and the
estimate as given. All distributions are capped (one-sided winsorizing at a
corpus quantile) before averaging, so a handful of outliers cannot dominate
a project mean. Every mean is ``math.fsum(values) / len(values)``.
Improvement-direction conventions: lower CCP is better, higher speed,
retention and onboarding are better.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping, Set
from dataclasses import dataclass

from .errors import InputError
from .estimator import CcpEstimate

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


def capped_sizes(
    files: list[tuple[str, ...]], corrective: list[bool]
) -> list[tuple[tuple[str, ...], float]]:
    """The files of each non-corrective commit that has some, with its file count capped.

    ``files`` holds each commit's files and ``corrective`` flags the commits,
    both in the same order. Corrective commits are left out because bug fixes
    touch systematically fewer files and would distort the comparison. Both
    coupling measures read this list.
    """
    if len(files) != len(corrective):
        raise ValueError("file lists and corrective flags must be aligned")
    kept = [paths for paths, fix in zip(files, corrective) if not fix and paths]
    if not kept:
        return []
    return list(zip(kept, winsorize([float(len(paths)) for paths in kept])))


def coupling(capped: list[tuple[tuple[str, ...], float]]) -> float | None:
    """Mean capped files per commit of ``capped_sizes``; None when it is empty."""
    if not capped:
        return None
    return math.fsum(size for _, size in capped) / len(capped)


def coupling_by_file(capped: list[tuple[tuple[str, ...], float]]) -> float | None:
    """Per-file variant: mean over files of the mean capped size of their commits."""
    sizes_by_file: dict[str, list[float]] = {}
    for files, size in capped:
        for path in files:
            sizes_by_file.setdefault(path, []).append(size)
    if not sizes_by_file:
        return None
    means = [math.fsum(sizes) / len(sizes) for sizes in sizes_by_file.values()]
    return math.fsum(means) / len(means)


def file_length_stats(head_listing: list[tuple[str, int]]) -> float:
    """Mean file size in KB over a HEAD snapshot listing, winsorized at CAP_QUANTILE."""
    if not head_listing:
        raise InputError("file_length_stats requires a non-empty listing")
    sizes = winsorize([float(size) for _, size in head_listing])
    return math.fsum(sizes) / len(sizes) / 1024.0


def developer_speed(involved: Mapping[str, int]) -> float | None:
    """Mean non-merge commits per involved author, capped at SPEED_CAP; None when none involved.

    ``involved`` maps each involved author to their non-merge commits in the
    year, as ``ingestion.involved_authors`` gives it.
    """
    if not involved:
        return None
    return math.fsum(min(n, SPEED_CAP) for n in involved.values()) / len(involved)


def retention(year_t_involved: Set[str], year_t1_authors: set[str]) -> float | None:
    """Fraction of involved developers active again the next year."""
    if not year_t_involved:
        return None
    return len(year_t_involved & year_t1_authors) / len(year_t_involved)


def onboarding(
    prior_authors: set[str],
    year_t1_authors: set[str],
    year_t1_involved: Set[str],
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
# Per-project-year stats bundle

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
