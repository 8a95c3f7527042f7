"""select_projects against verbatim copies of its per-year implementation.

The reference descriptor keeps every year's hashes and sums them for the
total, and the reference pipeline reads the analysis year from that mapping.
Both are fed the same deduplicated commits over several years, so a change
in which year's hashes count, in the size order, or in the rule order shows
up as different ``accepted`` ids or ``exclusions``.
"""

from collections import Counter, defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field

from hypothesis import given, settings
from hypothesis import strategies as st

from ccp_miner.errors import InputError
from ccp_miner.ingestion import (
    MIN_COMMITS,
    SHARED_HASHES,
    CommitRecord,
    ProjectDescriptor,
    SelectionResult,
    select_projects,
)

# ---------------------------------------------------------------------------
# Reference implementations


@dataclass
class ReferenceProjectDescriptor:
    """Per-project commit inventory used by the selection pipeline."""

    repo_id: str
    owner: str
    name: str
    is_fork: bool
    commit_hashes_by_year: dict[int, frozenset[str]] = field(default_factory=dict)

    def total_commits(self) -> int:
        return sum(len(h) for h in self.commit_hashes_by_year.values())

    @classmethod
    def from_commits(
        cls, commits: Iterable[CommitRecord], owner: str = "", name: str = "", is_fork: bool = False
    ) -> "ReferenceProjectDescriptor":
        by_year: dict[int, set[str]] = defaultdict(set)
        repo_id = ""
        for commit in commits:
            repo_id = commit.repo_id
            by_year[commit.year].add(commit.hash)
        if not repo_id:
            raise InputError("cannot build a project descriptor from zero commits")
        if not owner and "/" in repo_id:
            owner, _, name = repo_id.partition("/")
        return cls(
            repo_id=repo_id,
            owner=owner or repo_id,
            name=name or repo_id,
            is_fork=is_fork,
            commit_hashes_by_year={y: frozenset(h) for y, h in by_year.items()},
        )


def _reference_size_key(project: ReferenceProjectDescriptor, year: int) -> tuple[int, int, str]:
    # "Larger" = more commits in the analysis year; ties by total commits,
    # then repo_id, giving a total order.
    return (
        len(project.commit_hashes_by_year.get(year, frozenset())),
        project.total_commits(),
        project.repo_id,
    )


def reference_select_projects(
    projects: list[ReferenceProjectDescriptor], year: int
) -> SelectionResult:
    """Apply the selection pipeline for one analysis year.

    In order: drop projects under MIN_COMMITS commits in the year, drop
    forks, drop projects dominated by a strictly larger surviving project
    (more than SHARED_HASHES shared hashes in the year), and dedup
    same-name projects keeping the owner with more projects in the input.
    Every excluded project appears exactly once in the report.
    """
    exclusions: list[tuple[str, str]] = []

    survivors = []
    for project in projects:
        if len(project.commit_hashes_by_year.get(year, frozenset())) < MIN_COMMITS:
            exclusions.append((project.repo_id, "min_commits"))
        else:
            survivors.append(project)

    kept = []
    for project in survivors:
        if project.is_fork:
            exclusions.append((project.repo_id, "fork"))
        else:
            kept.append(project)
    survivors = kept

    # Dominance: walk largest-first so the largest project of any
    # shared-commit cluster is always retained.
    ordered = sorted(survivors, key=lambda p: _reference_size_key(p, year), reverse=True)
    retained: list[ReferenceProjectDescriptor] = []
    dominated: set[str] = set()
    for project in ordered:
        hashes = project.commit_hashes_by_year.get(year, frozenset())
        for larger in retained:
            larger_hashes = larger.commit_hashes_by_year.get(year, frozenset())
            if len(hashes & larger_hashes) > SHARED_HASHES:
                dominated.add(project.repo_id)
                exclusions.append((project.repo_id, "dominated"))
                break
        else:
            retained.append(project)
    survivors = [p for p in survivors if p.repo_id not in dominated]

    owner_projects = Counter(p.owner for p in projects)
    by_name: dict[str, list[ReferenceProjectDescriptor]] = defaultdict(list)
    for project in survivors:
        by_name[project.name].append(project)
    accepted = []
    for name, group in by_name.items():
        winner = min(group, key=lambda p: (-owner_projects[p.owner], p.owner))
        for project in group:
            if project is winner:
                accepted.append(project)
            else:
                exclusions.append((project.repo_id, "duplicate_name"))

    order = {p.repo_id: i for i, p in enumerate(projects)}
    accepted.sort(key=lambda p: order[p.repo_id])
    return SelectionResult(accepted=accepted, exclusions=exclusions)


# ---------------------------------------------------------------------------
# Generated corpora

YEARS = (2018, 2019, 2020)

# Owner/name pairs that repeat names across owners, plus ids without an owner.
REPO_IDS = ["o1/alpha", "o1/beta", "o2/alpha", "o3/alpha", "o2/gamma", "o3/beta", "alpha", "beta"]

# Sizes around MIN_COMMITS and shares around SHARED_HASHES, drawn from few
# values so that analysis-year counts often tie and only the total breaks them.
_project = st.fixed_dictionaries(
    {
        "in_year": st.sampled_from([0, 150, 199, 200, 260]),
        "cluster": st.sampled_from([0, 1]),
        "shared": st.sampled_from([0, 30, 50, 51, 80, 200]),
        "shared_elsewhere": st.sampled_from([0, 0, 1, 40]),
        "other_years": st.tuples(st.sampled_from([0, 0, 1, 5]), st.sampled_from([0, 3])),
        "metadata": st.none() | st.tuples(
            st.sampled_from(["", "o1", "o2", "o4"]),
            st.sampled_from(["", "alpha", "beta"]),
            st.booleans(),
        ),
    }
)


def _commits(repo_id: str, year: int, spec: dict) -> list[CommitRecord]:
    """One project's distinct commits over YEARS.

    The first ``shared`` hashes of its cluster come first, the first
    ``shared_elsewhere`` of them outside the analysis year. The project's own
    hashes fill the analysis year up to ``in_year`` commits and add
    ``other_years`` commits to the other two years.
    """
    elsewhere = [y for y in YEARS if y != year]
    shared = min(spec["shared_elsewhere"], spec["shared"])
    years = {f"s{spec['cluster']}-{j}": elsewhere[0] for j in range(shared)}
    years.update({f"s{spec['cluster']}-{j}": year for j in range(shared, spec["shared"])})
    for j in range(spec["in_year"] - (spec["shared"] - shared)):
        years[f"{repo_id}-{j}"] = year
    for other, count in zip(elsewhere, spec["other_years"]):
        for j in range(count):
            years[f"{repo_id}-{other}-{j}"] = other
    return [
        CommitRecord(repo_id=repo_id, hash=h, author_id="a@x", year=y, message="m")
        for h, y in years.items()
    ]


class TestAgainstReference:
    @given(
        st.lists(st.sampled_from(REPO_IDS), min_size=1, max_size=7, unique=True),
        st.sampled_from(YEARS),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_select_projects(self, repo_ids, year, data):
        corpus = []
        for repo_id in repo_ids:
            spec = data.draw(_project)
            commits = _commits(repo_id, year, spec)
            if commits:
                corpus.append((commits, spec["metadata"] or ()))
        reference = reference_select_projects(
            [ReferenceProjectDescriptor.from_commits(c, *meta) for c, meta in corpus], year
        )
        selection = select_projects(
            [ProjectDescriptor.from_commits(c, year, *meta) for c, meta in corpus]
        )
        assert [p.repo_id for p in selection.accepted] == [p.repo_id for p in reference.accepted]
        assert selection.exclusions == reference.exclusions
