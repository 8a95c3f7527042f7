"""Input file readers and commit-history ingestion.

Every input file is read by ``read_text``, ``read_csv`` or ``read_config``,
which raise the caller's error class naming the file.

The canonical commit export format is newline-delimited JSON, one object per
commit with keys ``repo``, ``hash``, ``author``, ``ts`` (ISO-8601), ``msg``,
``files`` and ``merge``. A raw ``git log`` format (record/unit separator
based, documented by the ``export-log-recipe`` subcommand) is also parsed.
"""

from __future__ import annotations

import csv
import json
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .errors import CcpMinerError, InputError

# ---------------------------------------------------------------------------
# Readers


def read_text(path: str | Path, error: type[CcpMinerError] = InputError) -> str:
    """Read a UTF-8 file with universal newlines, as ``Path.read_text`` does.

    An unreadable file or bytes that are not UTF-8 raise ``error`` naming
    the file and the offset of the first bad byte.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8: byte {exc.start} is {data[exc.start]:#04x}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_csv(
    path: str | Path,
    columns: Mapping[str, Callable[[str], object]],
    error: type[CcpMinerError] = InputError,
) -> Iterator[tuple]:
    """Yield the ``columns`` of each row of a UTF-8 CSV file with a header line.

    ``columns`` maps header names to converters, and each tuple holds the
    converted values in that order. Blank lines are skipped, as
    ``csv.DictReader`` does. A missing column, a short row or a value its
    converter rejects raises ``error`` naming the file and line.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header is None:
                return
            positions = {name: i for i, name in enumerate(header)}
            missing = [name for name in columns if name not in positions]
            if missing:
                raise error(f"{path}: missing column(s) {', '.join(missing)}")
            needed = [(positions[name], convert) for name, convert in columns.items()]
            width = max(i for i, _ in needed) + 1
            for row in rows:
                if not row:
                    continue
                if len(row) < width:
                    raise error(f"{path}, line {rows.line_num}: {len(row)} fields, need {width}")
                try:
                    yield tuple(convert(row[i]) for i, convert in needed)
                except ValueError as exc:
                    raise error(f"{path}, line {rows.line_num}: {exc}") from exc
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        read_text(path, error)  # raises, naming the offset of the first bad byte
        raise error(f"{path} is not UTF-8") from exc
    except csv.Error as exc:
        raise error(f"{path}: {exc}") from exc


def read_config(
    path: str | Path, keys: Iterable[str], error: type[CcpMinerError]
) -> dict[str, str]:
    """Read a ``key=value`` file: ``#`` comments, blank lines, one pair a line.

    Dashes in keys read as underscores. A line without ``=`` or a key not
    in ``keys`` raises ``error`` naming the file and line.
    """
    known = set(keys)
    values = {}
    for lineno, raw in enumerate(read_text(path, error).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise error(f"{path}, line {lineno}: expected key=value, got {line!r}")
        key = key.strip().replace("-", "_")
        if key not in known:
            raise error(f"{path}, line {lineno}: unknown key {key!r}; known: {sorted(known)}")
        values[key] = value.strip()
    return values


GIT_LOG_RECIPE = r"""Export a repository's history for ccp-miner:

    git log --all --no-color \
        --pretty=format:'%x1e%H%x1f%ae%x1f%aI%x1f%P%x1f%B%x1f' \
        --name-only > history.gitlog

Records are separated by \x1e, fields by \x1f:
hash, author email, ISO-8601 author date, parent hashes, raw message body.
The file list produced by --name-only follows the last field.
A commit with more than one parent is flagged as a merge.

Feed the file to `ccp-miner classify` or `ccp-miner analyze` with
`--input-format git --repo <name>`.
"""


@dataclass(frozen=True)
class CommitRecord:
    """One parsed commit: identity, author, timestamp, message, files."""

    repo_id: str
    hash: str
    author_id: str
    timestamp: datetime
    message: str
    files: tuple[str, ...] = ()
    is_merge: bool = False

    def __post_init__(self):
        if not self.hash:
            raise ValueError("commit hash must be non-empty")

    @property
    def year(self) -> int:
        return self.timestamp.astimezone(timezone.utc).year


@dataclass
class ParseResult:
    records: list[CommitRecord]
    skipped: int


def _record_from_dict(obj: dict) -> CommitRecord:
    ts = datetime.fromisoformat(obj["ts"])
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return CommitRecord(
        repo_id=str(obj["repo"]),
        hash=str(obj["hash"]),
        author_id=str(obj["author"]).strip().lower(),
        timestamp=ts,
        message=str(obj["msg"]),
        files=tuple(obj.get("files") or ()),
        is_merge=bool(obj.get("merge", False)),
    )


def parse_git_log(stream: Iterable[str]) -> ParseResult:
    """Parse newline-delimited JSON commit objects.

    Malformed lines are skipped and counted; an input with zero parseable
    records raises InputError.
    """
    records: list[CommitRecord] = []
    skipped = 0
    seen: set[tuple[str, str]] = set()
    for line in stream:
        line = line.strip()
        if not line:
            continue
        try:
            record = _record_from_dict(json.loads(line))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            skipped += 1
            continue
        key = (record.repo_id, record.hash)
        if key in seen:
            skipped += 1
            continue
        seen.add(key)
        records.append(record)
    if not records:
        raise InputError(f"no parseable commit records (skipped {skipped} lines)")
    return ParseResult(records=records, skipped=skipped)


def parse_raw_git_log(text: str, repo_id: str) -> ParseResult:
    """Parse the separator-based `git log` export documented in GIT_LOG_RECIPE."""
    records: list[CommitRecord] = []
    skipped = 0
    seen: set[str] = set()
    for chunk in text.split("\x1e"):
        if not chunk.strip():
            continue
        fields = chunk.split("\x1f")
        if len(fields) != 6:
            skipped += 1
            continue
        commit_hash, author, ts_text, parents, message, file_block = fields
        try:
            ts = datetime.fromisoformat(ts_text.strip())
        except ValueError:
            skipped += 1
            continue
        if commit_hash in seen:
            skipped += 1
            continue
        seen.add(commit_hash)
        files = tuple(f.strip() for f in file_block.splitlines() if f.strip())
        records.append(
            CommitRecord(
                repo_id=repo_id,
                hash=commit_hash.strip(),
                author_id=author.strip().lower(),
                timestamp=ts,
                message=message.rstrip("\n"),
                files=files,
                is_merge=len(parents.split()) > 1,
            )
        )
    if not records:
        raise InputError(f"no parseable commit records (skipped {skipped} chunks)")
    return ParseResult(records=records, skipped=skipped)


def window_by_year(commits: Iterable[CommitRecord]) -> dict[int, list[CommitRecord]]:
    """Partition commits by UTC calendar year."""
    windows: dict[int, list[CommitRecord]] = defaultdict(list)
    for commit in commits:
        windows[commit.year].append(commit)
    return dict(windows)


def involved_authors(commits: Iterable[CommitRecord], threshold: int = 12) -> set[str]:
    """Authors with at least `threshold` non-merge commits in the given set."""
    counts = Counter(c.author_id for c in commits if not c.is_merge)
    return {author for author, n in counts.items() if n >= threshold}


# ---------------------------------------------------------------------------
# Project selection

@dataclass
class ProjectDescriptor:
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
    ) -> "ProjectDescriptor":
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


@dataclass
class SelectionResult:
    accepted: list[ProjectDescriptor]
    exclusions: list[tuple[str, str]]  # (repo_id, rule)


def _size_key(project: ProjectDescriptor, year: int) -> tuple[int, int, str]:
    # "Larger" = more commits in the analysis year; ties by total commits,
    # then repo_id, giving a total order.
    return (
        len(project.commit_hashes_by_year.get(year, frozenset())),
        project.total_commits(),
        project.repo_id,
    )


def select_projects(
    projects: list[ProjectDescriptor],
    year: int,
    min_commits: int = 200,
    shared_threshold: int = 50,
) -> SelectionResult:
    """Apply the selection pipeline for one analysis year.

    In order: drop projects under `min_commits` commits in the year, drop
    forks, drop projects dominated by a strictly larger surviving project
    (more than `shared_threshold` shared hashes in the year), and dedup
    same-name projects keeping the owner with more projects in the input.
    Every excluded project appears exactly once in the report.
    """
    exclusions: list[tuple[str, str]] = []

    survivors = []
    for project in projects:
        if len(project.commit_hashes_by_year.get(year, frozenset())) < min_commits:
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
    ordered = sorted(survivors, key=lambda p: _size_key(p, year), reverse=True)
    retained: list[ProjectDescriptor] = []
    dominated: set[str] = set()
    for project in ordered:
        hashes = project.commit_hashes_by_year.get(year, frozenset())
        for larger in retained:
            larger_hashes = larger.commit_hashes_by_year.get(year, frozenset())
            if len(hashes & larger_hashes) > shared_threshold:
                dominated.add(project.repo_id)
                exclusions.append((project.repo_id, "dominated"))
                break
        else:
            retained.append(project)
    survivors = [p for p in survivors if p.repo_id not in dominated]

    owner_projects = Counter(p.owner for p in projects)
    by_name: dict[str, list[ProjectDescriptor]] = defaultdict(list)
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


def load_project_metadata(path: str | Path) -> dict[str, dict]:
    """Load the ``repo_id,owner,name,is_fork`` project metadata CSV."""
    columns = {
        "repo_id": str,
        "owner": str,
        "name": str,
        "is_fork": lambda v: v.strip().lower() in ("1", "true", "yes"),
    }
    return {
        repo_id: {"owner": owner, "name": name, "is_fork": is_fork}
        for repo_id, owner, name, is_fork in read_csv(path, columns)
    }
