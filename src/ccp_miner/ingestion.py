"""Input file readers and commit-history ingestion.

Every input file is read by ``read_text``, ``read_lines``, ``read_csv`` or
``read_config``, which raise the caller's error class naming the file.

The canonical commit export format is newline-delimited JSON, one object per
commit with string keys ``repo``, ``hash``, ``author``, ``ts`` (ISO-8601) and
``msg``, and optional ``files`` (a list of strings or null) and ``merge`` (a
boolean). A raw ``git log`` format (record/unit separator based, documented
by the ``export-log-recipe`` subcommand) is also parsed. In both formats the
CRLF and CR line ends inside a message read as LF.
"""

from __future__ import annotations

import csv
import json
import operator
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .errors import CcpMinerError, InputError

# The paper's fixed thresholds.
MIN_COMMITS = 200  # commits in the analysis year for a project to be selected
SHARED_HASHES = 50  # shared hashes above which the smaller project is dominated
INVOLVED_COMMITS = 12  # non-merge commits in a year for an involved developer

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
    return _lf(text)


def _lf(text: str) -> str:
    """``text`` with CRLF and CR line ends read as LF."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_lines(path: str | Path, error: type[CcpMinerError] = InputError) -> Iterator[str]:
    """Yield the lines of ``read_text(path)`` one at a time, line ends kept.

    The file is never held whole, so memory follows what the caller keeps,
    not the size of the file. CR and CRLF read as LF, and errors are those
    of ``read_text``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        read_text(path, error)  # raises, naming the offset of the first bad byte
        raise error(f"{path} is not UTF-8") from exc


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
            wanted = [positions[name] for name in columns]
            width = max(wanted) + 1
            # csv.reader hands out a fresh list per row, so converting in place
            # is safe; a str column is already its own value.
            typed = [(positions[name], fn) for name, fn in columns.items() if fn is not str]
            pick = operator.itemgetter(*wanted)
            if len(wanted) == 1:
                pick = lambda row, one=pick: (one(row),)
            for row in rows:
                if len(row) < width:
                    if not row:
                        continue
                    raise error(f"{path}, line {rows.line_num}: {len(row)} fields, need {width}")
                try:
                    for i, fn in typed:
                        row[i] = fn(row[i])
                except ValueError as exc:
                    raise error(f"{path}, line {rows.line_num}: {exc}") from exc
                yield pick(row)
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


@dataclass(slots=True)
class CommitRecord:
    """One parsed commit: identity, author, timestamp, message, files.

    ``year`` is the UTC calendar year of ``timestamp``, set once at construction.
    """

    repo_id: str
    hash: str
    author_id: str
    timestamp: datetime
    message: str
    files: tuple[str, ...] = ()
    is_merge: bool = False
    year: int = field(init=False)

    def __post_init__(self):
        if not self.hash:
            raise ValueError("commit hash must be non-empty")
        self.year = self.timestamp.astimezone(timezone.utc).year


@dataclass
class ParseResult:
    records: list[CommitRecord]
    skipped: int


def _timestamp(text: str) -> datetime:
    """An ISO-8601 timestamp; one without an offset is taken as UTC, whatever the host's zone."""
    ts = datetime.fromisoformat(text)
    return ts if ts.tzinfo is not None else ts.replace(tzinfo=timezone.utc)


def _ndjson_record(line: str) -> CommitRecord | None:
    """One NDJSON commit, or None when the line is not the object the module describes."""
    try:
        obj = json.loads(line)
        if not isinstance(obj, dict):
            return None
        files = obj.get("files")
        merge = obj.get("merge", False)
        if not (
            isinstance(obj.get("repo"), str) and isinstance(obj.get("hash"), str)
            and isinstance(obj.get("author"), str) and isinstance(obj.get("ts"), str)
            and isinstance(obj.get("msg"), str)
            and isinstance(files, (list, type(None)))
            and all(isinstance(f, str) for f in files or ())
            and isinstance(merge, bool)
        ):
            return None
        return CommitRecord(
            repo_id=obj["repo"],
            hash=obj["hash"],
            author_id=obj["author"].strip().lower(),
            timestamp=_timestamp(obj["ts"]),
            message=_lf(obj["msg"]),  # line ends as read_text gives them in a raw log
            files=tuple(files or ()),
            is_merge=merge,
        )
    except ValueError:  # json.JSONDecodeError, a bad timestamp or an empty hash
        return None


def _raw_record(chunk: str, repo_id: str) -> CommitRecord | None:
    """One ``git log`` chunk of GIT_LOG_RECIPE, or None when it does not parse."""
    try:
        commit_hash, author, ts_text, parents, message, file_block = chunk.split("\x1f")
        return CommitRecord(
            repo_id=repo_id,
            hash=commit_hash.strip(),
            author_id=author.strip().lower(),
            timestamp=_timestamp(ts_text.strip()),
            message=message.rstrip("\n"),
            files=tuple(f.strip() for f in file_block.splitlines() if f.strip()),
            is_merge=len(parents.split()) > 1,
        )
    except ValueError:  # a wrong field count, a bad timestamp or an empty hash
        return None


def _accept(
    records: Iterable[CommitRecord | None], unit: str, seen: set[tuple[str, str]] | None
) -> ParseResult:
    """Keep each record whose (repo_id, hash) is not in ``seen`` yet, count the rest.

    Kept records join ``seen``. InputError if no record parses.
    """
    kept: list[CommitRecord] = []
    unparsed = repeated = 0
    if seen is None:
        seen = set()
    for record in records:
        if record is None:
            unparsed += 1
        elif (record.repo_id, record.hash) in seen:
            repeated += 1
        else:
            seen.add((record.repo_id, record.hash))
            kept.append(record)
    if not kept and not repeated:
        raise InputError(f"no parseable commit records (skipped {unparsed} {unit})")
    return ParseResult(records=kept, skipped=unparsed + repeated)


def parse_git_log(stream: Iterable[str], seen: set[tuple[str, str]] | None = None) -> ParseResult:
    """Parse newline-delimited JSON commit objects.

    Malformed lines, lines with a field of the wrong type and repeated
    commits are skipped and counted; an input with zero parseable records
    raises InputError. ``seen`` holds the (repo, hash) pairs of input read
    before, whose commits count as repeats here; the commits kept join it.
    """
    return _accept((_ndjson_record(line) for line in stream if line.strip()), "lines", seen)


def parse_raw_git_log(
    text: str, repo_id: str, seen: set[tuple[str, str]] | None = None
) -> ParseResult:
    """Parse the `git log` export of GIT_LOG_RECIPE; bad chunks and repeated hashes are skipped.

    ``seen`` works as in parse_git_log.
    """
    chunks = (chunk for chunk in text.split("\x1e") if chunk.strip())
    return _accept((_raw_record(chunk, repo_id) for chunk in chunks), "chunks", seen)


def window_by_year(commits: Iterable[CommitRecord]) -> dict[int, list[CommitRecord]]:
    """Partition commits by UTC calendar year."""
    windows: dict[int, list[CommitRecord]] = defaultdict(list)
    for commit in commits:
        windows[commit.year].append(commit)
    return dict(windows)


def involved_authors(commits: Iterable[CommitRecord]) -> set[str]:
    """Authors with at least INVOLVED_COMMITS non-merge commits in the given set."""
    counts = Counter(c.author_id for c in commits if not c.is_merge)
    return {author for author, n in counts.items() if n >= INVOLVED_COMMITS}


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


def select_projects(projects: list[ProjectDescriptor], year: int) -> SelectionResult:
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
    ordered = sorted(survivors, key=lambda p: _size_key(p, year), reverse=True)
    retained: list[ProjectDescriptor] = []
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
