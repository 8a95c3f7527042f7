"""Input file readers and commit-history ingestion.

Every input file is read once, front to back, by ``_opened``, which decodes
each block of bytes as it reads it: UTF-8, a leading byte-order mark dropped,
only LF, CRLF or a lone CR ending a line. ``read_csv`` (CSV files) and
``read_records`` (the rest) stream what it yields, so a pipe or a FIFO reads
as a file does. Their errors name no file: each loader reads its file inside
``naming``, which puts the file's quoted path in front of the error.

The canonical commit export format is newline-delimited JSON, one object per
commit with string keys ``repo``, ``hash``, ``author``, ``ts`` (ISO-8601) and
``msg``, and optional ``files`` (a list of strings or null) and ``merge`` (a
boolean). A raw ``git log`` format (record/unit separator based, documented
by the ``export-log-recipe`` subcommand) is also parsed, record by record as
``read_records`` streams it. In both formats the CRLF and CR line ends inside a
message read as LF.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import operator
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import closing, contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

from .errors import CcpMinerError, InputError

# The paper's fixed thresholds.
MIN_COMMITS = 200  # commits in the analysis year for a project to be selected
SHARED_HASHES = 50  # shared hashes above which the smaller project is dominated
INVOLVED_COMMITS = 12  # non-merge commits in a year for an involved developer

# ---------------------------------------------------------------------------
# Readers


def _opened(path: str | Path, sep: str) -> Iterator[str]:
    """The text of ``path``, read once, in pieces that each end just after a ``sep`` but the last.

    Each block of RECORD_BLOCK bytes is decoded as it is read: UTF-8, a
    byte-order mark at the start dropped, CRLF and CR read as LF. An
    unreadable file, or bytes that are not UTF-8, raise InputError; for
    bytes, with the offset of the first bad one.
    """
    utf8 = codecs.getincrementaldecoder("utf-8-sig")()
    decoder = io.IncrementalNewlineDecoder(utf8, translate=True)
    done = 0  # bytes read
    held: list[str] = []
    try:
        with open(path, "rb") as fh:
            while block := fh.read(RECORD_BLOCK):
                done += len(block)
                text = decoder.decode(block)
                end = text.rfind(sep) + 1
                if end:
                    held.append(text[:end])
                    yield "".join(held)
                    held = [text[end:]]
                else:
                    held.append(text)
            held.append(decoder.decode(b"", final=True))
    except OSError as exc:
        raise InputError(f"cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        # The bytes the decoder failed on end at the last byte read.
        offset = done - len(exc.object) + exc.start
        raise InputError(f"not UTF-8: byte {offset} is {exc.object[exc.start]:#04x}") from exc
    except ValueError as exc:  # open() refuses a path with a NUL in it
        raise InputError(f"cannot read: {exc}") from exc
    yield "".join(held)


@contextmanager
def naming(*paths: str | Path, error: type[CcpMinerError]) -> Iterator[None]:
    """Raise any CcpMinerError raised inside as ``error``, with the quoted ``paths`` in front.

    This is the one place an error names its files: ``'<path>': <detail>``,
    several paths joined by `` and ``.
    """
    try:
        yield
    except CcpMinerError as exc:
        quoted = " and ".join(repr(str(p)) for p in paths)
        raise error(f"{quoted}: {exc}") from exc


# Bytes _opened reads at a time.
RECORD_BLOCK = 1 << 16


def read_records(path: str | Path, sep: str) -> Iterator[str]:
    """Yield the ``sep``-separated records of ``path``, read in blocks, never the file whole.

    The text is read as ``_opened`` reads it, and split as ``text.split(sep)``
    splits it. A record that spans many blocks is joined once, so a long
    record, or a file without ``sep``, stays linear.
    """
    with closing(_opened(path, sep)) as pieces:
        for piece in pieces:
            *records, last = piece.split(sep)
            yield from records
        yield last


def read_csv(path: str | Path, columns: Mapping[str, Callable[[str], object]]) -> Iterator[tuple]:
    """Yield the ``columns`` of each row of a CSV file with a header line.

    ``columns`` maps header names to converters; each tuple holds the converted
    values in that order. Blank lines are skipped, as ``csv.DictReader`` does,
    and a CR or CRLF in a quoted field reads as LF. A missing or repeated column,
    a short row or a value its converter rejects raises InputError naming the line.
    """
    with closing(_opened(path, "\n")) as pieces:
        # The lines of each piece, each with its LF, as iterating a text file gives them.
        rows = csv.reader(chain.from_iterable(map(io.StringIO, pieces)))
        try:
            header = next(rows, None)
            if header is None:
                return
            positions = {name: i for i, name in enumerate(header)}
            missing = [name for name in columns if name not in positions]
            if missing:
                raise InputError(f"missing column(s) {', '.join(missing)}")
            repeated = [name for name in columns if header.count(name) > 1]
            if repeated:
                raise InputError(f"repeated column(s) {', '.join(repeated)}")
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
                    raise InputError(f"line {rows.line_num}: {len(row)} fields, need {width}")
                try:
                    for i, fn in typed:
                        row[i] = fn(row[i])
                except ValueError as exc:
                    raise InputError(f"line {rows.line_num}: {exc}") from exc
                yield pick(row)
        except csv.Error as exc:
            raise InputError(f"line {rows.line_num}: {exc}") from exc


def read_config(path: str | Path, keys: Iterable[str]) -> dict[str, str]:
    """Read a ``key=value`` file: ``#`` comments, blank lines, one pair a line.

    Dashes in keys read as underscores. A line without ``=``, a key not in
    ``keys`` or a key given twice raises InputError naming the line.
    """
    known = set(keys)
    values = {}
    for lineno, raw in enumerate(read_records(path, "\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InputError(f"line {lineno}: expected key=value, got {line!r}")
        key = key.strip().replace("-", "_")
        if key not in known:
            raise InputError(f"line {lineno}: unknown key {key!r}; known: {sorted(known)}")
        if key in values:
            raise InputError(f"line {lineno}: key {key!r} is given twice")
        values[key] = value.strip()
    return values


GIT_LOG_RECIPE = r"""Export a repository's history for ccp-miner:

    git log --branches --tags --remotes=origin --no-color \
        --pretty=format:'%x1e%H%x1f%ae%x1f%aI%x1f%P%x1f%B%x1f' \
        --name-only > history.gitlog

Records are separated by \x1e, fields by \x1f:
hash, author email, ISO-8601 author date, parent hashes, raw message body.
The file list produced by --name-only follows the last field.
A commit with more than one parent is flagged as a merge.

Feed the file to `ccp-miner classify` or `ccp-miner analyze` with
`--input-format git --repo <name>`.
"""


# One parsed commit, from the parser to the report: (hash, author_id, UTC
# year, message, files, is_merge). A plain tuple of str, int, bool and a tuple
# of str, so the cyclic GC stops tracking it once it has survived a collection
# (one with files, once its files tuple has), and later collections do not
# walk the commits kept.
Commit = tuple[str, str, int, str, tuple[str, ...], bool]

# Every kept commit, by repo_id and then hash, each repo's in input order.
CommitTable = dict[str, dict[str, Commit]]


@dataclass
class ParseResult:
    records: list[Commit]  # the commits this parse kept, in input order
    skipped: int


def _utc_year(text: str) -> int:
    """The UTC year of an ISO-8601 timestamp, taken as UTC without an offset, whatever the TZ."""
    ts = datetime.fromisoformat(text)
    return ts.astimezone(timezone.utc).year if ts.tzinfo is not None else ts.year


# The whitespace that json.loads allows around a document.
_JSON_SPACE = " \t\n\r"
_decode_json = json.JSONDecoder().raw_decode


def _lf(text: str) -> str:
    """``text`` with CRLF and CR line ends read as LF, as ``_opened`` decodes a file."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _ndjson_record(line: str) -> tuple[str, Commit] | None:
    """One NDJSON commit and its repo, or None when the line is not the object the module describes."""
    try:
        # json.loads(line), without its two whitespace scans.
        text = line.strip(_JSON_SPACE)
        obj, end = _decode_json(text)
        if end != len(text):
            return None
        repo, commit_hash, author, ts, msg = (
            obj["repo"], obj["hash"], obj["author"], obj["ts"], obj["msg"]
        )
        files = obj.get("files")
        merge = obj.get("merge", False)
        if not (
            type(repo) is str and type(commit_hash) is str and type(author) is str
            and type(ts) is str and type(msg) is str and type(merge) is bool and commit_hash
        ):
            return None
        if files is None:
            files = ()
        elif type(files) is list:
            files = tuple(files)
            "".join(files)  # TypeError unless every file is a str
        else:
            return None
        # Line ends in the message as _opened reads them in a raw log.
        return repo, (commit_hash, author.strip().lower(), _utc_year(ts), _lf(msg), files, merge)
    # Not JSON, not an object or a field missing; or a bad timestamp or UTC year.
    except (ValueError, KeyError, TypeError, OverflowError):
        return None


def _raw_record(
    chunk: str, repo_id: str, share: Callable[[str, str], str]
) -> tuple[str, Commit] | None:
    """One ``git log`` chunk of GIT_LOG_RECIPE and ``repo_id``, or None when it does not parse.

    Author and path strings go through ``share``, a ``dict.setdefault`` that
    keeps one copy of each.
    """
    try:
        commit_hash, author, ts_text, parents, message, file_block = chunk.split("\x1f")
        commit_hash = commit_hash.strip()
        if not commit_hash:
            return None
        author = author.strip().lower()
        paths = list(filter(None, map(str.strip, file_block.split("\n"))))
        return repo_id, (
            commit_hash,
            share(author, author),
            _utc_year(ts_text.strip()),
            message.rstrip("\n"),
            tuple(map(share, paths, paths)),
            len(parents.split()) > 1,
        )
    except (ValueError, OverflowError):  # field count, timestamp or UTC year bad
        return None


def _accept(
    items: Iterable[str], record: Callable[[str], tuple[str, Commit] | None], unit: str,
    by_repo: CommitTable | None,
) -> ParseResult:
    """Parse each non-blank item with ``record``; keep each (repo, commit) new to ``by_repo``.

    Kept commits join ``by_repo``; the rest are counted. InputError if no commit parses.
    """
    kept: list[Commit] = []
    unparsed = repeated = 0
    if by_repo is None:
        by_repo = {}
    for item in items:
        if not item.strip():
            continue
        parsed = record(item)
        if parsed is None:
            unparsed += 1
            continue
        repo, commit = parsed
        commits = by_repo.get(repo)
        if commits is None:
            commits = by_repo[repo] = {}
        if commit[0] in commits:
            repeated += 1
        else:
            commits[commit[0]] = commit
            kept.append(commit)
    if not kept and not repeated:
        raise InputError(f"no parseable commit records (skipped {unparsed} {unit})")
    return ParseResult(records=kept, skipped=unparsed + repeated)


def parse_git_log(lines: Iterable[str], by_repo: CommitTable | None = None) -> ParseResult:
    """Parse newline-delimited JSON commit objects, one per line; blank lines are passed over.

    Malformed lines, lines with a field of the wrong type and repeated
    commits are skipped and counted; an input with zero parseable records
    raises InputError. ``by_repo`` holds the commits of input read before,
    which count as repeats here; the commits kept join it.
    """
    return _accept(lines, _ndjson_record, "lines", by_repo)


def parse_raw_git_log(
    records: Iterable[str], repo_id: str, by_repo: CommitTable | None = None
) -> ParseResult:
    """Parse the `git log` export of GIT_LOG_RECIPE from its ``\\x1e``-separated records.

    ``records`` is what ``read_records(path, "\\x1e")`` yields. Blank records
    are passed over; bad chunks and repeated hashes are skipped and counted.
    Each author and path string is kept once per call. ``by_repo`` works as
    in parse_git_log.
    """
    share = {}.setdefault
    return _accept(records, lambda chunk: _raw_record(chunk, repo_id, share), "chunks", by_repo)


def window_by_year(commits: Iterable[Commit]) -> dict[int, list[Commit]]:
    """Partition commits by UTC calendar year."""
    windows: dict[int, list[Commit]] = defaultdict(list)
    for commit in commits:
        _, _, year, _, _, _ = commit
        windows[year].append(commit)
    return dict(windows)


def involved_authors(commits: Iterable[Commit]) -> dict[str, int]:
    """Each author with at least INVOLVED_COMMITS non-merge commits here, with that count."""
    counts = Counter(author for _, author, _, _, _, merge in commits if not merge)
    return {author: n for author, n in counts.items() if n >= INVOLVED_COMMITS}


# ---------------------------------------------------------------------------
# Project selection

@dataclass
class ProjectDescriptor:
    """What selection reads of a project: its hashes in the analysis year and its size."""

    repo_id: str
    owner: str
    name: str
    is_fork: bool
    hashes: frozenset[str]  # of the analysis year's commits
    total_commits: int  # in all years

    @classmethod
    def from_commits(
        cls,
        repo_id: str,
        commits: Mapping[str, Commit],
        year: int,
        owner: str = "",
        name: str = "",
        is_fork: bool = False,
    ) -> "ProjectDescriptor":
        """The descriptor of project ``repo_id`` for analysis year ``year``, from its commits by hash."""
        if not owner and "/" in repo_id:
            owner, _, name = repo_id.partition("/")
        return cls(
            repo_id=repo_id,
            owner=owner or repo_id,
            name=name or repo_id,
            is_fork=is_fork,
            hashes=frozenset(h for h, commit in commits.items() if commit[2] == year),
            total_commits=len(commits),
        )


@dataclass
class SelectionResult:
    accepted: list[ProjectDescriptor]
    exclusions: list[tuple[str, str]]  # (repo_id, rule)


def _size_key(project: ProjectDescriptor) -> tuple[int, int, str]:
    # "Larger" = more commits in the analysis year; ties by total commits,
    # then repo_id, giving a total order.
    return (len(project.hashes), project.total_commits, project.repo_id)


def select_projects(projects: list[ProjectDescriptor]) -> SelectionResult:
    """Apply the selection pipeline to projects described for one analysis year.

    In order: drop projects under MIN_COMMITS commits in the year, drop
    forks, drop projects dominated by a strictly larger surviving project
    (more than SHARED_HASHES shared hashes in the year), and dedup
    same-name projects keeping the owner with more projects that pass the
    first two rules. Every excluded project appears exactly once in the report.
    """
    exclusions: list[tuple[str, str]] = []

    survivors = []
    for project in projects:
        if len(project.hashes) < MIN_COMMITS:
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
    # Counted here, so adding a small project or a fork changes no other outcome.
    owner_projects = Counter(p.owner for p in survivors)

    # Dominance: walk largest-first so the largest project of any
    # shared-commit cluster is always retained. ``holders`` maps each hash of
    # a retained project to the places in ``ordered`` of the retained projects
    # holding it, so a project's shared hashes are counted per holder without
    # comparing it with every retained project. Its values are tuples of ints,
    # which the cyclic GC stops tracking; most are one shared ``(place,)``.
    ordered = sorted(survivors, key=_size_key, reverse=True)
    holders: dict[str, tuple[int, ...]] = {}
    dominated: set[str] = set()
    for place, project in enumerate(ordered):
        common = project.hashes & holders.keys()
        shared = Counter(chain.from_iterable(map(holders.__getitem__, common)))
        if any(n > SHARED_HASHES for n in shared.values()):
            dominated.add(project.repo_id)
            exclusions.append((project.repo_id, "dominated"))
        else:
            held = {commit_hash: holders[commit_hash] + (place,) for commit_hash in common}
            holders.update(dict.fromkeys(project.hashes, (place,)))
            holders.update(held)
    survivors = [p for p in survivors if p.repo_id not in dominated]

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


_FLAG_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def read_flag(text: str, name: str = "flag") -> bool:
    """A yes/no value: ``1``, ``0``, ``true``, ``false``, ``yes`` or ``no``, in any case.

    Spaces around it are ignored; any other text raises ValueError naming ``name``.
    """
    try:
        return _FLAG_VALUES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"{name} {text!r} is not one of 1/0/true/false/yes/no") from None


def load_project_metadata(path: str | Path) -> dict[str, tuple[str, str, bool]]:
    """Load the ``repo_id,owner,name,is_fork`` project metadata CSV as repo_id -> the rest.

    A repeated repo_id, an empty owner or name, or an ``is_fork`` other than
    1/0/true/false/yes/no (any case) raises InputError naming the file and line.
    """
    seen: set[str] = set()

    def unique(repo_id: str) -> str:
        if repo_id in seen:
            raise ValueError(f"repo_id {repo_id!r} is listed twice")
        seen.add(repo_id)
        return repo_id

    def given(text: str, column: str) -> str:
        if not text:
            raise ValueError(f"{column} is empty")
        return text

    columns = {
        "repo_id": unique, "owner": lambda t: given(t, "owner"),
        "name": lambda t: given(t, "name"), "is_fork": lambda t: read_flag(t, "is_fork"),
    }
    with naming(path, error=InputError):
        return {row[0]: row[1:] for row in read_csv(path, columns)}
