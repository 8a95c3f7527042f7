"""`analyze` and `classify` input handling against verbatim copies of its record-per-commit design.

The references parse every line or chunk into a full record, drop repeated
``(repo, hash)`` pairs through a ``seen`` set, group the kept records by
repo and, under ``--enforce-selection``, describe each project from its
records before ``select_projects`` runs. The program is fed the same
generated logs through ``cli.main``. The commits each analysed project is
handed to ``ingestion.window_by_year`` with, the report's ``skipped_lines``
and ``exclusions``, the ``classify`` lines and every input error must match.
``select_projects`` and ``load_project_metadata`` are the program's own:
``tests/test_selection_reference.py`` pins the first, and the generated
metadata is valid.
"""

import argparse
import contextlib
import io
import json
import random
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from ccp_miner import classifier, ingestion
from ccp_miner.cli import main
from ccp_miner.errors import InputError
from ccp_miner.ingestion import ProjectDescriptor

# ---------------------------------------------------------------------------
# Reference implementations


@dataclass(slots=True)
class ReferenceCommitRecord:
    """One parsed commit: identity, author, UTC calendar year, message, files."""

    repo_id: str
    hash: str
    author_id: str
    year: int
    message: str
    files: tuple[str, ...] = ()
    is_merge: bool = False

    def __post_init__(self):
        if not self.hash:
            raise ValueError("commit hash must be non-empty")


@dataclass
class ReferenceParseResult:
    records: list[ReferenceCommitRecord]
    skipped: int


def _reference_lf(text: str) -> str:
    """``text`` with CRLF and CR line ends read as LF."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _reference_utc_year(text: str) -> int:
    """The UTC year of an ISO-8601 timestamp, taken as UTC without an offset, whatever the TZ."""
    ts = datetime.fromisoformat(text)
    return ts.astimezone(timezone.utc).year if ts.tzinfo is not None else ts.year


def _reference_ndjson_record(line: str) -> ReferenceCommitRecord | None:
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
        return ReferenceCommitRecord(
            repo_id=obj["repo"],
            hash=obj["hash"],
            author_id=obj["author"].strip().lower(),
            year=_reference_utc_year(obj["ts"]),
            message=_reference_lf(obj["msg"]),  # line ends as read_text gives them in a raw log
            files=tuple(files or ()),
            is_merge=merge,
        )
    except (ValueError, OverflowError):  # JSON, timestamp or UTC year bad, or no hash
        return None


def _reference_raw_record(chunk: str, repo_id: str) -> ReferenceCommitRecord | None:
    """One ``git log`` chunk of GIT_LOG_RECIPE, or None when it does not parse."""
    try:
        commit_hash, author, ts_text, parents, message, file_block = chunk.split("\x1f")
        return ReferenceCommitRecord(
            repo_id=repo_id,
            hash=commit_hash.strip(),
            author_id=author.strip().lower(),
            year=_reference_utc_year(ts_text.strip()),
            message=message.rstrip("\n"),
            files=tuple(f.strip() for f in file_block.splitlines() if f.strip()),
            is_merge=len(parents.split()) > 1,
        )
    except (ValueError, OverflowError):  # field count, timestamp or UTC year bad, or no hash
        return None


def _reference_accept(
    records, unit: str, seen: set[tuple[str, str]] | None
) -> ReferenceParseResult:
    """Keep each record whose (repo_id, hash) is not in ``seen`` yet, count the rest.

    Kept records join ``seen``. InputError if no record parses.
    """
    kept: list[ReferenceCommitRecord] = []
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
    return ReferenceParseResult(records=kept, skipped=unparsed + repeated)


def reference_parse_git_log(stream, seen: set[tuple[str, str]] | None = None):
    """Parse newline-delimited JSON commit objects.

    Malformed lines, lines with a field of the wrong type and repeated
    commits are skipped and counted; an input with zero parseable records
    raises InputError. ``seen`` holds the (repo, hash) pairs of input read
    before, whose commits count as repeats here; the commits kept join it.
    """
    return _reference_accept(
        (_reference_ndjson_record(line) for line in stream if line.strip()), "lines", seen
    )


def reference_parse_raw_git_log(text: str, repo_id: str, seen=None):
    """Parse the `git log` export of GIT_LOG_RECIPE; bad chunks and repeated hashes are skipped.

    ``seen`` works as in parse_git_log.
    """
    chunks = (chunk for chunk in text.split("\x1e") if chunk.strip())
    return _reference_accept(
        (_reference_raw_record(chunk, repo_id) for chunk in chunks), "chunks", seen
    )


def reference_read_commits(args: argparse.Namespace) -> ReferenceParseResult:
    """Parse every input file; a commit read from an earlier file is a repeat, as within one."""
    merged = ReferenceParseResult(records=[], skipped=0)
    seen: set[tuple[str, str]] = set()
    for path in args.input:
        try:
            if getattr(args, "input_format", "ndjson") == "git":
                text = ingestion.read_text(path, InputError)
                repo = getattr(args, "repo", None) or Path(path).stem
                result = reference_parse_raw_git_log(text, repo_id=repo, seen=seen)
            else:
                result = reference_parse_git_log(
                    ingestion.read_lines(path, InputError), seen=seen
                )
        except InputError as exc:
            if isinstance(exc.__cause__, (OSError, UnicodeDecodeError)):
                raise  # the reader's error, which names the file already
            raise InputError(f"{path}: {exc}") from exc
        merged.records.extend(result.records)
        merged.skipped += result.skipped
    return merged


def reference_descriptor(
    commits: list[ReferenceCommitRecord],
    year: int,
    owner: str = "",
    name: str = "",
    is_fork: bool = False,
) -> ProjectDescriptor:
    """The descriptor of one project's distinct commits for analysis year ``year``."""
    if not commits:
        raise InputError("cannot build a project descriptor from zero commits")
    repo_id = commits[0].repo_id
    if not owner and "/" in repo_id:
        owner, _, name = repo_id.partition("/")
    return ProjectDescriptor(
        repo_id=repo_id,
        owner=owner or repo_id,
        name=name or repo_id,
        is_fork=is_fork,
        hashes=frozenset(c.hash for c in commits if c.year == year),
        total_commits=len(commits),
    )


def reference_analyze(args: argparse.Namespace, year: int | None, enforce_selection: bool):
    """``cmd_analyze``'s grouping and selection: skipped, exclusions, analysed commits by repo."""
    parsed = reference_read_commits(args)
    by_repo: dict[str, list[ReferenceCommitRecord]] = {}
    for record in parsed.records:
        by_repo.setdefault(record.repo_id, []).append(record)

    exclusions: list[dict] = []
    if enforce_selection:
        metadata = (
            ingestion.load_project_metadata(args.projects) if args.projects else {}
        )
        descriptors = [
            reference_descriptor(commits, year, *metadata.get(repo_id, ()))
            for repo_id, commits in by_repo.items()
        ]
        selection = ingestion.select_projects(descriptors)
        accepted_ids = {p.repo_id for p in selection.accepted}
        exclusions = [{"repo_id": r, "rule": rule} for r, rule in selection.exclusions]
        by_repo = {r: commits for r, commits in by_repo.items() if r in accepted_ids}
    return parsed.skipped, exclusions, [by_repo[r] for r in sorted(by_repo)]


def reference_classify(args: argparse.Namespace, term_model) -> list[str]:
    """The lines ``cmd_classify`` prints."""
    lines = []
    for record in reference_read_commits(args).records:
        verdict = classifier.classify_message(record.message, term_model)
        line = {
            "hash": record.hash,
            "corrective": verdict.corrective,
            "score": verdict.score,
            "fix_hits": verdict.fix_hits,
            "other_fix_hits": verdict.other_fix_hits,
            "negation_hits": verdict.negation_hits,
        }
        lines.append(json.dumps(line, sort_keys=True))
    return lines


# ---------------------------------------------------------------------------
# Generated logs

YEAR = 2019

# Repeated names across owners, and one id without an owner.
REPO_IDS = ["o1/alpha", "o2/alpha", "o3/alpha", "o1/beta", "solo"]

AUTHORS = ["Ann@X.org", " bob@x.org", "cy@x.org", "Dee@x.org ", "ed@x.org"]
MESSAGES = [
    "fix crash on startup",
    "update dependencies to latest versions",
    "Fixed the null pointer bug\r\n\r\nlong body",
    "add tests\rfor parser",
    "not a bug, just cleanup",
    "refactor storage layer",
]
FILES = [None, [], ["a.c"], ["src/b.py", "src/c.h"], ["docs/x.md", "a.c", "t/y.py"]]

# Timestamps of the analysis year, some of them only in UTC, and of the others.
IN_YEAR = ["2019-03-01T10:00:00+00:00", "2019-07-04T12:30:00", "2020-01-01T00:30:00+01:00",
           "2019-12-31T23:30:00+00:30", "2018-12-31T23:00:00-02:00"]
OTHER_YEARS = ["2018-06-01T00:00:00+00:00", "2019-01-01T00:30:00+01:00", "2020-02-02T02:02:02",
               "2019-12-31T23:30:00-01:00"]

# Lines the parser must skip: not an object, each field of a wrong type, a
# missing field, an empty hash, bad and out-of-range timestamps, a second
# document or a space JSON does not allow around one. Then lines it must
# keep: JSON's own spaces around the object, and a key it does not read.
_GOOD = {"repo": "o1/alpha", "hash": "bad", "author": "a@x", "ts": "2019-05-05T00:00:00+00:00",
         "msg": "fix bug", "files": ["a.c"], "merge": False}
_ODD = json.dumps({**_GOOD, "hash": "odd"})
ODD_LINES = [
    _ODD + " x", _ODD + _ODD, "\ufeff" + _ODD, _ODD + "\u00a0", "\x0c" + _ODD, _ODD + "\x0b",
    *(json.dumps({**_GOOD, "hash": f"odd{i}"}).join(ends)
      for i, ends in enumerate([(" \t ", "  "), ("\t", ""), ("", " \t")])),
    json.dumps({**_GOOD, "hash": "odd-extra", "extra": [1, {"x": None}]}),
    "not json", "[]", "1", '"a string"', "null", "true", '{"repo": "o1/alpha"',
    *(
        json.dumps({**_GOOD, field: value})
        for field, value in [
            ("repo", None), ("repo", 7), ("hash", 123), ("hash", ""), ("author", ["a@x"]),
            ("ts", 20190505), ("ts", "yesterday"), ("ts", "0001-01-01T00:00:00+01:00"),
            ("ts", "9999-12-31T23:30:00-01:00"), ("msg", {"text": "fix"}), ("msg", None),
            ("files", "abc"), ("files", {"x": 1}), ("files", ["a.c", 2]), ("files", 0),
            ("files", ""), ("files", False), ("files", {}), ("merge", "false"), ("merge", 0),
            ("merge", None),
        ]
    ),
    *(json.dumps({k: v for k, v in _GOOD.items() if k != field})
      for field in ("repo", "hash", "author", "ts", "msg")),
]

_project = st.fixed_dictionaries(
    {
        "in_year": st.sampled_from([0, 5, 199, 200, 230, 240]),
        "other_years": st.sampled_from([0, 3, 20]),
        "shared": st.sampled_from([0, 50, 51, 120, 120]),
        "metadata": st.none() | st.tuples(
            st.sampled_from(["", "o1", "o2", "o4"]),
            st.sampled_from(["", "alpha", "beta"]),
            st.sampled_from([False, False, True]),
        ),
    }
)


def _commit(rng: random.Random, repo_id: str, commit_hash: str, stamps: list[str]) -> dict:
    commit = {"repo": repo_id, "hash": commit_hash, "author": rng.choice(AUTHORS),
              "ts": rng.choice(stamps), "msg": rng.choice(MESSAGES)}
    files = rng.choice(FILES + ["absent"])
    if files != "absent":
        commit["files"] = files
    merge = rng.choice([None, False, True])
    if merge is not None:
        commit["merge"] = merge
    return commit


def _project_commits(rng: random.Random, repo_id: str, spec: dict) -> list[dict]:
    """One project's commits: ``shared`` cluster hashes and its own, in the year and out."""
    hashes = [(f"s-{j}", IN_YEAR) for j in range(spec["shared"])]
    hashes += [(f"{repo_id}-{j}", IN_YEAR) for j in range(spec["in_year"])]
    hashes += [(f"{repo_id}-old-{j}", OTHER_YEARS) for j in range(spec["other_years"])]
    return [_commit(rng, repo_id, h, stamps) for h, stamps in hashes]


@st.composite
def corpora(draw):
    """Files of NDJSON lines, metadata rows and the global arguments of one run."""
    repo_ids = draw(st.lists(st.sampled_from(REPO_IDS), min_size=1, max_size=5, unique=True))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    commits, metadata = [], []
    for repo_id in repo_ids:
        spec = draw(_project)
        commits += _project_commits(rng, repo_id, spec)
        if spec["metadata"] is not None:
            metadata.append((repo_id, *spec["metadata"]))
    rng.shuffle(commits)
    lines = [json.dumps(c) for c in commits]
    # Repeats: the same line again, and the same (repo, hash) with other content.
    for _ in range(draw(st.integers(0, 6))):
        if lines:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    for _ in range(draw(st.integers(0, 3))):
        if commits:
            again = {**rng.choice(commits), "msg": "fix everything", "ts": IN_YEAR[0]}
            lines.insert(rng.randrange(len(lines) + 1), json.dumps(again))
    for bad in draw(st.lists(st.sampled_from(ODD_LINES), max_size=8)):
        lines.insert(rng.randrange(len(lines) + 1), bad)
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(rng.randrange(len(lines) + 1), "  ")
    cut = draw(st.integers(1, max(1, len(lines) - 1)))
    files = ["\n".join(lines[:cut]), "\n".join(lines[cut:])]
    if draw(st.booleans()):
        files = ["\n".join(lines)]
    mode = draw(st.sampled_from([(), ("--year", str(YEAR)), ("--year", str(YEAR),
                                                               "--enforce-selection")]))
    return files, metadata, mode


def _raw_chunk(commit: dict) -> str:
    parents = "p1 p2" if commit.get("merge") else "p1"
    files = "".join(f"{f}\n" for f in commit.get("files") or ())
    return (
        f"\x1e{commit['hash']}\x1f{commit['author']}\x1f{commit['ts']}\x1f{parents}"
        f"\x1f{commit['msg']}\n\x1f\n{files}\n"
    )


BAD_CHUNKS = [
    "\x1egarbage\n",
    "\x1eh\x1fa@x\x1f2019-01-01T00:00:00+00:00\x1fp\x1fmsg\n",  # a field short
    "\x1e \x1fa@x\x1f2019-01-01T00:00:00+00:00\x1fp\x1fmsg\n\x1f\n",  # empty hash
    "\x1ehb\x1fa@x\x1fyesterday\x1fp\x1fmsg\n\x1f\n",
    "\x1ehc\x1fa@x\x1f0001-01-01T00:00:00+01:00\x1fp\x1fmsg\n\x1f\n",
    "\x1ehd\x1fa@x\x1f9999-12-31T23:30:00-01:00\x1fp\x1fmsg\n\x1f\n",
    "\x1ehe\x1fa@x\x1f2019-01-01T00:00:00+00:00\x1fp\x1fm\x1fsg\n\x1f\n",  # a field long
]


@st.composite
def raw_corpora(draw):
    """Files of raw `git log` chunks of one project, whether --repo names it, and the mode."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    spec = {**draw(_project), "shared": 0}
    commits = _project_commits(rng, "r", spec)
    chunks = [_raw_chunk(c) for c in commits]
    for _ in range(draw(st.integers(0, 4))):
        if chunks:
            chunks.insert(rng.randrange(len(chunks) + 1), rng.choice(chunks))
    for bad in draw(st.lists(st.sampled_from(BAD_CHUNKS), max_size=5)):
        chunks.insert(rng.randrange(len(chunks) + 1), bad)
    cut = draw(st.integers(1, max(1, len(chunks) - 1)))
    files = ["".join(chunks[:cut]), "".join(chunks[cut:])]
    if draw(st.booleans()):
        files = ["".join(chunks)]
    mode = draw(st.sampled_from([(), ("--year", str(YEAR), "--enforce-selection")]))
    return files, draw(st.booleans()), mode


# ---------------------------------------------------------------------------
# Comparison


def _fields(commits) -> list[tuple]:
    return [
        (c.repo_id, c.hash, c.author_id, c.year, c.message, c.files, c.is_merge)
        for c in commits
    ]


def _run(argv: list[str]) -> tuple[int, str, str, list[list[tuple]]]:
    """Exit code, stdout, stderr, and the commits of each ``window_by_year`` call."""
    analysed = []
    original = ingestion.window_by_year

    def capture(commits):
        commits = list(commits)
        analysed.append(_fields(commits))
        return original(commits)

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(ingestion, "window_by_year", capture), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), analysed


def _check(files: list[str], metadata, mode: tuple, extra: tuple, namespace: dict, term_model):
    """Run ``analyze`` and ``classify`` on the files and compare them with the references."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(files):
            path = Path(tmp) / f"log{i}.txt"
            path.write_bytes(text.encode())
            paths.append(str(path))
        projects = None
        if metadata:
            projects = str(Path(tmp) / "projects.csv")
            rows = [f"{r},{o},{n},{'true' if f else 'false'}" for r, o, n, f in metadata]
            Path(projects).write_text("repo_id,owner,name,is_fork\n" + "\n".join(rows) + "\n")
        args = argparse.Namespace(input=paths, projects=projects, **namespace)
        try:
            expected = reference_analyze(
                args, YEAR if mode else None, "--enforce-selection" in mode
            )
            expected_lines = reference_classify(args, term_model)
        except InputError as exc:
            expected = expected_lines = f"input error: {exc}\n"

        after = [*extra, *(["--projects", projects] if projects else [])]
        code, out, err, analysed = _run([*mode, "analyze", *paths, *after])
        if isinstance(expected, str):
            assert (code, err) == (3, expected)
        else:
            assert code == 0, err
            skipped, exclusions, commits = expected
            report = json.loads(out)
            assert report["skipped_lines"] == skipped
            assert report["exclusions"] == exclusions
            assert analysed == [_fields(c) for c in commits]

        code, out, err, _ = _run(["classify", *paths, *extra])
        if isinstance(expected_lines, str):
            assert (code, err) == (3, expected_lines)
        else:
            assert code == 0, err
            assert out.splitlines() == expected_lines


class TestAgainstReference:
    @given(corpora())
    @settings(max_examples=60, deadline=None)
    def test_ndjson(self, term_model, corpus):
        files, metadata, mode = corpus
        _check(files, metadata, mode, (), {"input_format": "ndjson", "repo": None}, term_model)

    @given(raw_corpora())
    @settings(max_examples=40, deadline=None)
    def test_raw_git_log(self, term_model, corpus):
        files, named, mode = corpus
        extra = ("--input-format", "git", *(("--repo", "acme/widget") if named else ()))
        namespace = {"input_format": "git", "repo": "acme/widget" if named else None}
        _check(files, (), mode, extra, namespace, term_model)

    def test_stamps_fall_in_the_years_their_lists_name(self):
        assert {_reference_utc_year(ts) for ts in IN_YEAR} == {YEAR}
        assert YEAR not in {_reference_utc_year(ts) for ts in OTHER_YEARS}
