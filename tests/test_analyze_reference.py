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
import math
import random
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from statistics import fmean
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from ccp_miner import classifier, estimator, ingestion
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
            message=_reference_lf(obj["msg"]),  # line ends as a raw log reads them
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
            # The generated files are UTF-8, so no reader error is compared here.
            with open(path, encoding="utf-8") as fh:
                if getattr(args, "input_format", "ndjson") == "git":
                    text = fh.read()
                    repo = getattr(args, "repo", None) or Path(path).stem
                    result = reference_parse_raw_git_log(text, repo_id=repo, seen=seen)
                else:
                    result = reference_parse_git_log(fh, seen=seen)
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


# The per-year metrics of ``analyze``: ``_project_year_stats``, the year loop
# of ``cmd_analyze`` and the ``analytics`` functions they call, as they were
# before the loop kept a running author union, counted involved authors only
# for the years it reports and shared one capped list between both couplings.
# Only names change: ``analytics.`` and ``ingestion.`` go, and two locals that
# would shadow a copy get a trailing underscore. ``classify_message``,
# ``estimate_ccp``, ``rank_on_scale`` and the diagnostics are the program's own.

INVOLVED_COMMITS = 12  # non-merge commits in a year for an involved developer
CAP_QUANTILE = 0.99  # quantile at which distributions are capped
SPEED_CAP = 500  # most commits one developer counts for in developer speed
MIN_NEW_DEVELOPERS = 10  # new developers below which onboarding is not reported

DIAGNOSTIC_REFERENCE = {
    "english_hit_rate_below_zero_median": 0.16,
    "english_hit_rate_valid_median": 0.54,
    "terse_median_chars": 27,
    "terse_p90_chars": 81,
}


def window_by_year(commits):
    """Partition commits by UTC calendar year."""
    windows = defaultdict(list)
    for commit in commits:
        windows[commit.year].append(commit)
    return dict(windows)


def involved_authors(commits) -> set[str]:
    """Authors with at least INVOLVED_COMMITS non-merge commits in the given set."""
    counts = Counter(c.author_id for c in commits if not c.is_merge)
    return {author for author, n in counts.items() if n >= INVOLVED_COMMITS}


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


def _capped_sizes(commits, verdicts):
    """Non-corrective commits that carry files, each with its capped file count."""
    if len(commits) != len(verdicts):
        raise ValueError("commits and verdicts must be aligned")
    kept = [c for c, v in zip(commits, verdicts) if not v.corrective and c.files]
    if not kept:
        return []
    return list(zip(kept, winsorize([float(len(c.files)) for c in kept])))


def coupling(commits, verdicts) -> float | None:
    """Mean files per non-corrective commit, winsorized at CAP_QUANTILE.

    Corrective commits are excluded because bug fixes touch systematically
    fewer files and would distort the comparison. None when no
    non-corrective commit carries files.
    """
    capped = _capped_sizes(commits, verdicts)
    if not capped:
        return None
    return fmean(size for _, size in capped)


def coupling_by_file(commits, verdicts) -> float | None:
    """Per-file variant: mean over files of the mean size of their commits."""
    sizes_by_file: dict[str, list[float]] = {}
    for commit, size in _capped_sizes(commits, verdicts):
        for path in commit.files:
            sizes_by_file.setdefault(path, []).append(size)
    if not sizes_by_file:
        return None
    return fmean(fmean(sizes) for sizes in sizes_by_file.values())


def developer_speed(commits, involved: set[str]) -> float | None:
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


def _ccp_as_dict(ccp) -> dict:
    """``CcpEstimate.as_dict``."""
    return {
        "n": ccp.n,
        "k": ccp.k,
        "hit_rate": ccp.hit_rate,
        "ccp_raw": ccp.ccp_raw,
        "status": ccp.status.value,
    }


def _band_as_dict(band) -> dict:
    """``PercentileBand.as_dict``."""
    return {
        "lower_percentile": band.lower_percentile,
        "upper_percentile": band.upper_percentile,
        "label": band.label,
    }


@dataclass
class ProjectYearStats:
    """Metric bundle for one project in one calendar year."""

    repo_id: str
    year: int
    n_commits: int
    k_hits: int
    ccp: object
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
            "ccp": _ccp_as_dict(self.ccp),
            "coupling": self.coupling,
            "coupling_by_file": self.coupling_by_file,
            "speed": self.speed,
            "retention": self.retention,
            "onboarding": self.onboarding,
            "dominant_language": self.dominant_language,
            "avg_file_kb": self.avg_file_kb,
        }

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


def reference_project_year_stats(repo_id, year, commits, by_year, config, language, avg_kb):
    verdicts = [classifier.classify_message(c.message, config.term_model) for c in commits]
    k = sum(1 for v in verdicts if v.corrective)
    ccp = estimator.estimate_ccp(k=k, n=len(commits), perf=config.performance)
    involved = involved_authors(commits)
    speed = developer_speed(commits, involved)

    retention_ = onboarding_ = None
    next_commits = by_year.get(year + 1)
    if next_commits is not None:
        next_authors = {c.author_id for c in next_commits}
        retention_ = retention(involved, next_authors)
        prior_authors = {
            c.author_id for y, cs in by_year.items() if y <= year for c in cs
        }
        next_involved = involved_authors(next_commits)
        onboarding_ = onboarding(prior_authors, next_authors, next_involved)

    return ProjectYearStats(
        repo_id=repo_id,
        year=year,
        n_commits=len(commits),
        k_hits=k,
        ccp=ccp,
        coupling=coupling(commits, verdicts),
        coupling_by_file=coupling_by_file(commits, verdicts),
        speed=speed,
        retention=retention_,
        onboarding=onboarding_,
        dominant_language=language,
        avg_file_kb=avg_kb,
    )


def reference_year_reports(args: argparse.Namespace, config, language=None, avg_kb=None):
    """The ``projects`` entries and the ``rows`` of ``analyze`` without selection."""
    by_repo: dict[str, list[ReferenceCommitRecord]] = {}
    for record in reference_read_commits(args).records:
        by_repo.setdefault(record.repo_id, []).append(record)
    rows = []
    reports = []
    for repo_id in sorted(by_repo):
        by_year = window_by_year(by_repo[repo_id])
        years = [config.year] if config.year is not None else sorted(by_year)
        for year in years:
            commits = by_year.get(year)
            if not commits:
                continue
            stat = reference_project_year_stats(
                repo_id, year, commits, by_year, config, language, avg_kb
            )
            entry = stat.as_dict()
            if stat.ccp.valid:
                entry["band"] = _band_as_dict(
                    estimator.rank_on_scale(stat.ccp.ccp_raw, config.table)
                )
            else:
                messages = [c.message for c in commits]
                median, p90 = classifier.terse_message_profile(messages)
                entry["diagnostics"] = {
                    "english_hit_rate": classifier.english_hit_rate(
                        messages, config.english_model
                    ),
                    "median_message_chars": median,
                    "p90_message_chars": p90,
                    "reference": DIAGNOSTIC_REFERENCE,
                }
            reports.append(entry)
            rows.append(stat.as_flat_dict())
    return reports, rows


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


def _fields(commits: list[ReferenceCommitRecord]) -> list[tuple]:
    """The records as the program's commit tuples, which name no repo."""
    return [(c.hash, c.author_id, c.year, c.message, c.files, c.is_merge) for c in commits]


def _run(argv: list[str]) -> tuple[int, str, str, list[list[tuple]]]:
    """Exit code, stdout, stderr, and the commits of each ``window_by_year`` call."""
    analysed = []
    original = ingestion.window_by_year

    def capture(commits):
        commits = list(commits)
        analysed.append(commits)
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

        selecting = projects and "--enforce-selection" in mode  # else --projects is refused
        after = [*extra, *(["--projects", projects] if selecting else [])]
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


# ---------------------------------------------------------------------------
# Per-year metrics: multi-year logs against the reference, and relations

# Authors of the generated histories; each year draws some of them, so an
# author may leave and come back, and a year may bring ten or more new ones.
DEVELOPERS = [f"dev{i}@x.org" for i in range(40)]
# Non-merge commits of one author in one year: around INVOLVED_COMMITS, and
# for at most one author a year, around SPEED_CAP.
SMALL_COUNTS = [1, 2, 11, 12, 13]
LARGE_COUNTS = [0, 499, 500, 501]
PATHS = [f"src/m{i}.c" for i in range(12)] + ["README", "docs/a.md"]
FIX_MESSAGES = ["fix crash on startup", "Fixed the null pointer bug\n\nlong body"]
OTHER_MESSAGES = ["update dependencies to latest versions", "add tests", "refactor storage layer"]


def _files(rng: random.Random):
    """No files (three ways), a few, or now and then many, so the cap at CAP_QUANTILE bites."""
    kind = rng.randrange(10)
    if kind < 3:
        return [None, [], "absent"][kind]
    return rng.sample(PATHS, rng.randint(1, 4) if kind < 9 else len(PATHS))


def _commit_of(rng: random.Random, repo: str, commit_hash: str, author: str, year: int,
               fix: bool, merge: bool) -> dict:
    commit = {
        "repo": repo, "hash": commit_hash, "author": author,
        "ts": f"{year}-{rng.randint(1, 12):02d}-15T12:00:00+00:00",
        "msg": rng.choice(FIX_MESSAGES if fix else OTHER_MESSAGES), "merge": merge,
    }
    files = _files(rng)
    if files != "absent":
        commit["files"] = files
    return commit


def _history(rng: random.Random) -> list[dict]:
    """The commits of one or two projects over one to four of six years, gaps allowed."""
    commits = []
    for repo in rng.sample(["o/a", "o/b"], rng.randint(1, 2)):
        for year in rng.sample(range(2010, 2016), rng.randint(1, 4)):
            authors = rng.sample(DEVELOPERS, rng.choice([1, 3, 12, 16]))
            counts = [rng.choice(SMALL_COUNTS) for _ in authors]
            counts[0] = rng.choice(LARGE_COUNTS) or counts[0]
            fix_share = rng.choice([0.0, 0.2, 1.0])  # BelowZero, Valid and AboveOne years
            for author, count in zip(authors, counts):
                merges = rng.choice([0, 0, 1, 2])
                commits += [
                    _commit_of(rng, repo, f"{repo}-{year}-{author}-{i}", author, year,
                               rng.random() < fix_share, i >= count)
                    for i in range(count + merges)
                ]
    rng.shuffle(commits)
    return commits


HISTORIES = st.integers(0, 2**32 - 1).map(lambda seed: _history(random.Random(seed)))


def _cases(commits: list[dict]) -> set[str]:
    """The boundary cases of the per-year metrics that ``commits`` reach."""
    authors: dict[tuple[str, int], Counter] = defaultdict(Counter)
    for c in commits:
        authors[c["repo"], int(c["ts"][:4])][c["author"]] += not c["merge"]
    cases = set()
    for (repo, year), counts in authors.items():
        later = sorted(y for r, y in authors if r == repo and y > year)
        earlier = set().union(*(a for (r, y), a in authors.items() if r == repo and y <= year))
        cases |= {f"{n} commits" for n in counts.values() if n in (11, 12, 13, 500, 501)}
        if later and later[0] > year + 1:
            cases.add("gap year")
        if year + 1 in later and len(set(authors[repo, year + 1]) - earlier) >= 10:
            cases.add("ten new authors")
        for author in counts:
            gone = [y for y in later if author not in authors[repo, y]]
            if gone and any(author in authors[repo, y] for y in later if y > gone[0]):
                cases.add("author leaves and comes back")
    if any(c["merge"] for c in commits):
        cases.add("merges")
    if any(not c.get("files") for c in commits):
        cases.add("commits with no files")
    return cases


def _write(tmp: str, commits: list[dict]) -> str:
    path = Path(tmp) / f"log{len(list(Path(tmp).iterdir()))}.ndjson"
    path.write_bytes("".join(json.dumps(c) + "\n" for c in commits).encode())
    return str(path)


def _entries(path: str, *flags: str) -> tuple[list, list]:
    """The ``projects`` entries and ``rows`` of ``analyze`` on the log at ``path``."""
    code, out, err, _ = _run([*flags, "analyze", path])
    assert code == 0, err
    report = json.loads(out)
    return report["projects"], report["rows"]


def _of_years(entries: tuple[list, list], keep) -> tuple[list, list]:
    """The entries and rows whose year ``keep`` accepts."""
    return tuple([e for e in part if keep(e["year"])] for part in entries)


class TestYearMetricsAgainstReference:
    @given(HISTORIES, st.data())
    @settings(max_examples=40, deadline=None)
    def test_whole_entries(self, term_model, english_model, default_perf, distribution_table,
                           commits, data):
        years = sorted({int(c["ts"][:4]) for c in commits})
        year = data.draw(st.sampled_from([None, *years, years[-1] + 1]))
        config = argparse.Namespace(
            term_model=term_model, english_model=english_model, performance=default_perf,
            table=distribution_table, year=year,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = _write(tmp, commits)
            entries, rows = _entries(path, *(("--year", str(year)) if year else ()))
            args = argparse.Namespace(input=[path], input_format="ndjson", repo=None)
            expected = reference_year_reports(args, config)
        assert [entries, rows] == json.loads(json.dumps(expected))

    def test_histories_reach_every_boundary(self):
        reached = set().union(*(_cases(_history(random.Random(seed))) for seed in range(60)))
        assert reached == {
            "11 commits", "12 commits", "13 commits", "500 commits", "501 commits", "gap year",
            "ten new authors", "author leaves and comes back", "merges", "commits with no files",
        }


class TestYearRelations:
    """Relations between ``analyze`` reports on related logs, without selection."""

    @given(HISTORIES)
    @settings(max_examples=10, deadline=None)
    def test_a_years_entries_are_the_same_alone_and_among_all_years(self, commits):
        with tempfile.TemporaryDirectory() as tmp:
            path = _write(tmp, commits)
            every = _entries(path)
            for year in sorted({e["year"] for e in every[0]}):
                assert _entries(path, "--year", str(year)) == _of_years(every, year.__eq__)

    @given(HISTORIES, st.data())
    @settings(max_examples=15, deadline=None)
    def test_commits_two_years_on_change_no_earlier_year(self, commits, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        year = data.draw(st.sampled_from(sorted({int(c["ts"][:4]) for c in commits})))
        later = [
            _commit_of(rng, rng.choice(["o/a", "o/b", "o/c"]), f"late-{i}",
                       rng.choice(DEVELOPERS), year + rng.randint(2, 4), rng.random() < 0.3,
                       rng.random() < 0.1)
            for i in range(data.draw(st.sampled_from([1, 12, 40])))
        ]
        grown = commits + later
        rng.shuffle(grown)
        with tempfile.TemporaryDirectory() as tmp:
            before = _of_years(_entries(_write(tmp, commits)), lambda y: y <= year)
            after = _of_years(_entries(_write(tmp, grown)), lambda y: y <= year)
        assert after == before

    @given(HISTORIES, st.sampled_from(["author", "files"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_renaming_authors_or_paths_one_to_one_changes_no_entry(self, commits, field, seed):
        rng = random.Random(seed)
        if field == "author":
            names = sorted({c["author"] for c in commits})
            fresh = [f"renamed{i}@y.org" for i in range(len(names))]
        else:
            names = sorted({f for c in commits for f in c.get("files") or ()})
            fresh = [f"renamed/{i}.c" for i in range(len(names))]
        # Old names swap among themselves as well as taking fresh ones.
        rename = dict(zip(names, rng.sample(names + fresh, len(names))))
        renamed = [
            {**c, "author": rename[c["author"]]} if field == "author"
            else {**c, "files": [rename[f] for f in c["files"]]} if c.get("files") else c
            for c in commits
        ]
        with tempfile.TemporaryDirectory() as tmp:
            assert _entries(_write(tmp, renamed)) == _entries(_write(tmp, commits))
