"""Ingestion unit tests: parsing, windowing, selection, involvement."""

import io
import json
from datetime import datetime

import pytest

from ccp_miner.errors import InputError
from ccp_miner.ingestion import (
    CommitRecord,
    ProjectDescriptor,
    involved_authors,
    parse_git_log,
    parse_raw_git_log,
    select_projects,
    window_by_year,
)

from conftest import FIXTURES


def make_commit(repo="acme/widget", hash="c1", author="ann@example.com",
                ts="2019-06-01T12:00:00+00:00", msg="fix crash",
                files=("a.c",), merge=False) -> CommitRecord:
    return CommitRecord(
        repo_id=repo,
        hash=hash,
        author_id=author,
        timestamp=datetime.fromisoformat(ts),
        message=msg,
        files=tuple(files),
        is_merge=merge,
    )


class TestParseGitLog:
    def test_empty_input_is_an_error(self):
        with pytest.raises(InputError):
            parse_git_log(io.StringIO(""))

    def test_single_record(self):
        line = (
            '{"repo": "r", "hash": "h1", "author": "A@B.com", '
            '"ts": "2019-01-02T03:04:05+00:00", "msg": "fix bug", '
            '"files": ["x.py"], "merge": false}\n'
        )
        result = parse_git_log(io.StringIO(line))
        assert result.skipped == 0
        [record] = result.records
        assert record.hash == "h1"
        assert record.author_id == "a@b.com"  # emails normalized to lowercase
        assert record.year == 2019
        assert record.files == ("x.py",)
        assert not record.is_merge

    def test_malformed_lines_skipped_and_counted(self):
        result = parse_git_log(open(FIXTURES / "log_malformed.ndjson", encoding="utf-8"))
        assert len(result.records) == 4
        assert result.skipped == 1

    def test_round_trip(self):
        with open(FIXTURES / "log_small.ndjson", encoding="utf-8") as fh:
            first = parse_git_log(fh)
        lines = [
            json.dumps({"repo": r.repo_id, "hash": r.hash, "author": r.author_id,
                        "ts": r.timestamp.isoformat(), "msg": r.message,
                        "files": list(r.files), "merge": r.is_merge})
            for r in first.records
        ]
        second = parse_git_log(io.StringIO("\n".join(lines)))
        assert second.records == first.records
        assert second.skipped == 0

    def test_duplicate_hashes_skipped(self):
        line = (
            '{"repo": "r", "hash": "h1", "author": "a@b.com", '
            '"ts": "2019-01-02T03:04:05+00:00", "msg": "m", "files": [], "merge": false}'
        )
        result = parse_git_log(io.StringIO(line + "\n" + line))
        assert len(result.records) == 1
        assert result.skipped == 1


class TestParseRawGitLog:
    def test_separator_format(self):
        text = (
            "\x1eabc123\x1fAnn@Example.com\x1f2019-05-01T10:00:00+00:00\x1fparent1\x1f"
            "fix crash on startup\n\nlonger body here\x1f\nsrc/a.c\nsrc/b.c\n"
            "\x1edef456\x1fbob@example.com\x1f2019-05-02T10:00:00+00:00\x1fp1 p2\x1f"
            "merge branch\x1f\n"
        )
        result = parse_raw_git_log(text, repo_id="acme/widget")
        assert len(result.records) == 2
        first, second = result.records
        assert first.author_id == "ann@example.com"
        assert first.files == ("src/a.c", "src/b.c")
        assert not first.is_merge
        assert second.is_merge

    def test_no_records_is_an_error(self):
        with pytest.raises(InputError):
            parse_raw_git_log("garbage", repo_id="r")


class TestWindowByYear:
    def test_utc_year_boundary(self):
        a = make_commit(hash="h1", ts="2018-12-31T23:59:00+00:00")
        b = make_commit(hash="h2", ts="2019-01-01T00:00:00+00:00")
        windows = window_by_year([a, b])
        assert sorted(windows) == [2018, 2019]

    def test_non_utc_timestamps_normalized(self):
        # 2019-01-01T01:00+02:00 is 2018-12-31T23:00 UTC
        commit = make_commit(ts="2019-01-01T01:00:00+02:00")
        assert window_by_year([commit]) == {2018: [commit]}

    def test_empty_stream(self):
        assert window_by_year([]) == {}

    def test_single_year_bulk(self):
        commits = [make_commit(hash=f"h{i}") for i in range(300)]
        windows = window_by_year(commits)
        assert set(windows) == {2019}
        assert len(windows[2019]) == 300


class TestInvolvedAuthors:
    def test_threshold_boundary(self):
        eleven = [make_commit(hash=f"a{i}", author="low@x") for i in range(11)]
        twelve = [make_commit(hash=f"b{i}", author="high@x") for i in range(12)]
        assert involved_authors(eleven + twelve) == {"high@x"}

    def test_merge_commits_not_counted(self):
        commits = [make_commit(hash=f"m{i}", author="m@x", merge=True) for i in range(20)]
        assert involved_authors(commits) == set()

    def test_empty(self):
        assert involved_authors([]) == set()


def make_project(repo_id, year_hashes, owner=None, name=None, is_fork=False):
    return ProjectDescriptor(
        repo_id=repo_id,
        owner=owner or repo_id.split("/")[0],
        name=name or repo_id.split("/")[-1],
        is_fork=is_fork,
        commit_hashes_by_year={y: frozenset(h) for y, h in year_hashes.items()},
    )


class TestSelectProjects:
    def test_min_commits_rule(self):
        small = make_project("o/small", {2019: {f"h{i}" for i in range(199)}})
        big = make_project("o/big", {2019: {f"g{i}" for i in range(200)}})
        result = select_projects([small, big], year=2019)
        assert [p.repo_id for p in result.accepted] == ["o/big"]
        assert ("o/small", "min_commits") in result.exclusions

    def test_fork_rule(self):
        fork = make_project("o/fork", {2019: {f"h{i}" for i in range(300)}}, is_fork=True)
        result = select_projects([fork], year=2019)
        assert result.accepted == []
        assert result.exclusions == [("o/fork", "fork")]

    def test_dominated_rule(self):
        shared = {f"s{i}" for i in range(51)}
        large = make_project("o/large", {2019: shared | {f"l{i}" for i in range(300)}})
        small = make_project("o/small", {2019: shared | {f"m{i}" for i in range(200)}})
        result = select_projects([large, small], year=2019)
        assert [p.repo_id for p in result.accepted] == ["o/large"]
        assert ("o/small", "dominated") in result.exclusions

    def test_sharing_at_threshold_not_dominated(self):
        shared = {f"s{i}" for i in range(50)}  # exactly 50: not "more than 50"
        large = make_project("o/large", {2019: shared | {f"l{i}" for i in range(300)}})
        small = make_project("o/small", {2019: shared | {f"m{i}" for i in range(200)}})
        result = select_projects([large, small], year=2019)
        assert len(result.accepted) == 2

    def test_duplicate_name_prefers_bigger_owner(self):
        hashes_a = {2019: {f"a{i}" for i in range(250)}}
        hashes_b = {2019: {f"b{i}" for i in range(250)}}
        spark_big_owner = make_project("apache/spark", hashes_a, owner="apache", name="spark")
        spark_small_owner = make_project("solo/spark", hashes_b, owner="solo", name="spark")
        # apache owns 12 projects in the input, solo owns 1
        extras = [
            make_project(f"apache/p{i}", {2019: {f"x{i}-{j}" for j in range(5)}})
            for i in range(11)
        ]
        result = select_projects([spark_big_owner, spark_small_owner] + extras, year=2019)
        accepted = {p.repo_id for p in result.accepted}
        assert "apache/spark" in accepted
        assert ("solo/spark", "duplicate_name") in result.exclusions

    def test_idempotent(self):
        shared = {f"s{i}" for i in range(60)}
        projects = [
            make_project("o/large", {2019: shared | {f"l{i}" for i in range(300)}}),
            make_project("o/mid", {2019: shared | {f"m{i}" for i in range(250)}}),
            make_project("p/other", {2019: {f"o{i}" for i in range(220)}}),
            make_project("q/tiny", {2019: {f"t{i}" for i in range(10)}}),
        ]
        first = select_projects(projects, year=2019)
        second = select_projects(first.accepted, year=2019)
        assert [p.repo_id for p in second.accepted] == [p.repo_id for p in first.accepted]
        assert second.exclusions == []

    def test_largest_of_cluster_survives(self):
        shared = {f"s{i}" for i in range(100)}
        cluster = [
            make_project(f"o/p{i}", {2019: shared | {f"p{i}-{j}" for j in range(200 + i)}})
            for i in range(4)
        ]
        result = select_projects(cluster, year=2019)
        assert [p.repo_id for p in result.accepted] == ["o/p3"]

    def test_each_exclusion_reported_once(self):
        small = make_project("o/small", {2019: set()}, is_fork=True)
        result = select_projects([small], year=2019)
        # removed by the first matching rule only
        assert result.exclusions == [("o/small", "min_commits")]


class TestProjectDescriptor:
    def test_from_commits(self):
        commits = [
            make_commit(hash="h1", ts="2018-06-01T00:00:00+00:00"),
            make_commit(hash="h2", ts="2019-06-01T00:00:00+00:00"),
            make_commit(hash="h3", ts="2019-07-01T00:00:00+00:00"),
        ]
        project = ProjectDescriptor.from_commits(commits)
        assert project.owner == "acme"
        assert project.name == "widget"
        assert project.commit_hashes_by_year == {
            2018: frozenset({"h1"}),
            2019: frozenset({"h2", "h3"}),
        }
        assert project.total_commits() == 3
