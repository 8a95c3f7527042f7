"""Ingestion unit tests: parsing, windowing, selection, involvement."""

import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ccp_miner.errors import InputError
from ccp_miner.ingestion import (
    CommitRecord,
    ProjectDescriptor,
    _utc_year,
    involved_authors,
    parse_git_log,
    parse_raw_git_log,
    read_csv,
    read_lines,
    read_text,
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
        year=_utc_year(ts),
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
        with open(FIXTURES / "log_malformed.ndjson", encoding="utf-8") as fh:
            result = parse_git_log(fh)
        assert len(result.records) == 4
        assert result.skipped == 1

    def test_round_trip(self):
        with open(FIXTURES / "log_small.ndjson", encoding="utf-8") as fh:
            first = parse_git_log(fh)
        lines = [
            json.dumps({"repo": r.repo_id, "hash": r.hash, "author": r.author_id,
                        "ts": f"{r.year}-07-01T00:00:00+00:00", "msg": r.message,
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

    def test_commits_seen_in_earlier_input_are_repeats(self):
        lines = [
            json.dumps({"repo": "r", "hash": h, "author": "a@b.com",
                        "ts": "2019-01-02T03:04:05+00:00", "msg": "m"})
            for h in ("h1", "h2", "h3")
        ]
        seen = set()
        first = parse_git_log(lines[:2], seen=seen)
        second = parse_git_log(lines[1:], seen=seen)
        again = parse_git_log(lines[:2], seen=seen)  # only repeats: not an error
        assert ([r.hash for r in first.records], first.skipped) == (["h1", "h2"], 0)
        assert ([r.hash for r in second.records], second.skipped) == (["h3"], 1)
        assert (again.records, again.skipped) == ([], 2)
        assert seen == {("r", "h1"), ("r", "h2"), ("r", "h3")}

    def test_line_ends_in_a_message_read_as_lf_as_in_a_raw_log(self):
        line = json.dumps({"repo": "r", "hash": "h1", "author": "a@b.com",
                           "ts": "2019-01-02T03:04:05+00:00", "msg": "fix\r\nbody\rend"})
        raw = "\x1eh1\x1fa@b.com\x1f2019-01-02T03:04:05+00:00\x1fp\x1ffix\r\nbody\rend\x1f\n"
        [record] = parse_git_log(io.StringIO(line)).records
        assert record.message == "fix\nbody\nend"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.gitlog"
            path.write_bytes(raw.encode())
            [raw_record] = parse_raw_git_log(read_text(path), repo_id="r").records
        assert raw_record.message == record.message

    @pytest.mark.parametrize(
        "field,value",
        [("repo", None), ("hash", 123), ("author", ["ann@x"]), ("msg", {"text": "fix"}),
         ("files", "abc"), ("files", {"x": 1}), ("files", ["a.c", 2]),
         ("merge", "false"), ("merge", 0), ("merge", None)],
    )
    def test_field_of_the_wrong_type_is_skipped(self, field, value):
        good = {"repo": "r", "hash": "h1", "author": "a@b.com",
                "ts": "2019-01-02T03:04:05+00:00", "msg": "m", "files": ["a.c"], "merge": False}
        bad = {**good, "hash": "h2", field: value}
        result = parse_git_log(io.StringIO(json.dumps(good) + "\n" + json.dumps(bad)))
        assert [r.hash for r in result.records] == ["h1"]
        assert result.skipped == 1


class TestReadLines:
    # With ``at`` one, three or five bytes before a multiple of the 8 KiB read
    # chunk, the CRLF, the two-byte character or the lone CR before a CR
    # straddles that multiple.
    @pytest.mark.parametrize("at", [8191, 8189, 8187, 65535, 65533, 65531])
    def test_lines_of_read_text_across_read_buffers(self, tmp_path, at):
        head = ("x" * 99 + "\n") * (at // 100) + "y" * (at % 100)
        path = tmp_path / "log.ndjson"
        path.write_bytes((head + "\r\n\u00e9\r\rz\r\nlast").encode())
        lines = list(read_lines(path))
        assert "".join(lines) == read_text(path)
        assert [line.rstrip("\n") for line in lines] == read_text(path).split("\n")


# Field text with the characters that force quoting: commas, quotes, newlines.
FIELD_TEXT = st.text(alphabet='ab ,"\n\u00e9', max_size=6)
FIELD_VALUES = {
    str: FIELD_TEXT,
    int: st.integers(-(10**12), 10**12).map(str),
    float: st.floats(allow_nan=False).map(repr),
}


@st.composite
def csv_tables(draw):
    """A header naming the wanted columns among extra ones, its rows and how it is written."""
    kinds = draw(st.lists(st.sampled_from([str, int, float]), min_size=1, max_size=4))
    wanted = {f"col{n}": kind for n, kind in enumerate(kinds)}
    extras = [f"extra{n}" for n in range(draw(st.integers(0, 3)))]
    header = draw(st.permutations([*wanted, *extras]))
    columns = {name: wanted[name] for name in draw(st.permutations(list(wanted)))}
    fields = st.tuples(*(FIELD_VALUES[wanted.get(name, str)] for name in header))
    rows = draw(st.lists(fields, max_size=6))
    blanks = draw(st.lists(st.integers(0, 2), min_size=len(rows) + 1, max_size=len(rows) + 1))
    return header, columns, rows, blanks, draw(st.sampled_from(["\n", "\r\n"]))


def write_table(directory, header, rows, blanks, terminator) -> tuple[Path, list[int]]:
    """Write the table, ``blanks[k]`` blank lines before row k and ``blanks[-1]`` after the last.

    Returns the path and the line on which each row ends.
    """
    text = io.StringIO()
    writer = csv.writer(text, lineterminator=terminator)
    writer.writerow(header)
    last_lines = []
    for row, blank in zip(rows, blanks):
        text.write(terminator * blank)
        writer.writerow(row)
        last_lines.append(text.getvalue().count("\n"))
    text.write(terminator * blanks[-1])
    path = Path(directory) / "table.csv"
    path.write_bytes(text.getvalue().encode())
    return path, last_lines


class TestReadCsvProperties:
    @given(csv_tables())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_dict_reader(self, table):
        header, columns, rows, blanks, terminator = table
        with tempfile.TemporaryDirectory() as tmp:
            path, _ = write_table(tmp, header, rows, blanks, terminator)
            with open(path, newline="", encoding="utf-8") as fh:
                expected = [
                    tuple(convert(row[name]) for name, convert in columns.items())
                    for row in csv.DictReader(fh)
                ]
            assert list(read_csv(path, columns)) == expected
        assert len(expected) == len(rows)

    @given(csv_tables(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_short_row_and_bad_value_name_their_line(self, table, data):
        header, columns, rows, blanks, terminator = table
        assume(rows)
        width = max(header.index(name) for name in columns) + 1
        typed = [name for name, convert in columns.items() if convert is not str]
        assume(width > 1 or typed)
        bad = data.draw(st.integers(0, len(rows) - 1))
        row = list(rows[bad])
        if typed and (width == 1 or data.draw(st.booleans())):
            name = data.draw(st.sampled_from(typed))
            row[header.index(name)] = "x1"
            with pytest.raises(ValueError) as rejected:
                columns[name]("x1")
            detail = str(rejected.value)
        else:
            row = row[: data.draw(st.integers(1, width - 1))]
            detail = f"{len(row)} fields, need {width}"
        rows = [*rows[:bad], row, *rows[bad + 1 :]]
        with tempfile.TemporaryDirectory() as tmp:
            path, last_lines = write_table(tmp, header, rows, blanks, terminator)
            with pytest.raises(InputError) as caught:
                list(read_csv(path, columns))
        assert str(caught.value) == f"{path}, line {last_lines[bad]}: {detail}"


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

    def test_timestamp_without_offset_is_utc(self):
        text = "\x1eabc\x1fann@x\x1f2019-12-31T23:30:00\x1fp\x1ffix crash\x1f\n"
        [record] = parse_raw_git_log(text, repo_id="r").records
        assert record.year == 2019


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


def make_project(repo_id, hashes, owner=None, name=None, is_fork=False):
    return ProjectDescriptor(
        repo_id=repo_id,
        owner=owner or repo_id.split("/")[0],
        name=name or repo_id.split("/")[-1],
        is_fork=is_fork,
        hashes=frozenset(hashes),
        total_commits=len(hashes),
    )


class TestSelectProjects:
    def test_min_commits_rule(self):
        small = make_project("o/small", {f"h{i}" for i in range(199)})
        big = make_project("o/big", {f"g{i}" for i in range(200)})
        result = select_projects([small, big])
        assert [p.repo_id for p in result.accepted] == ["o/big"]
        assert ("o/small", "min_commits") in result.exclusions

    def test_fork_rule(self):
        fork = make_project("o/fork", {f"h{i}" for i in range(300)}, is_fork=True)
        result = select_projects([fork])
        assert result.accepted == []
        assert result.exclusions == [("o/fork", "fork")]

    def test_dominated_rule(self):
        shared = {f"s{i}" for i in range(51)}
        large = make_project("o/large", shared | {f"l{i}" for i in range(300)})
        small = make_project("o/small", shared | {f"m{i}" for i in range(200)})
        result = select_projects([large, small])
        assert [p.repo_id for p in result.accepted] == ["o/large"]
        assert ("o/small", "dominated") in result.exclusions

    def test_sharing_at_threshold_not_dominated(self):
        shared = {f"s{i}" for i in range(50)}  # exactly 50: not "more than 50"
        large = make_project("o/large", shared | {f"l{i}" for i in range(300)})
        small = make_project("o/small", shared | {f"m{i}" for i in range(200)})
        result = select_projects([large, small])
        assert len(result.accepted) == 2

    def test_duplicate_name_prefers_bigger_owner(self):
        hashes_a = {f"a{i}" for i in range(250)}
        hashes_b = {f"b{i}" for i in range(250)}
        spark_big_owner = make_project("apache/spark", hashes_a, owner="apache", name="spark")
        spark_small_owner = make_project("solo/spark", hashes_b, owner="solo", name="spark")
        # apache owns 12 projects in the input, solo owns 1
        extras = [
            make_project(f"apache/p{i}", {f"x{i}-{j}" for j in range(5)})
            for i in range(11)
        ]
        result = select_projects([spark_big_owner, spark_small_owner] + extras)
        accepted = {p.repo_id for p in result.accepted}
        assert "apache/spark" in accepted
        assert ("solo/spark", "duplicate_name") in result.exclusions

    def test_idempotent(self):
        shared = {f"s{i}" for i in range(60)}
        projects = [
            make_project("o/large", shared | {f"l{i}" for i in range(300)}),
            make_project("o/mid", shared | {f"m{i}" for i in range(250)}),
            make_project("p/other", {f"o{i}" for i in range(220)}),
            make_project("q/tiny", {f"t{i}" for i in range(10)}),
        ]
        first = select_projects(projects)
        second = select_projects(first.accepted)
        assert [p.repo_id for p in second.accepted] == [p.repo_id for p in first.accepted]
        assert second.exclusions == []

    def test_largest_of_cluster_survives(self):
        shared = {f"s{i}" for i in range(100)}
        cluster = [
            make_project(f"o/p{i}", shared | {f"p{i}-{j}" for j in range(200 + i)})
            for i in range(4)
        ]
        result = select_projects(cluster)
        assert [p.repo_id for p in result.accepted] == ["o/p3"]

    def test_each_exclusion_reported_once(self):
        small = make_project("o/small", set(), is_fork=True)
        result = select_projects([small])
        # removed by the first matching rule only
        assert result.exclusions == [("o/small", "min_commits")]


class TestProjectDescriptor:
    def test_from_commits(self):
        commits = [
            make_commit(hash="h1", ts="2018-06-01T00:00:00+00:00"),
            make_commit(hash="h2", ts="2019-06-01T00:00:00+00:00"),
            make_commit(hash="h3", ts="2019-07-01T00:00:00+00:00"),
        ]
        project = ProjectDescriptor.from_commits(commits, 2019)
        assert project.owner == "acme"
        assert project.name == "widget"
        assert project.hashes == frozenset({"h2", "h3"})
        assert ProjectDescriptor.from_commits(commits, 2018).hashes == frozenset({"h1"})
        assert project.total_commits == 3
