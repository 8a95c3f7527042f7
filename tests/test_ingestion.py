"""Ingestion unit tests: parsing, windowing, selection, involvement."""

import argparse
import ast
import csv
import gc
import io
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ccp_miner import cli, ingestion
from ccp_miner.errors import InputError
from ccp_miner.ingestion import (
    Commit,
    ProjectDescriptor,
    _utc_year,
    involved_authors,
    load_project_metadata,
    parse_git_log,
    parse_raw_git_log,
    read_csv,
    read_records,
    select_projects,
    window_by_year,
)

from conftest import FIXTURES


def make_commit(hash="c1", author="ann@example.com", ts="2019-06-01T12:00:00+00:00",
                msg="fix crash", files=("a.c",), merge=False) -> Commit:
    return (hash, author, _utc_year(ts), msg, tuple(files), merge)


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
        [(commit_hash, author_id, year, _, files, is_merge)] = result.records
        assert commit_hash == "h1"
        assert author_id == "a@b.com"  # emails normalized to lowercase
        assert year == 2019
        assert files == ("x.py",)
        assert not is_merge

    def test_z_timestamp_counts_in_its_utc_year(self):
        line = (
            '{"repo": "r", "hash": "h1", "author": "a@x", "ts": "2019-12-31T23:30:00Z", '
            '"msg": "fix bug"}'
        )
        result = parse_git_log([line])
        assert result.skipped == 0
        [(_, _, year, _, _, _)] = result.records
        assert year == 2019

    def test_malformed_lines_skipped_and_counted(self):
        with open(FIXTURES / "log_malformed.ndjson", encoding="utf-8") as fh:
            result = parse_git_log(fh)
        assert len(result.records) == 4
        assert result.skipped == 1

    def test_round_trip(self):
        with open(FIXTURES / "log_small.ndjson", encoding="utf-8") as fh:
            first = parse_git_log(fh)
        lines = [
            json.dumps({"repo": repo, "hash": commit_hash, "author": author_id,
                        "ts": f"{year}-07-01T00:00:00+00:00", "msg": message,
                        "files": list(files), "merge": is_merge})
            for repo, commits in first.by_repo.items()
            for commit_hash, author_id, year, message, files, is_merge in commits.values()
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
        by_repo = {}
        first = parse_git_log(lines[:2], by_repo=by_repo)
        second = parse_git_log(lines[1:], by_repo=by_repo)
        again = parse_git_log(lines[:2], by_repo=by_repo)  # only repeats: not an error
        assert ([r[0] for r in first.records], first.skipped) == (["h1", "h2"], 0)
        assert ([r[0] for r in second.records], second.skipped) == (["h3"], 1)
        assert (again.records, again.skipped) == ([], 2)
        assert {repo: list(commits) for repo, commits in by_repo.items()} == {
            "r": ["h1", "h2", "h3"]
        }

    def test_line_ends_in_a_message_read_as_lf_as_in_a_raw_log(self):
        line = json.dumps({"repo": "r", "hash": "h1", "author": "a@b.com",
                           "ts": "2019-01-02T03:04:05+00:00", "msg": "fix\r\nbody\rend"})
        raw = "\x1eh1\x1fa@b.com\x1f2019-01-02T03:04:05+00:00\x1fp\x1ffix\r\nbody\rend\x1f\n"
        [(_, _, _, message, _, _)] = parse_git_log(io.StringIO(line)).records
        assert message == "fix\nbody\nend"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.gitlog"
            path.write_bytes(raw.encode())
            records = read_records(path, "\x1e")
            [(_, _, _, raw_message, _, _)] = parse_raw_git_log(records, repo_id="r").records
        assert raw_message == message

    @pytest.mark.parametrize(
        "field,value",
        [("repo", None), ("hash", 123), ("author", ["ann@x"]), ("msg", {"text": "fix"}),
         ("files", "abc"), ("files", {"x": 1}), ("files", ["a.c", 2]),
         ("files", 0), ("files", ""), ("files", False), ("files", {}),
         ("merge", "false"), ("merge", 0), ("merge", None)],
    )
    def test_field_of_the_wrong_type_is_skipped(self, field, value):
        good = {"repo": "r", "hash": "h1", "author": "a@b.com",
                "ts": "2019-01-02T03:04:05+00:00", "msg": "m", "files": ["a.c"], "merge": False}
        bad = {**good, "hash": "h2", field: value}
        result = parse_git_log(io.StringIO(json.dumps(good) + "\n" + json.dumps(bad)))
        assert [r[0] for r in result.records] == ["h1"]
        assert result.skipped == 1


class TestParsedCommits:
    def test_kept_commits_are_not_tracked_by_the_gc(self):
        with open(FIXTURES / "log_small.ndjson", encoding="utf-8") as fh:
            ndjson = parse_git_log(fh)
        raw = parse_raw_git_log(
            [
                "abc\x1fann@x\x1f2019-05-01T10:00:00+00:00\x1fp1\x1ffix crash\x1f\nsrc/a.c\n",
                "def\x1fbob@x\x1f2019-05-02T10:00:00+00:00\x1fp1 p2\x1fmerge\x1f\n",
            ],
            repo_id="r",
        )
        commits = [*ndjson.records, *raw.records]
        assert any(files for _, _, _, _, files, _ in commits)
        # A collection may look at a commit before its tuple of files, which it
        # then untracks; the next collection untracks the commit.
        gc.collect()
        gc.collect()
        assert [c for c in commits if gc.is_tracked(c)] == []


class TestLoadProjectMetadata:
    def test_is_fork_values_in_any_case(self, tmp_path):
        path = tmp_path / "projects.csv"
        values = [" YES", "No ", "1", "0", "True", "false"]
        rows = "".join(f"o/p{i},o,p{i},{v}\n" for i, v in enumerate(values))
        path.write_text("repo_id,owner,name,is_fork\n" + rows)
        assert [fork for _, _, fork in load_project_metadata(path).values()] == [
            True, False, True, False, True, False
        ]


class TestReadRecords:
    # With ``at`` one, three or five bytes before a multiple of the 8 KiB read
    # chunk, the CRLF, the two-byte character or the lone CR before a CR
    # straddles that multiple. At 65535, 65533 and 65531 the last character of
    # read_records' first 64 Ki-character block is the CRLF, the lone CR before
    # a CR, and the \x1e (the two-byte character ends one character earlier).
    @pytest.mark.parametrize("at", [8191, 8189, 8187, 65535, 65533, 65531])
    @pytest.mark.parametrize("sep", ["\n", "\x1e"])
    def test_records_across_read_buffers(self, tmp_path, at, sep):
        head = ("x" * 99 + "\n") * (at // 100) + "y" * (at % 100)
        path = tmp_path / "log.ndjson"
        path.write_bytes((head + "\r\n\u00e9\r\r\x1ez\r\nlast").encode())
        expected = path.read_bytes().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        records = list(read_records(path, sep))
        assert sep.join(records) == expected
        assert records == expected.split(sep)

    # Past the first 8 KiB read chunk and past the first 64 KiB.
    @pytest.mark.parametrize("at", [10_000, 70_001])
    @pytest.mark.parametrize("reader", ["read_csv", "read_records-lf", "read_records-rs"])
    def test_non_utf8_byte_is_named_at_its_offset_in_the_file(self, tmp_path, at, reader):
        head = b"path,size_bytes\n" + b"a.py,1\n" * (at // 7)
        path = tmp_path / "listing.csv"
        path.write_bytes(head + b"caf\xe9.py,2\n")
        read = {
            "read_csv": lambda: list(read_csv(path, {"path": str, "size_bytes": int})),
            "read_records-lf": lambda: list(read_records(path, "\n")),
            "read_records-rs": lambda: list(read_records(path, "\x1e")),
        }[reader]
        with pytest.raises(InputError) as caught:
            read()
        assert str(caught.value) == f"{path} is not UTF-8: byte {len(head) + 3} is 0xe9"

    def test_non_utf8_byte_past_a_mebibyte_is_named_at_its_offset(self, tmp_path):
        head = "é,1\n".encode() * (1_200_000 // 5)
        path = tmp_path / "listing.csv"
        path.write_bytes(b"path,size_bytes\n" + head + b"caf\xe9.py,2\n")
        assert len(head) > 1 << 20
        with pytest.raises(InputError) as caught:
            list(read_records(path, "\n"))
        assert str(caught.value) == f"{path} is not UTF-8: byte {16 + len(head) + 3} is 0xe9"

    # A character of 2, 3 or 4 bytes cut by the end of the first block of
    # bytes, then a bad byte; a lead byte cut off by that end; a bad byte
    # that ends the file; a character that the file's end cuts short.
    @pytest.mark.parametrize(
        "tail, cut, bad",
        [
            ("é".encode() + b"x\xff", 1, 3),
            ("€".encode() + b"\xfe", 1, 3),
            ("€".encode() + b"\xfe", 2, 3),
            ("𝄞".encode() + b"ab\x80", 1, 6),
            ("𝄞".encode() + b"ab\x80", 3, 6),
            (b"\xc3(", 1, 0),
            (b"\xc3(", 0, 0),
            (b"ok\xf5", 0, 2),
            ("€".encode()[:2], 1, 0),
        ],
    )
    def test_bad_byte_after_a_character_cut_by_the_decoding_block(self, tmp_path, tail, cut, bad):
        head = b"x" * (ingestion.RECORD_BLOCK - cut)
        path = tmp_path / "log.ndjson"
        path.write_bytes(head + tail)
        with pytest.raises(InputError) as caught:
            list(read_records(path, "\n"))
        value = tail[bad]
        assert str(caught.value) == f"{path} is not UTF-8: byte {len(head) + bad} is {value:#04x}"

    def test_finding_the_bad_byte_holds_a_block_not_the_file(self, tmp_path):
        path = tmp_path / "log.ndjson"
        with open(path, "wb") as fh:
            for _ in range(128):
                fh.write(b'{"repo": "r", "msg": "x"}\n' * 2048)
            fh.write(b"\xe9\n")
        size = path.stat().st_size
        assert size > 6 << 20
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=f"byte {size - 2} is 0xe9"):
                for _ in read_records(path, "\n"):
                    pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size // 8

    @pytest.mark.parametrize(
        "text",
        [
            "\x1e" + "a\r\nb\x1f" * (3 * ingestion.RECORD_BLOCK // 5) + "\x1e",
            "no separator\n" * (ingestion.RECORD_BLOCK // 4),
        ],
        ids=["record-of-several-blocks", "no-separator"],
    )
    def test_a_record_of_many_blocks_is_one_record(self, tmp_path, text):
        path = tmp_path / "history.gitlog"
        path.write_bytes(text.encode())
        expected = text.replace("\r\n", "\n").split("\x1e")
        assert max(map(len, expected)) > 2 * ingestion.RECORD_BLOCK
        assert list(read_records(path, "\x1e")) == expected

    def test_empty_file_is_one_empty_record_and_no_commit(self, tmp_path):
        path = tmp_path / "empty.gitlog"
        path.write_bytes(b"")
        assert list(read_records(path, "\x1e")) == [""]
        with pytest.raises(InputError, match="no parseable commit records"):
            parse_raw_git_log(read_records(path, "\x1e"), repo_id="r")


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


class TestReadCsv:
    @pytest.mark.parametrize("end", ["\r\n", "\r", "\n"])
    def test_line_end_in_a_quoted_field_reads_as_lf(self, tmp_path, end):
        path = tmp_path / "table.csv"
        path.write_bytes(f'name,n{end}"a{end}b",1{end}c,2{end}'.encode())
        assert list(read_csv(path, {"name": str, "n": int})) == [("a\nb", 1), ("c", 2)]


# Readers that hold a whole file, which the package must not define again.
WHOLE_FILE_READERS = {"read_text", "read_lines"}


class TestSourceRules:
    def test_one_opener_one_text_reader_and_no_splitlines(self):
        """Only ``ingestion._opened`` calls the builtin ``open`` or reads a file whole.

        Every text input is streamed through ``read_records`` (or ``read_csv``):
        nothing else calls ``.read()`` without a size, no whole-file reader is
        defined again, and nothing calls ``.splitlines``.
        """
        package = Path(ingestion.__file__).parent
        found = []
        for source in sorted(package.glob("*.py")):
            tree = ast.parse(source.read_bytes().decode("utf-8"))
            allowed = set()
            if source.name == "ingestion.py":
                [opener] = [n for n in tree.body if getattr(n, "name", None) == "_opened"]
                allowed = {id(n) for n in ast.walk(opener)}
            for node in ast.walk(tree):
                name = getattr(node, "name", None) or getattr(node, "id", None)
                binds = not isinstance(getattr(node, "ctx", None), ast.Load)
                if name in WHOLE_FILE_READERS and binds:
                    found.append(f"{source.name}:{node.lineno}: defines {name}")
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "splitlines":
                    found.append(f"{source.name}:{node.lineno}: .splitlines()")
                if id(node) in allowed:
                    continue
                if isinstance(func, ast.Name) and func.id == "open":
                    found.append(f"{source.name}:{node.lineno}: open()")
                if isinstance(func, ast.Attribute) and func.attr == "read" and not node.args:
                    found.append(f"{source.name}:{node.lineno}: .read()")
        assert found == []

    @pytest.mark.parametrize(
        "source, rule",
        [
            ("def f(path):\n    with open(path) as fh:\n        return fh.read()\n", "open()"),
            ("def f(fh):\n    return fh.read()\n", ".read()"),
            ("def f(fh):\n    return fh.read(size=-1)\n", ".read()"),
            ("def read_text(path):\n    pass\n", "defines read_text"),
            ("read_lines = read_records\n", "defines read_lines"),
            ("def f(text):\n    return text.splitlines()\n", ".splitlines()"),
        ],
    )
    def test_the_source_rules_catch_each_break(self, tmp_path, monkeypatch, source, rule):
        package = tmp_path / "ccp_miner"
        package.mkdir()
        (package / "ingestion.py").write_text("def _opened(path):\n    return open(path).read()\n")
        (package / "extra.py").write_text(source)
        monkeypatch.setattr(ingestion, "__file__", str(package / "ingestion.py"))
        with pytest.raises(AssertionError, match=r"extra\.py:\d+: " + re.escape(rule)):
            self.test_one_opener_one_text_reader_and_no_splitlines()


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
        result = parse_raw_git_log(text.split("\x1e"), repo_id="acme/widget")
        assert len(result.records) == 2
        (_, author_id, _, _, files, first_is_merge), (*_, second_is_merge) = result.records
        assert author_id == "ann@example.com"
        assert files == ("src/a.c", "src/b.c")
        assert not first_is_merge
        assert second_is_merge

    def test_no_records_is_an_error(self):
        with pytest.raises(InputError):
            parse_raw_git_log(["garbage"], repo_id="r")

    def test_timestamp_without_offset_is_utc(self):
        text = "\x1eabc\x1fann@x\x1f2019-12-31T23:30:00\x1fp\x1ffix crash\x1f\n"
        [(_, _, year, _, _, _)] = parse_raw_git_log(text.split("\x1e"), repo_id="r").records
        assert year == 2019

    def test_repeated_author_and_path_strings_are_kept_once(self):
        text = (
            "\x1eabc\x1fAnn@Example.com\x1f2019-05-01T10:00:00+00:00\x1fp1\x1ffix\x1f\n"
            "src/widget/core.c\n"
            "\x1edef\x1fann@example.com \x1f2019-05-02T10:00:00+00:00\x1fp1\x1fdocs\x1f\n"
            "  src/widget/core.c\ndocs/index.md\n"
        )
        first, second = parse_raw_git_log(text.split("\x1e"), repo_id="r").records
        assert first[1] == "ann@example.com" and first[1] is second[1]
        assert second[4] == ("src/widget/core.c", "docs/index.md")
        assert first[4][0] is second[4][0]

    def test_memory_follows_the_commits_kept_not_the_file(self, tmp_path):
        """The CLI streams a raw log: a 4 MiB log of one commit repeated peaks far below 4 MiB."""
        body = "".join(f"line {n} of a long commit message body\n" for n in range(110))
        head = "\x1eabc\x1fann@x\x1f2019-05-01T10:00:00+00:00\x1fp1\x1ffix crash\n"
        path = tmp_path / "widget.gitlog"
        path.write_text(f"{head}{body}\x1f\nsrc/a.c\n" * 1000, encoding="utf-8")
        assert path.stat().st_size > 4 << 20
        args = argparse.Namespace(input=[str(path)], input_format="git", repo="r")
        tracemalloc.start()
        try:
            [result] = cli._read_commits(args, {})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(result.records), result.skipped) == (1, 999)
        assert peak < 1 << 20


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
        assert involved_authors(eleven + twelve) == {"high@x": 12}

    def test_merge_commits_not_counted(self):
        commits = [make_commit(hash=f"m{i}", author="m@x", merge=True) for i in range(20)]
        assert involved_authors(commits) == {}
        commits += [make_commit(hash=f"a{i}", author="m@x") for i in range(13)]
        assert involved_authors(commits) == {"m@x": 13}

    def test_empty(self):
        assert involved_authors([]) == {}


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
        # apache owns 12 projects that pass the first two rules, solo owns 1
        extras = [
            make_project(f"apache/p{i}", {f"x{i}-{j}" for j in range(200)})
            for i in range(11)
        ]
        result = select_projects([spark_big_owner, spark_small_owner] + extras)
        accepted = {p.repo_id for p in result.accepted}
        assert "apache/spark" in accepted
        assert ("solo/spark", "duplicate_name") in result.exclusions

    def test_owner_count_leaves_out_small_projects_and_forks(self):
        alpha_a = make_project("zed/alpha", {f"a{i}" for i in range(250)})
        alpha_b = make_project("amy/alpha", {f"b{i}" for i in range(250)})
        # zed owns more projects in the input, but only one passes the first two rules;
        # the tie goes to the owner first in order
        extras = [
            make_project("zed/tiny", {f"t{i}" for i in range(5)}),
            make_project("zed/fork", {f"a{i}" for i in range(250)}, is_fork=True),
        ]
        result = select_projects([alpha_a, alpha_b] + extras)
        assert [p.repo_id for p in result.accepted] == ["amy/alpha"]
        assert ("zed/alpha", "duplicate_name") in result.exclusions

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
        by_hash = {c[0]: c for c in commits}
        project = ProjectDescriptor.from_commits("acme/widget", by_hash, 2019)
        assert project.owner == "acme"
        assert project.name == "widget"
        assert project.hashes == frozenset({"h2", "h3"})
        assert ProjectDescriptor.from_commits("acme/widget", by_hash, 2018).hashes == frozenset(
            {"h1"}
        )
        assert project.total_commits == 3
