"""The raw ``git log`` path against git itself.

Each test builds a repository with git, under a private ``HOME`` and without
the system config, with fixed author and committer dates. It exports the
history with the command of ``GIT_LOG_RECIPE``, run verbatim, and compares
what ``analyze`` and ``classify`` read from it with git's own answers.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import pytest

from ccp_miner import ingestion
from ccp_miner.cli import main

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")

REPO = "acme/widget"


class _Git:
    """A repository in ``root``, and git run in it with a private, fixed setup."""

    def __init__(self, root: Path):
        self.path = root / "repo"
        self.path.mkdir()
        home = root / "home"
        home.mkdir()
        self.env = {
            "PATH": os.environ.get("PATH", ""),
            "HOME": str(home),
            "GIT_CONFIG_NOSYSTEM": "1",
            "GIT_AUTHOR_NAME": "Ann",
            "GIT_AUTHOR_EMAIL": "Ann@Example.COM",
            "GIT_COMMITTER_NAME": "Ann",
            "GIT_COMMITTER_EMAIL": "ann@example.com",
        }
        self("init", "-q", ".")
        self("symbolic-ref", "HEAD", "refs/heads/main")

    def __call__(self, *args: str, date: str | None = None) -> str:
        env = self.env if date is None else {
            **self.env, "GIT_AUTHOR_DATE": date, "GIT_COMMITTER_DATE": date
        }
        return subprocess.run(
            ["git", *args], cwd=self.path, env=env, check=True, capture_output=True,
            encoding="utf-8",
        ).stdout

    def commit(self, date: str, message: str, files: dict[str, str] | None = None) -> None:
        for name, text in (files or {}).items():
            (self.path / name).write_text(text, encoding="utf-8")
            self("add", "--", name)
        self("commit", "-q", "--allow-empty", "-m", message, date=date)

    def export(self) -> Path:
        """The history as GIT_LOG_RECIPE's command writes it."""
        command = ingestion.GIT_LOG_RECIPE.split("\n\n")[1]
        assert command.lstrip().startswith("git log ")
        subprocess.run(["sh", "-c", command], cwd=self.path, env=self.env, check=True)
        return self.path / "history.gitlog"


def _run(argv: list[str]) -> tuple[int, str, list[ingestion.Commit]]:
    """Exit code, stdout, and the commits ``analyze`` hands to ``window_by_year``."""
    analysed = []
    original = ingestion.window_by_year

    def capture(commits):
        commits = list(commits)
        analysed.extend(commits)
        return original(commits)

    out = io.StringIO()
    with mock.patch.object(ingestion, "window_by_year", capture), \
            contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue(), analysed


def test_analyze_and_classify_read_what_git_records(tmp_path):
    git = _Git(tmp_path)
    git.commit("2018-05-01T12:00:00+00:00", "initial import",
               {"a.c": "a\n", "with space.txt": "s\n"})
    git("checkout", "-q", "-b", "feature")
    git.commit("2019-06-01T10:00:00+02:00", "add café support\n\nsecond paragraph",
               {"café.c": "x\n"})
    git("checkout", "-q", "main")
    # 2020-01-01T04:30 in UTC: the commit counts in 2020.
    git.commit("2019-12-31T23:30:00-05:00", "fix crash in parser", {"a.c": "a\nb\n"})
    git("merge", "-q", "--no-ff", "-m", "Merge branch 'feature'", "feature",
        date="2020-02-01T00:00:00+00:00")
    git.commit("2020-03-01T00:00:00+00:00", "bump CI")
    # History only a remote-tracking branch holds is exported.
    git("checkout", "-q", "-b", "side")
    git.commit("2020-04-01T00:00:00+00:00", "fix leak on the side branch", {"b.c": "b\n"})
    git("update-ref", "refs/remotes/origin/side", "side")
    git("checkout", "-q", "main")
    git("branch", "-q", "-D", "side")
    # A fork's clone with the upstream project fetched: upstream's own commit
    # is another project's history, and is not exported.
    git("remote", "add", "upstream", "../upstream.git")
    git("checkout", "-q", "-b", "theirs")
    git.commit("2020-04-15T00:00:00+00:00", "fix upstream regression", {"u.c": "u\n"})
    git("update-ref", "refs/remotes/upstream/main", "theirs")
    git("checkout", "-q", "main")
    git("branch", "-q", "-D", "theirs")
    # A stash and a note are not history: their commits are not exported.
    (git.path / "a.c").write_text("a\nb\nstashed\n", encoding="utf-8")
    git("stash", "-q", date="2020-05-01T00:00:00+00:00")
    git("notes", "add", "-m", "reviewed", "HEAD", date="2020-05-02T00:00:00+00:00")
    log = str(git.export())

    # the stash's two, the note's and upstream's
    assert len(git("rev-list", "--all").split()) == 10
    assert len(git("rev-list", "--branches", "--tags", "--remotes").split()) == 7
    hashes = git("rev-list", "--branches", "--tags", "--remotes=origin").split()
    expected = {}
    for commit_hash in hashes:
        parents, stamp, author, date, message = git(
            "show", "-s", "--format=%P%x00%at%x00%ae%x00%aI%x00%B", commit_hash
        ).split("\0")
        listed = git("show", "--name-only", "--format=", commit_hash)
        files = tuple(filter(None, listed.split("\n")))
        expected[commit_hash] = {
            "repo": REPO, "hash": commit_hash, "author": author, "ts": date,
            "msg": message.rstrip("\n"), "files": files, "merge": len(parents.split()) > 1,
            "year": datetime.fromtimestamp(int(stamp), timezone.utc).year,
        }
    assert len(hashes) == 6
    assert sum(c["merge"] for c in expected.values()) == 1
    assert sum(not c["files"] for c in expected.values()) == 2  # the merge and the empty commit
    assert sorted(c["year"] for c in expected.values()) == [2018, 2019, 2020, 2020, 2020, 2020]
    # git C-quotes a non-ASCII path, in the log and in ``git show`` alike.
    assert {("a.c", "with space.txt"), ('"caf\\303\\251.c"',)} < {
        c["files"] for c in expected.values()
    }

    raw = ["--input-format", "git", "--repo", REPO]
    code, classified, _ = _run(["classify", log, *raw])
    assert code == 0
    assert [json.loads(line)["hash"] for line in classified.splitlines()] == hashes

    code, report, analysed = _run(["analyze", log, *raw])
    assert code == 0
    assert json.loads(report)["skipped_lines"] == 0
    assert {commit[0]: commit for commit in analysed} == {
        h: (h, c["author"].lower(), c["year"], c["msg"], c["files"], c["merge"])
        for h, c in expected.items()
    }

    ndjson = tmp_path / "history.ndjson"
    ndjson.write_text(
        "".join(
            json.dumps({k: v for k, v in expected[h].items() if k != "year"}) + "\n"
            for h in hashes
        ),
        encoding="utf-8",
    )
    assert _run(["analyze", str(ndjson)])[:2] == (0, report)
    assert _run(["classify", str(ndjson)])[:2] == (0, classified)


def test_a_message_holding_a_separator_is_skipped_and_counted(tmp_path):
    git = _Git(tmp_path)
    git.commit("2019-05-01T00:00:00+00:00", "fix crash", {"a.c": "a\n"})
    good = git("rev-parse", "HEAD").strip()
    git.commit("2019-05-02T00:00:00+00:00", "unit\x1fseparator")  # one chunk of 7 fields
    git.commit("2019-05-03T00:00:00+00:00", "record\x1eseparator")  # two chunks, neither whole
    log = str(git.export())
    raw = ["--input-format", "git", "--repo", REPO]

    code, report, analysed = _run(["analyze", log, *raw])
    assert code == 0
    assert json.loads(report)["skipped_lines"] == 3
    assert [commit[0] for commit in analysed] == [good]
    code, classified, _ = _run(["classify", log, *raw])
    assert [json.loads(line)["hash"] for line in classified.splitlines()] == [good]
