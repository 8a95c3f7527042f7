"""Property-based invariants over classification, estimation and analytics."""

import contextlib
import io
import json
import tempfile
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ccp_miner.analytics import winsorize
from ccp_miner.classifier import classify_message, english_hit_rate
from ccp_miner.cli import main
from ccp_miner.estimator import (
    ModelPerformance,
    estimate_ccp,
    rank_on_scale,
)
from ccp_miner.ingestion import ProjectDescriptor, _ndjson_record, _raw_record, select_projects
from ccp_miner.stats import MetricSeries, co_change

from conftest import FIXTURES

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz ", min_size=0, max_size=60)


class TestClassifierProperties:
    @given(message=words)
    def test_corrective_implies_fix_hit(self, message, term_model):
        verdict = classify_message(message, term_model)
        if verdict.corrective:
            assert verdict.fix_hits >= 1

    @given(message=words)
    def test_appending_fix_terms_never_lowers_score(self, message, term_model):
        base = classify_message(message, term_model)
        extended = classify_message(message + " fix the crash bug", term_model)
        assert extended.score >= base.score

    @given(message=words)
    def test_appending_negation_never_raises_score(self, message, term_model):
        base = classify_message(message, term_model)
        extended = classify_message(message + " but this is not a bug", term_model)
        # the suffix holds one fix pattern and one negation pattern
        assert extended.score <= base.score + 1

    @given(message=words)
    def test_score_decomposition(self, message, term_model):
        v = classify_message(message, term_model)
        assert v.score == v.fix_hits - v.other_fix_hits - v.negation_hits
        assert v.fix_hits >= 0 and v.other_fix_hits >= 0 and v.negation_hits >= 0


class TestEstimatorProperties:
    @given(n=st.integers(1, 400), k=st.integers(0, 400))
    def test_strictly_increasing_in_hits(self, n, k, default_perf):
        if k >= n:
            k = n - 1
        lower = estimate_ccp(k, n, default_perf).ccp_raw
        upper = estimate_ccp(k + 1, n, default_perf).ccp_raw
        assert lower < upper

    @given(
        st.integers(0, 500),
        st.integers(1, 500),
        st.floats(0.3, 1.0),
        st.floats(0.0, 0.2),
    )
    def test_status_consistent_with_value(self, k, n, recall, fpr):
        if k > n:
            k = n
        perf = ModelPerformance(recall=recall, fpr=fpr)
        estimate = estimate_ccp(k, n, perf)
        if estimate.valid:
            assert 0.0 <= estimate.ccp_raw <= 1.0
        else:
            assert estimate.ccp_raw < 0.0 or estimate.ccp_raw > 1.0

    @given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
    def test_rank_monotone(self, a, b, distribution_table):
        lo, hi = sorted((a, b))
        assert (
            rank_on_scale(lo, distribution_table).lower
            >= rank_on_scale(hi, distribution_table).lower
        )


class TestWinsorizeProperties:
    values = st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=60)

    @given(values, st.floats(0.01, 0.99))
    def test_idempotent(self, xs, q):
        once = winsorize(xs, q)
        assert winsorize(once, q) == once

    @given(values, st.floats(0.01, 0.99))
    def test_never_increases_and_preserves_shape(self, xs, q):
        capped = winsorize(xs, q)
        assert len(capped) == len(xs)
        assert all(c <= x for c, x in zip(capped, xs))
        assert max(capped) <= max(xs)


class TestEnglishProperties:
    @given(messages=st.permutations(["the build", "wrong", "fix that", "update", "more fixes"]))
    def test_reorder_invariant(self, messages, english_model):
        baseline = english_hit_rate(
            ["the build", "wrong", "fix that", "update", "more fixes"], english_model
        )
        assert english_hit_rate(list(messages), english_model) == baseline


class TestSelectionProperties:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, data):
        n_projects = data.draw(st.integers(1, 6))
        pool = [f"h{i}" for i in range(400)]
        projects = []
        for i in range(n_projects):
            hashes = frozenset(
                data.draw(
                    st.lists(st.sampled_from(pool), min_size=0, max_size=300, unique=True)
                )
            )
            projects.append(
                ProjectDescriptor(
                    repo_id=f"o{i}/p{i}",
                    owner=f"o{i}",
                    name=data.draw(st.sampled_from(["alpha", "beta"])),
                    is_fork=data.draw(st.booleans()),
                    hashes=hashes,
                    total_commits=len(hashes),
                )
            )
        first = select_projects(projects)
        second = select_projects(first.accepted)
        assert [p.repo_id for p in second.accepted] == [p.repo_id for p in first.accepted]
        assert second.exclusions == []


class TestCoChangeProperties:
    deltas = st.dictionaries(
        st.sampled_from([f"e{i}" for i in range(8)]),
        st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
        min_size=2,
        max_size=8,
    )

    @given(deltas)
    @settings(max_examples=50, deadline=None)
    def test_lift_symmetric(self, changes):
        i = [
            MetricSeries(e, {2018: 0.0, 2019: di}) for e, (di, _) in changes.items()
        ]
        j = [
            MetricSeries(e, {2018: 0.0, 2019: dj}) for e, (_, dj) in changes.items()
        ]
        forward = co_change(i, j)
        backward = co_change(j, i)
        if forward.lift is None or backward.lift is None:
            assert forward.lift == backward.lift
        else:
            assert abs(forward.lift - backward.lift) <= 1e-9


class TestDeterminism:
    def test_report_bytes_stable(self, capsys):
        argv = ["--seed", "5", "validate-model", str(FIXTURES / "gold_corpus.tsv"),
                "--iterations", "300"]
        main(list(argv))
        first = capsys.readouterr().out
        main(list(argv))
        second = capsys.readouterr().out
        assert first == second
        json.loads(first)  # and it is well-formed


# NDJSON commit logs for metamorphic tests of `analyze`. Hashes come from a
# small pool, so repeated commits occur; the first and last lines always
# parse, so a log split in two leaves each part a record.
_commit = st.fixed_dictionaries(
    {
        "repo": st.sampled_from(["acme/widget", "acme/gadget"]),
        "hash": st.sampled_from([f"h{i}" for i in range(12)]),
        "author": st.sampled_from(["Ann@x", "bob@x", "cy@x"]),
        "ts": st.datetimes(
            datetime(2018, 6, 1), datetime(2020, 6, 1),
            timezones=st.sampled_from([timezone.utc, timezone(timedelta(hours=-5))]),
        ).map(datetime.isoformat),
        "msg": st.sampled_from(
            ["fix crash on startup", "update dependencies", "not a bug\r\nmore", "fix typo"]
        ),
    },
    optional={
        "files": st.none() | st.lists(st.sampled_from(["a.c", "b.py", "c.h"]), max_size=3),
        "merge": st.booleans(),
    },
)
_commit_line = _commit.map(json.dumps)
_junk_line = st.sampled_from(["not json", "[]", '{"repo": 1}', "   ", ""])
_any_line = _commit_line | _junk_line
_logs = st.tuples(_commit_line, st.lists(_any_line, max_size=20), _commit_line).map(
    lambda t: [t[0], *t[1], t[2]]
)


def _raw_chunk(commit: dict) -> str:
    """``commit`` as GIT_LOG_RECIPE's `git log` prints it."""
    parents = "p1 p2" if commit.get("merge") else "p1"
    files = "".join(f"{f}\n" for f in commit.get("files") or ())
    return (
        f"\x1e{commit['hash']}\x1f{commit['author']}\x1f{commit['ts']}\x1f{parents}"
        f"\x1f{commit['msg']}\n\x1f\n{files}\n"
    )


def _analyze(*texts: str, before: tuple = (), after: tuple = ()) -> str:
    """The `analyze` report of the logs ``texts``, each written to its own file.

    ``before`` and ``after`` are arguments put before and after ``analyze PATH...``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            path = Path(tmp) / f"log{i}.ndjson"
            path.write_bytes(text.encode())
            paths.append(str(path))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*before, "analyze", *paths, *after]) == 0
    return out.getvalue()


class TestAnalyzeMetamorphic:
    @given(_logs, st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_line_ends_do_not_change_the_report(self, lines, trailing):
        reports = {
            _analyze(end.join(lines) + (end if trailing else "")) for end in ("\n", "\r\n", "\r")
        }
        assert len(reports) == 1

    @given(_logs, st.data())
    @settings(max_examples=30, deadline=None)
    def test_splitting_a_log_into_two_files_keeps_the_report(self, lines, data):
        cut = data.draw(st.integers(1, len(lines) - 1))
        whole = _analyze("\n".join(lines))
        assert _analyze("\n".join(lines[:cut]), "\n".join(lines[cut:])) == whole

    @given(_logs, st.data())
    @settings(max_examples=30, deadline=None)
    def test_a_repeated_line_is_one_more_skipped_line(self, lines, data):
        repeat = data.draw(st.sampled_from([l for l in lines if _ndjson_record(l) is not None]))
        before = json.loads(_analyze("\n".join(lines)))
        after = json.loads(_analyze("\n".join([*lines, repeat])))
        assert after.pop("skipped_lines") == before.pop("skipped_lines") + 1
        assert after == before

    @given(
        st.lists(_commit, min_size=1, max_size=12, unique_by=lambda c: c["hash"]),
        st.lists(_junk_line, max_size=5),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_permuting_a_log_with_unique_hashes_keeps_the_report(self, commits, junk, data):
        lines = [json.dumps(c) for c in commits] + junk
        shuffled = data.draw(st.permutations(lines))
        # Under selection every project is excluded, so `exclusions` is not empty.
        for before in ((), ("--year", "2019", "--enforce-selection")):
            first = json.loads(_analyze("\n".join(lines), before=before))
            second = json.loads(_analyze("\n".join(shuffled), before=before))
            for key in ("projects", "rows", "skipped_lines"):
                assert second[key] == first[key]
            # The order of `exclusions` follows the input by design.
            assert {tuple(e.values()) for e in second["exclusions"]} == {
                tuple(e.values()) for e in first["exclusions"]
            }

    @given(st.lists(_commit.map(lambda c: {**c, "repo": "acme/widget"}), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_ndjson_and_raw_git_encodings_give_the_same_projects(self, commits):
        ndjson = _analyze("\n".join(json.dumps(c) for c in commits))
        raw = _analyze(
            "".join(_raw_chunk(c) for c in commits),
            after=("--input-format", "git", "--repo", "acme/widget"),
        )
        assert json.loads(raw)["projects"] == json.loads(ndjson)["projects"]


@pytest.fixture(params=["UTC0", "EST5", "JST-9"])
def host_time_zone(request, monkeypatch):
    """The process's local time zone, as a POSIX TZ string that needs no zone database."""
    monkeypatch.setenv("TZ", request.param)
    time.tzset()
    yield request.param
    monkeypatch.undo()
    time.tzset()


class TestTimeZoneRelation:
    # Any ISO timestamp of years 1-9999, with a whole-minute UTC offset or none.
    _ts = st.datetimes(
        timezones=st.none() | st.integers(-1439, 1439).map(
            lambda m: timezone(timedelta(minutes=m))
        )
    )

    @given(ts=_ts)
    @example(ts=datetime(2019, 12, 31, 23, 30))
    @example(ts=datetime(2020, 1, 1, 1, 0, tzinfo=timezone(timedelta(hours=2))))
    @example(ts=datetime(1, 1, 1, 0, 30, tzinfo=timezone(timedelta(hours=1))))
    @example(ts=datetime(9999, 12, 31, 23, 30, tzinfo=timezone(timedelta(hours=-1))))
    @settings(
        max_examples=200,
        deadline=None,
        # The zone is set once per test; every example runs under it.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_both_encodings_give_the_utc_year(self, host_time_zone, ts):
        commit = {"repo": "acme/widget", "hash": "h1", "author": "ann@x",
                  "ts": ts.isoformat(), "msg": "fix crash"}
        ndjson = _ndjson_record(json.dumps(commit))
        raw = _raw_record(_raw_chunk(commit).lstrip("\x1e"), "acme/widget")
        try:
            # An offset-less timestamp is UTC, whatever the host's zone.
            expected = ts.replace(tzinfo=ts.tzinfo or timezone.utc).astimezone(timezone.utc).year
        except OverflowError:  # the UTC instant is outside years 1-9999: skipped as bad
            expected = None
        assert [r.year if r else None for r in (ndjson, raw)] == [expected, expected]
