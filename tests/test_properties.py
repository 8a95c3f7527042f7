"""Property-based invariants over classification, estimation and analytics."""

import contextlib
import dataclasses
import io
import itertools
import json
import random
import re
import tempfile
import time
from datetime import datetime, timedelta, timezone
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from ccp_miner.analytics import winsorize
from ccp_miner.classifier import classify_message, english_hit_rate
from ccp_miner.cli import main
from ccp_miner.errors import InputError
from ccp_miner.estimator import (
    ModelPerformance,
    estimate_ccp,
    rank_on_scale,
)
from ccp_miner.ingestion import (
    MIN_COMMITS,
    RECORD_BLOCK,
    SHARED_HASHES,
    ProjectDescriptor,
    _ndjson_record,
    _raw_record,
    select_projects,
)
from ccp_miner.stats import co_change, load_series_csv, twin_analysis

from conftest import CELL_LINES, FIXTURES
from test_analyze_reference import REPO_IDS, YEAR, _project, _project_commits

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
            rank_on_scale(lo, distribution_table).lower_percentile
            >= rank_on_scale(hi, distribution_table).lower_percentile
        )


class TestLabeledCorpusExits:
    @given(
        st.lists(st.sampled_from(sorted(CELL_LINES)), max_size=8),
        st.sampled_from([("validate-model",), ("bootstrap",), ("bootstrap", "--sensitivity")]),
        st.sampled_from([1, 2, 3, 7, 50, 100]),
        st.integers(0, 20),
        st.sampled_from(["corpus", "config"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_small_corpora_end_with_a_report_or_an_input_error(
        self, cells, command, iterations, seed, perf_source
    ):
        """No labeled corpus is an internal error (exit 4), and none runs without end."""
        with tempfile.TemporaryDirectory() as tmp:
            corpus = Path(tmp) / "corpus.tsv"
            corpus.write_text("".join(CELL_LINES[cell] for cell in cells))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([
                    "--seed", str(seed), *command[:1], str(corpus), *command[1:],
                    "--iterations", str(iterations), "--perf-source", perf_source,
                ])
        assert code in (0, 3), err.getvalue()
        assert (code == 0) == (err.getvalue() == "")


def _bundled(name: str) -> str:
    return resources.files("ccp_miner.data").joinpath(name).read_text(encoding="utf-8")


_LOG = str(FIXTURES / "log_small.ndjson")
_ENTITY_SERIES = "entity,year,value\np,2018,0.5\np,2019,0.3\nq,2018,1.0\nq,2019,2.0\n"
_DEVELOPER_SERIES = (
    "developer,project,year,value\nann,p,2019,0.1\nann,q,2019,0.4\nbob,p,2019,0.2\n"
    "bob,q,2019,0.3\n"
)
_RAW_LOG = (
    "\x1eaaa\x1fann@x\x1f2019-01-01T00:00:00+00:00\x1fp\x1ffix crash\x1f\nsrc/a.c\n"
    "\x1ebbb\x1fbob@x\x1f2019-02-01T10:00:00+02:00\x1fp q\x1fadd feature\n\nbody\x1f\n"
    "src/b.c\nsrc/c.c\n"
)
# A good file of each input kind, and a command that reads it from "{path}"; a
# CCP_MINER_CONFIG file is named by the variable.
_INPUT_KINDS = {
    "projects-csv": (
        "repo_id,owner,name,is_fork\nacme/widget,acme,widget,no\nacme/gadget,acme,gadget,yes\n",
        ["--year", "2019", "--enforce-selection", "analyze", _LOG, "--projects", "{path}"],
    ),
    "head-listing": (
        "path,size_bytes\nsrc/main.c,1200\nsrc/auth.c,800\nsrc/auth.h,300\nREADME.md,90\n",
        ["analyze", _LOG, "--head-listing", "{path}"],
    ),
    "entity-series": (
        _ENTITY_SERIES, ["cochange", "--series-i", "{path}", "--series-j", "{good}"]
    ),
    "developer-series": (
        _DEVELOPER_SERIES, ["twin", "--dev-series", "{path}", "--project-series", "{good}"]
    ),
    "term-model": (_bundled("default_model.terms"), ["--model", "{path}", "classify", _LOG]),
    "english-model": (
        _bundled("english_top100.txt"), ["--english-model", "{path}", "analyze", _LOG]
    ),
    "perf-config": (_bundled("performance.cfg"), ["--perf", "{path}", "analyze", _LOG]),
    "distribution-table": (
        _bundled("ccp_distribution.csv"), ["--table", "{path}", "rank", "--ccp", "0.2"]
    ),
    "config-file": ("seed=3\nyear=2019\nformat=json\nenforce_selection=no\n", ["analyze", _LOG]),
    "ndjson-log": (Path(_LOG).read_text(encoding="utf-8"), ["analyze", "{path}"]),
    "raw-log": (_RAW_LOG, ["analyze", "{path}", "--input-format", "git", "--repo", "widget"]),
}
# Tokens an edit may insert: bytes and numbers readers must refuse or survive,
# regex metacharacters, line and field separators, and section headers.
_FUZZ_TOKENS = [
    "\x00", "nan", "NaN", "inf", "-inf", "1e400", "9" * 5000, "-1", "0", "(", ")", "[", "]",
    "{", "}", "*", "+", "?", "\\", "|", "^", "$", ".", "\ufeff", "\x85", "\x1c", "\x1d",
    "\x1e", "\x1f", "\n", "\r", ",", "=", ":", '"', "[fix]", "[negation]", "[other]",
    "model_id:",
]


@st.composite
def _mutated(draw, text: str) -> str:
    """``text`` after one to four edits, each inserting or deleting one token."""
    tokens = re.findall(r"\w+|\W", text)
    own = st.sampled_from(sorted(set(tokens)))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(tokens)))
        if i < len(tokens) and draw(st.booleans()):
            del tokens[i]
        else:
            tokens.insert(i, draw(st.sampled_from(_FUZZ_TOKENS) | own))
    return "".join(tokens)


class TestInputKindExits:
    @pytest.mark.parametrize("kind", sorted(_INPUT_KINDS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_mutated_input_ends_with_a_report_or_an_error_naming_it(self, kind, data):
        """Exit 0, or 2 or 3 with a message naming the file; never exit 4."""
        good, argv = _INPUT_KINDS[kind]
        text = data.draw(_mutated(good), label="text")
        with tempfile.TemporaryDirectory() as tmp:
            path, other = Path(tmp) / "input", Path(tmp) / "good.csv"
            path.write_text(text, encoding="utf-8", newline="")
            other.write_text(_ENTITY_SERIES)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.ExitStack() as stack:
                if kind == "config-file":
                    stack.enter_context(pytest.MonkeyPatch.context()).setenv(
                        "CCP_MINER_CONFIG", str(path)
                    )
                stack.enter_context(contextlib.redirect_stdout(out))
                stack.enter_context(contextlib.redirect_stderr(err))
                code = main([arg.format(path=path, good=other) for arg in argv])
        assert code in (0, 2, 3), err.getvalue()
        assert (code == 0) == (err.getvalue() == ""), err.getvalue()
        if code:
            assert str(path) in err.getvalue()


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


    @given(
        st.lists(st.sampled_from([0, 1, 49, 50, 51]), min_size=1, max_size=4),
        st.sampled_from([0, 1, 50]),
        st.booleans(),
    )
    def test_dominated_by_one_larger_project_not_by_several_together(
        self, shares, common, takes_common
    ):
        """A project sharing ``shares[i]`` hashes with larger project i, and each
        larger one holding ``common`` hashes of all of them, which the project
        holds too when ``takes_common``: it is dominated exactly when one larger
        project shares more than SHARED_HASHES hashes with it."""
        common_hashes = {f"c{j}" for j in range(common)}
        larger = []
        own = {f"own{j}" for j in range(MIN_COMMITS)}
        for i, share in enumerate(shares):
            given_away = {f"x{i}-{j}" for j in range(share)}
            own |= given_away
            hashes = {f"l{i}-{j}" for j in range(500)} | common_hashes | given_away
            larger.append(ProjectDescriptor(f"big/p{i}", "big", f"p{i}", False,
                                            frozenset(hashes), len(hashes)))
        if takes_common:
            own |= common_hashes
        small = ProjectDescriptor("small/p", "small", "p", False, frozenset(own), len(own))
        result = select_projects([small, *larger])
        dominated = max(shares) + (common if takes_common else 0) > SHARED_HASHES
        kept = larger if dominated else [small, *larger]
        assert [p.repo_id for p in result.accepted] == [p.repo_id for p in kept]


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
        i = {e: {2018: 0.0, 2019: di} for e, (di, _) in changes.items()}
        j = {e: {2018: 0.0, 2019: dj} for e, (_, dj) in changes.items()}
        forward = co_change(i, j)
        backward = co_change(j, i)
        if forward.lift is None or backward.lift is None:
            assert forward.lift == backward.lift
        else:
            assert abs(forward.lift - backward.lift) <= 1e-9


# Metric series for the relations of `cochange` and `twin`: few names and years,
# so that entities overlap, and values from a small set besides any float, so
# that ties and gaps of exactly a threshold occur. A series is keyed by a tuple
# of names: (entity,) or (developer, project).
_NAMES = ("e0", "e1", "e2", "e3", "e4")
_DEVS = ("ann", "bob", "cy")
_value = st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.75, 1.0]) | st.floats(-1e3, 1e3)
_points = st.dictionaries(st.integers(2017, 2019), _value, min_size=2)
_entity = st.tuples(st.sampled_from(_NAMES))


def _rows(series: dict[tuple, dict[int, float]]) -> list[tuple]:
    """The CSV rows ``(*key, year, value)`` of the series."""
    return [(*key, year, value) for key, points in series.items() for year, value in points.items()]


_entity_rows = st.dictionaries(_entity, _points, min_size=3).map(_rows)
# Two series of the same entities, so that adjacent-year pairs overlap.
_paired_rows = st.dictionaries(_entity, st.tuples(_points, _points), min_size=1).map(
    lambda series: tuple(_rows({key: pair[k] for key, pair in series.items()}) for k in (0, 1))
)
# Each developer in two projects or more, so that project pairs occur.
_dev_rows = st.dictionaries(
    st.sampled_from(_DEVS), st.dictionaries(st.sampled_from(_NAMES), _points, min_size=2),
    min_size=1,
).map(lambda devs: _rows({(d, p): points for d, ps in devs.items() for p, points in ps.items()}))
_stats_flags = st.fixed_dictionaries(
    {"delta": st.sampled_from([0.0, 0.1, 0.5]), "comparator": st.sampled_from(
        ["auto", "strict", "inclusive"]), "sign": st.sampled_from([-1, 1])}
)


def _stats_run(files: dict[str, list[tuple]], argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``argv``, with the CSV files of ``files`` written.

    Each file is a header and rows; the files are written under the same
    names every time, and stderr reads their directory as ``{tmp}``, so a
    report or an error may name them and stay comparable.
    """
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, (header, *rows) in files.items():
            lines = [",".join(header), *(",".join(map(str, row)) for row in rows)]
            (Path(tmp) / name).write_text("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(tmp=tmp) for arg in argv])
    return code, out.getvalue(), err.getvalue().replace(tmp, "{tmp}")


class TestStatsRelations:
    """Three relations that leave a `cochange` or `twin` report byte-identical.

    Negating every value while flipping each improvement sign, permuting
    the CSV rows, and renaming entities one to one (developers and projects
    apart) change no comparison the studies make.
    """

    @staticmethod
    def _negated(rows: list[tuple]) -> list[tuple]:
        return [(*row[:-1], -row[-1]) for row in rows]

    @given(_paired_rows, _stats_flags, st.sampled_from([-1, 1]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_cochange(self, rows, flags, sign_j, data):
        header = ("entity", "year", "value")
        rows_i, rows_j = rows

        def run(rows_i, rows_j, sign_i, sign_j):
            return _stats_run(
                {"i.csv": [header, *rows_i], "j.csv": [header, *rows_j]},
                ["cochange", "--series-i", "{tmp}/i.csv", "--series-j", "{tmp}/j.csv",
                 "--delta-i", str(flags["delta"]), "--delta-j", "0.1",
                 "--comparator", flags["comparator"],
                 "--sign-i", str(sign_i), "--sign-j", str(sign_j)],
            )

        sign_i = flags["sign"]
        report = run(rows_i, rows_j, sign_i, sign_j)
        assert report[0] in (0, 3), report[2]
        negated = run(self._negated(rows_i), self._negated(rows_j), -sign_i, -sign_j)
        assert negated == report
        permuted = run(data.draw(st.permutations(rows_i)), data.draw(st.permutations(rows_j)),
                       sign_i, sign_j)
        assert permuted == report
        names = dict(zip(_NAMES, data.draw(st.permutations([f"r{n}" for n in _NAMES]))))
        renamed = run([(names[e], *rest) for e, *rest in rows_i],
                      [(names[e], *rest) for e, *rest in rows_j], sign_i, sign_j)
        assert renamed == report

    @given(_dev_rows, _entity_rows, _stats_flags, st.data())
    @settings(max_examples=30, deadline=None)
    def test_twin(self, dev_rows, project_rows, flags, data):
        dev_header, project_header = ("developer", "project", "year", "value"), (
            "entity", "year", "value")

        def run(dev_rows, project_rows, sign):
            return _stats_run(
                {"dev.csv": [dev_header, *dev_rows], "proj.csv": [project_header, *project_rows]},
                ["twin", "--dev-series", "{tmp}/dev.csv", "--project-series", "{tmp}/proj.csv",
                 "--delta-project", str(flags["delta"]), "--delta-dev", "0.1",
                 "--comparator", flags["comparator"], "--sign", str(sign)],
            )

        sign = flags["sign"]
        report = run(dev_rows, project_rows, sign)
        assert report[0] in (0, 3), report[2]
        negated = run(self._negated(dev_rows), self._negated(project_rows), -sign)
        assert negated == report
        permuted = run(data.draw(st.permutations(dev_rows)),
                       data.draw(st.permutations(project_rows)), sign)
        assert permuted == report
        devs = dict(zip(_DEVS, data.draw(st.permutations([f"d{d}" for d in _DEVS]))))
        projects = dict(zip(_NAMES, data.draw(st.permutations([f"p{n}" for n in _NAMES]))))
        renamed = run([(devs[d], projects[p], *rest) for d, p, *rest in dev_rows],
                      [(projects[p], *rest) for p, *rest in project_rows], sign)
        assert renamed == report


def _twin_oracle(dev_rows, project_rows, delta_project, delta_dev, sign, comparator):
    """The `twin_analysis` report of these CSV rows, by brute force from its docstring.

    A case is a developer, a year and two projects, each with a row of the
    developer's in that year and a project row in that year. It qualifies when
    one project is better than the other by more than ``delta_project``, and
    succeeds when the developer's own value is better in the better project by
    more than ``delta_dev``. "Better by more than" compares ``sign`` times the
    difference with the threshold: strictly, or inclusively for ``inclusive``
    and for ``auto`` at a positive threshold. Each ordered pair of the
    developer's rows is tried as (better, worse), so a pair of projects counts
    once. None when no case qualifies.
    """

    def beats(gap, delta):
        inclusive = comparator == "inclusive" or (comparator == "auto" and delta > 0)
        return gap >= delta if inclusive else gap > delta

    def project_value(project, year):
        values = [v for p, y, v in project_rows if (p, y) == (project, year)]
        return values[0] if values else None

    qualifying = successes = 0
    for dev_a, project_a, year_a, value_a in dev_rows:
        for dev_b, project_b, year_b, value_b in dev_rows:
            if (dev_a, year_a) != (dev_b, year_b) or project_a == project_b:
                continue
            better, worse = project_value(project_a, year_a), project_value(project_b, year_b)
            if better is None or worse is None:
                continue
            gap = sign * (better - worse)
            if gap > 0 and beats(gap, delta_project):
                qualifying += 1
                successes += beats(sign * (value_a - value_b), delta_dev)
    if not qualifying:
        return None
    return {
        "n_developer_pairs": qualifying,
        "precision": successes / qualifying,
        "delta_project": delta_project,
        "delta_dev": delta_dev,
        "comparator": ("strict" if delta_project == 0 else "inclusive")
        if comparator == "auto" else comparator,
    }


class TestTwinOracle:
    @given(_dev_rows, _entity_rows)
    @settings(max_examples=40, deadline=None)
    def test_twin_analysis_reports_the_brute_force_count(self, dev_rows, project_rows):
        """Every sign, comparator and pair of thresholds, on the series the CSV loader reads."""
        with tempfile.TemporaryDirectory() as tmp:
            files = {"dev.csv": [("developer", "project", "year", "value"), *dev_rows],
                     "proj.csv": [("entity", "year", "value"), *project_rows]}
            for name, rows in files.items():
                (Path(tmp) / name).write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
            dev_series = load_series_csv(Path(tmp) / "dev.csv", ("developer", "project"))
            project_series = load_series_csv(Path(tmp) / "proj.csv")
        for flags in itertools.product(
            [0.0, 0.25, 0.5], [0.0, 0.25, 0.5], [-1, 1], ["auto", "strict", "inclusive"]
        ):
            expected = _twin_oracle(dev_rows, project_rows, *flags)
            try:
                report = dataclasses.asdict(twin_analysis(dev_series, project_series, *flags))
            except InputError:
                report = None
            assert report == expected, flags


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

    @given(
        st.lists(_commit.map(lambda c: {**c, "repo": "acme/widget"}), min_size=1, max_size=12),
        st.integers(0, 60),
    )
    @example(commits=[{"repo": "acme/widget", "hash": "h0", "author": "ann@x", "msg": "fix typo",
                       "ts": "2019-01-01T00:00:00+00:00", "files": ["a.c"]}], shift=0)
    @settings(max_examples=30, deadline=None)
    def test_line_ends_do_not_change_the_raw_log_report(self, commits, shift):
        """A padding commit ends ``shift`` characters before the reader's first block does.

        At shift 0 the padding's last line end (a CRLF, a CR or an LF) ends
        the block and the next record's \\x1e starts the second one.
        """
        pad = {"hash": "pad", "author": "pad@x", "ts": "2019-03-01T00:00:00+00:00", "msg": ""}
        room = RECORD_BLOCK - shift - len(_raw_chunk(pad))
        pad["msg"] = ("update docs" + "\n" + "x" * 79) * (room // 91 + 1)
        pad["msg"] = pad["msg"][: room - 1] + "y"
        text = "".join(_raw_chunk(c) for c in [pad, *commits])
        text = text.replace("\r\n", "\n")
        assert text[RECORD_BLOCK - shift - 1 : RECORD_BLOCK - shift + 1] == "\n\x1e"
        reports = {
            _analyze(text.replace("\n", end), after=("--input-format", "git", "--repo", "r"))
            for end in ("\n", "\r\n", "\r")
        }
        assert len(reports) == 1
        projects = json.loads(reports.pop())["projects"]
        assert sum(p["n_commits"] for p in projects) == 1 + len({c["hash"] for c in commits})

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
        raw = _raw_record(_raw_chunk(commit).lstrip("\x1e"), "acme/widget", {}.setdefault)
        try:
            # An offset-less timestamp is UTC, whatever the host's zone.
            expected = ts.replace(tzinfo=ts.tzinfo or timezone.utc).astimezone(timezone.utc).year
        except OverflowError:  # the UTC instant is outside years 1-9999: skipped as bad
            expected = None
        # Each is (repo, (hash, author, year, ...)), or None when skipped.
        assert [r[1][2] if r else None for r in (ndjson, raw)] == [expected, expected]


def _selection_report(commits: list[dict], metadata: list[tuple]) -> dict:
    """The `analyze --year YEAR --enforce-selection` report of the commits and metadata rows."""
    rows = "".join(f"{r},{o},{n},{'true' if f else 'false'}\n" for r, o, n, f in metadata)
    with tempfile.TemporaryDirectory() as tmp:
        projects = Path(tmp) / "projects.csv"
        projects.write_text("repo_id,owner,name,is_fork\n" + rows)
        report = _analyze(
            "\n".join(json.dumps(c) for c in commits),
            before=("--year", str(YEAR), "--enforce-selection"),
            after=("--projects", str(projects)),
        )
    return json.loads(report)


# About one in five IN_YEAR stamps falls outside YEAR in UTC, so 300 commits
# keep a project above the 200-commit minimum and 260 put it near it.
_selection_project = st.fixed_dictionaries(
    {
        "in_year": st.sampled_from([0, 150, 260, 300, 300, 300]),
        "other_years": st.sampled_from([0, 3, 20]),
        "shared": st.sampled_from([0, 0, 0, 51, 120]),
        "metadata": st.none() | _project.map(lambda spec: spec["metadata"]),
    }
)


@st.composite
def _selection_corpora(draw):
    """Projects around the selection thresholds: their commits in log order, metadata and a seed."""
    repo_ids = draw(st.lists(st.sampled_from(REPO_IDS), min_size=1, max_size=5, unique=True))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    commits, metadata = [], []
    for repo_id in repo_ids:
        spec = draw(_selection_project)
        commits += _project_commits(rng, repo_id, spec)
        if spec["metadata"] is not None:
            metadata.append((repo_id, *spec["metadata"]))
    assume(commits)  # an input without a commit is an input error
    rng.shuffle(commits)
    return commits, metadata, rng.getrandbits(32)


def _mixed_in(commits: list[dict], added: list[dict], seed: int) -> list[dict]:
    """``commits`` with the ``added`` ones inserted at random places, each keeping its order."""
    rng = random.Random(seed)
    mixed = list(commits)
    for commit in added:
        mixed.insert(rng.randrange(len(mixed) + 1), commit)
    return mixed


def _repo_ids(commits: list[dict], metadata: list[tuple]) -> set[str]:
    return {c["repo"] for c in commits} | {row[0] for row in metadata}


def _owners(commits: list[dict], metadata: list[tuple]) -> list[str]:
    """The owners a project of the input may have, and one that owns nothing else."""
    owners = {repo.partition("/")[0] for repo in _repo_ids(commits, metadata)}
    return sorted(owners | {row[1] for row in metadata if row[1]}) + ["new"]


class TestSelectionRelations:
    """Metamorphic relations of selection (Chen, Cheung & Yiu, 1998)."""

    @staticmethod
    def _only_added_is_excluded(before: dict, after: dict, added: str, rules: set[str]):
        added_rules = [e["rule"] for e in after["exclusions"] if e["repo_id"] == added]
        assert len(added_rules) == 1 and added_rules[0] in rules
        after["exclusions"] = [e for e in after["exclusions"] if e["repo_id"] != added]
        assert after == before

    @given(_selection_corpora(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_adding_a_fork_changes_only_exclusions(self, corpus, data):
        commits, metadata, seed = corpus
        source = data.draw(st.sampled_from(sorted({c["repo"] for c in commits})))
        owner = data.draw(st.sampled_from(_owners(commits, metadata)))
        fork = f"{owner}/{source.rpartition('/')[2]}"
        assume(fork not in _repo_ids(commits, metadata))
        copies = [{**c, "repo": fork} for c in commits if c["repo"] == source]
        extra = data.draw(st.integers(0, 30))
        own = [{**c, "hash": f"{fork}-{i}"} for i, c in enumerate(copies[:extra])]
        row = (fork, data.draw(st.sampled_from(["", owner])), "", True)
        before = _selection_report(commits, metadata)
        after = _selection_report(_mixed_in(commits, copies + own, seed), [*metadata, row])
        self._only_added_is_excluded(before, after, fork, {"fork", "min_commits"})

    @given(_selection_corpora(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_adding_a_project_under_the_commit_minimum_changes_only_exclusions(
        self, corpus, data
    ):
        commits, metadata, seed = corpus
        owners = _owners(commits, metadata)
        name = data.draw(st.sampled_from(["alpha", "beta", "gamma"]))
        small = f"{data.draw(st.sampled_from(owners))}/{name}"
        assume(small not in _repo_ids(commits, metadata))
        shared = data.draw(st.sampled_from([0, 50, 120]))
        spec = {
            "shared": shared,
            "in_year": data.draw(st.integers(0, 199 - shared)),
            "other_years": data.draw(st.sampled_from([0, 20, 300])),
        }
        added = _project_commits(random.Random(seed), small, spec)
        assume(added)
        rows = list(metadata)
        if data.draw(st.booleans()):
            rows.append((small, data.draw(st.sampled_from(["", *owners])), "", False))
        before = _selection_report(commits, metadata)
        after = _selection_report(_mixed_in(commits, added, seed), rows)
        self._only_added_is_excluded(before, after, small, {"min_commits"})

    @given(_selection_corpora(), st.sampled_from(["q", "a", "zz", "0-"]))
    @settings(max_examples=30, deadline=None)
    def test_renaming_repos_in_order_renames_the_report(self, corpus, prefix):
        commits, metadata, _ = corpus

        def rename(text: str) -> str:
            # The same prefix at the start and after each "/" keeps every comparison of ids,
            # owners and names, and derives the renamed owner and name from a renamed id.
            return prefix + text.replace("/", "/" + prefix) if text else text

        renamed = _selection_report(
            [{**c, "repo": rename(c["repo"])} for c in commits],
            [(rename(r), rename(o), rename(n), f) for r, o, n, f in metadata],
        )
        expected = _selection_report(commits, metadata)
        for entry in [*expected["exclusions"], *expected["projects"], *expected["rows"]]:
            entry["repo_id"] = rename(entry["repo_id"])
        assert renamed == expected
