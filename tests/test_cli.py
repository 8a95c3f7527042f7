"""End-to-end CLI tests driven through main() with captured stdout."""

import json
import os
import re
import subprocess
import sys
from concurrent.futures import wait
from dataclasses import asdict
from pathlib import Path

import pytest

from ccp_miner import classifier, estimator, ingestion, stats
from ccp_miner.cli import (
    CONFIG_ENV_VAR,
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    _parse_segments,
    build_parser,
    main,
)
from ccp_miner.errors import InputError

from conftest import CELL_LINES, FIXTURES

LOG = str(FIXTURES / "log_small.ndjson")
MALFORMED = str(FIXTURES / "log_malformed.ndjson")
GOLD = str(FIXTURES / "gold_corpus.tsv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_ndjson_stream(self, capsys):
        code, out, _ = run(capsys, "classify", LOG)
        assert code == EXIT_OK
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert len(lines) == 5
        assert {"hash", "corrective", "score", "fix_hits"} <= set(lines[0])
        # one line per commit, in input order
        assert [l["hash"] for l in lines] == ["a1", "a2", "a3", "a4", "a5"]
        assert [l["corrective"] for l in lines] == [True, False, False, True, False]

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run(capsys, "classify", "/nonexistent.ndjson")
        assert code == EXIT_INPUT
        assert "input error" in err

    def test_raw_git_format(self, capsys, tmp_path):
        raw = tmp_path / "widget.log"
        raw.write_text(
            "\x1eaaa\x1fann@x\x1f2019-01-01T00:00:00+00:00\x1fp\x1ffix crash\x1f\nsrc/a.c\n"
        )
        code, out, _ = run(capsys, "classify", str(raw), "--input-format", "git")
        assert code == EXIT_OK
        [line] = [json.loads(l) for l in out.strip().splitlines()]
        assert line["hash"] == "aaa"
        assert line["corrective"]


class TestAnalyzeCommand:
    def test_json_report_shape(self, capsys):
        code, out, _ = run(capsys, "analyze", LOG)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["report_type"] == "analyze"
        assert {"tool_version", "model_id", "recall", "fpr", "seed", "config_hash"} <= set(
            report["meta"]
        )
        [project] = report["projects"]
        assert project["repo_id"] == "acme/widget"
        assert project["n_commits"] == 5

    def test_small_project_gets_diagnostics(self, capsys):
        # 5 commits with 3 hits: hit rate 0.6 is above the valid domain
        code, out, _ = run(capsys, "analyze", LOG)
        report = json.loads(out)
        [project] = report["projects"]
        if project["ccp"]["status"] == "Valid":
            assert "band" in project
        else:
            diag = project["diagnostics"]
            assert 0.0 <= diag["english_hit_rate"] <= 1.0
            assert diag["median_message_chars"] > 0

    def test_raw_chunk_with_an_empty_hash_is_skipped(self, capsys, tmp_path):
        raw = tmp_path / "widget.log"
        raw.write_text(
            "\x1eaaa\x1fann@x\x1f2019-01-01T00:00:00+00:00\x1fp\x1ffix crash\x1f\nsrc/a.c\n"
            "\x1e\x1fann@x\x1f2019-01-01T00:00:00+00:00\x1fp\x1ffix crash\x1f"
        )
        code, out, _ = run(capsys, "analyze", str(raw), "--input-format", "git")
        assert code == EXIT_OK
        assert json.loads(out)["skipped_lines"] == 1

    def test_same_file_twice_counts_each_commit_once(self, capsys):
        _, once, _ = run(capsys, "analyze", LOG)
        code, twice, _ = run(capsys, "analyze", LOG, LOG)
        assert code == EXIT_OK
        once, twice = json.loads(once), json.loads(twice)
        lines = sum(1 for line in Path(LOG).read_text().splitlines() if line.strip())
        assert twice["skipped_lines"] == once["skipped_lines"] + lines
        assert {**twice, "skipped_lines": once["skipped_lines"]} == once

    def test_file_without_a_record_is_named_after_a_good_one(self, capsys, tmp_path):
        garbage = tmp_path / "garbage.ndjson"
        garbage.write_text("not json\n")
        code, _, err = run(capsys, "analyze", LOG, str(garbage))
        assert code == EXIT_INPUT
        assert str(garbage) in err

    def test_skipped_lines_reported(self, capsys):
        code, out, _ = run(capsys, "analyze", MALFORMED)
        assert code == EXIT_OK
        assert json.loads(out)["skipped_lines"] == 1

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "--seed", "7", "analyze", LOG)
        _, second, _ = run(capsys, "--seed", "7", "analyze", LOG)
        assert first == second

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "analyze", LOG)
        assert code == EXIT_OK
        header = out.splitlines()[0]
        assert "repo_id" in header and "ccp_raw" in header

    def test_csv_format_with_no_rows_prints_the_header(self, capsys):
        code, out, _ = run(
            capsys, "--format", "csv", "--year", "2020", "--enforce-selection", "analyze", LOG
        )
        assert code == EXIT_OK
        assert out.splitlines() == [
            "repo_id,year,n_commits,k_hits,coupling,coupling_by_file,speed,retention,"
            "onboarding,dominant_language,avg_file_kb,hit_rate,ccp_raw,ccp_status"
        ]

    def test_year_filter(self, capsys):
        code, out, _ = run(capsys, "--year", "2018", "analyze", MALFORMED)
        assert code == EXIT_OK
        [project] = json.loads(out)["projects"]
        assert project["year"] == 2018
        assert project["n_commits"] == 1

    def test_enforce_selection_requires_year(self, capsys):
        code, _, err = run(capsys, "--enforce-selection", "analyze", LOG)
        assert code == EXIT_CONFIG
        assert "configuration error" in err

    def test_enforce_selection_without_year_is_checked_before_any_input(self, capsys, tmp_path):
        missing = tmp_path / "missing.ndjson"
        code, _, err = run(capsys, "--enforce-selection", "analyze", str(missing))
        assert code == EXIT_CONFIG
        assert err == "configuration error: --enforce-selection requires --year\n"

    def test_config_file_enforce_selection_without_year_is_checked_before_any_input(
        self, capsys, tmp_path, monkeypatch
    ):
        config = tmp_path / "miner.cfg"
        config.write_text("enforce_selection=true\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(config))
        code, _, err = run(capsys, "analyze", str(tmp_path / "missing.ndjson"))
        assert code == EXIT_CONFIG
        assert err == "configuration error: --enforce-selection requires --year\n"

    def test_onboarding_counts_authors_of_every_earlier_year(self, capsys, tmp_path):
        # author -> commits per year; 12 non-merge commits make an author
        # involved. The 2016 authors a6..a11 return in 2018 and are not new
        # there, so 2017 onboards m0..m4 of ten new authors.
        def authors(prefix, count, involved=0, start=0):
            return {f"{prefix}{i}": 12 if i < involved else 1 for i in range(start, count)}

        commits = {
            2016: authors("a", 12),
            2017: authors("a", 6) | authors("n", 12, involved=3),
            2018: authors("a", 12, start=6) | authors("m", 10, involved=5),
            2019: {"m0": 1} | authors("p", 11, involved=1),
        }
        lines = [
            json.dumps({"repo": "o/r", "hash": f"{year}-{author}-{j}", "author": author,
                        "ts": f"{year}-05-01T00:00:00+00:00", "msg": "update docs"})
            for year, per_author in commits.items()
            for author, n in per_author.items()
            for j in range(n)
        ]
        log = tmp_path / "years.ndjson"
        log.write_text("\n".join(lines) + "\n")
        expected = {2016: 3 / 12, 2017: 5 / 10, 2018: 1 / 11, 2019: None}

        code, out, _ = run(capsys, "analyze", str(log))
        assert code == EXIT_OK
        assert {p["year"]: p["onboarding"] for p in json.loads(out)["projects"]} == expected
        for year, onboarding in expected.items():
            code, out, _ = run(capsys, "--year", str(year), "analyze", str(log))
            assert code == EXIT_OK
            [project] = json.loads(out)["projects"]
            assert (project["year"], project["onboarding"]) == (year, onboarding)

    @pytest.mark.parametrize(
        "rows,detail",
        [
            ("acme/widget,acme,widget,true\nacme/widget,acme,widget,false\n",
             "line 3: repo_id 'acme/widget' is listed twice"),
            ("acme/widget,acme,widget,ture\n",
             "line 2: is_fork 'ture' is not one of 1/0/true/false/yes/no"),
            ("acme/widget,,gadget,false\n", "line 2: owner is empty"),
            ("acme/widget,acme,widget,no\nacme/gadget,acme,,no\n", "line 3: name is empty"),
        ],
        ids=["repeated-repo-id", "is-fork-typo", "empty-owner", "empty-name"],
    )
    def test_bad_metadata_row_is_a_named_input_error(self, capsys, tmp_path, rows, detail):
        projects = tmp_path / "projects.csv"
        projects.write_text("repo_id,owner,name,is_fork\n" + rows)
        code, _, err = run(
            capsys, "--year", "2019", "--enforce-selection", "analyze", LOG,
            "--projects", str(projects),
        )
        assert code == EXIT_INPUT
        assert err == f"input error: {str(projects)!r}: {detail}\n"

    def test_enforce_selection_excludes_small_project(self, capsys):
        code, out, _ = run(
            capsys, "--enforce-selection", "--year", "2019", "analyze", LOG
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["projects"] == []
        assert report["exclusions"] == [{"repo_id": "acme/widget", "rule": "min_commits"}]

    def test_head_listing_feeds_language_and_size(self, capsys, tmp_path):
        listing = tmp_path / "head.csv"
        rows = "\n".join(f"src/m{i}.py,2048" for i in range(10))
        listing.write_text("path,size_bytes\n" + rows + "\n")
        code, out, _ = run(capsys, "analyze", LOG, "--head-listing", str(listing))
        assert code == EXIT_OK
        [project] = json.loads(out)["projects"]
        assert project["dominant_language"] == "py"
        assert project["avg_file_kb"] == pytest.approx(2.0)


class TestRankCommand:
    def test_median_value(self, capsys):
        code, out, _ = run(capsys, "rank", "--ccp", "0.20")
        assert code == EXIT_OK
        band = json.loads(out)["band"]
        assert (band["lower_percentile"], band["upper_percentile"]) == (50, 60)


class TestValidateModelCommand:
    def test_gold_corpus_report(self, capsys):
        code, out, _ = run(capsys, "validate-model", GOLD, "--iterations", "200")
        assert code == EXIT_OK
        report = json.loads(out)
        matrix = report["confusion_matrix"]
        assert matrix["tp"] + matrix["fn"] + matrix["fp"] + matrix["tn"] >= 40
        assert matrix["accuracy"] >= 0.9
        boot = report["bootstrap"]
        assert boot["interval_low"] <= boot["mean_difference"] <= boot["interval_high"]

    def test_missing_corpus(self, capsys):
        code, _, _ = run(capsys, "validate-model", "/nonexistent.tsv")
        assert code == EXIT_INPUT


class TestBootstrapCommand:
    def test_with_sensitivity(self, capsys):
        code, out, _ = run(
            capsys, "bootstrap", GOLD, "--iterations", "100", "--sensitivity"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert "difference" in report
        segments = report["sensitivity"]["segments"]
        assert [s["segment"][0] for s in segments] == [0.0, 0.042, 0.06]

    def test_defaults_are_the_estimators(self):
        args = build_parser().parse_args(["bootstrap", GOLD])
        assert args.iterations == estimator.DEFAULT_ITERATIONS
        assert args.coverage == estimator.DEFAULT_COVERAGE
        assert args.segments is None  # the command resolves it; see test_with_sensitivity
        segments = _parse_segments("0.0:1.0,0.042:0.84,0.06:0.39")
        assert segments == estimator.DEFAULT_SENSITIVITY_SEGMENTS

    def test_malformed_segments(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["bootstrap", GOLD, "--sensitivity", "--segments", "nope"])
        assert caught.value.code == EXIT_CONFIG
        assert "argument --segments: malformed segments 'nope'" in capsys.readouterr().err

    def test_deterministic_across_processes(self, capsys):
        _, first, _ = run(capsys, "--seed", "3", "bootstrap", GOLD, "--iterations", "150")
        _, second, _ = run(capsys, "--seed", "3", "bootstrap", GOLD, "--iterations", "150")
        assert first == second


@pytest.fixture
def rows_drawn(monkeypatch):
    """Resample rows drawn from every generator the estimator makes, per draw."""
    import numpy as np

    default_rng = np.random.default_rng
    drawn = []

    class CountingGenerator:
        def __init__(self, seed):
            self._rng = default_rng(seed)
            self.bit_generator = self._rng.bit_generator

        def integers(self, low, high, size):
            drawn.append(size[0])
            return self._rng.integers(low, high, size=size)

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    return drawn


class TestSharedFirstDraw:
    ARGS = ("--seed", "3", "bootstrap", GOLD, "--iterations", "300")
    STEP = 50  # rows per block, with RESAMPLE_BLOCK set to 50 rows of the 44-item gold corpus

    def _blocks_read(self, out: str) -> int:
        """The blocks that the two studies of a report read, rows [0, 600 + redraws)."""
        rows = 300 + json.loads(out)["sensitivity"]["redraws"] + 300
        return -(-rows // self.STEP)

    def test_report_equals_the_two_studies_run_apart(self, capsys):
        from ccp_miner import classifier

        code, out, _ = run(capsys, *self.ARGS, "--sensitivity")
        assert code == EXIT_OK
        _, plain, _ = run(capsys, *self.ARGS)
        corpus = classifier.load_labeled_corpus(GOLD)
        with estimator.Resamples(len(corpus), 3) as resamples:
            sensitivity = estimator.estimator_sensitivity(
                corpus, classifier.load_default_term_model(), resamples, iterations=300
            )
        report = json.loads(out)
        assert report["difference"] == json.loads(plain)["difference"]
        assert report["sensitivity"] == json.loads(json.dumps(asdict(sensitivity)))

    def test_first_draw_is_made_once(self, capsys, monkeypatch, rows_drawn):
        """The blocks read and at most QUEUED_BLOCKS more; drawing 300 rows twice adds six."""
        monkeypatch.setattr(estimator, "RESAMPLE_BLOCK", 44 * self.STEP)
        code, out, _ = run(capsys, *self.ARGS, "--sensitivity")
        assert code == EXIT_OK
        assert set(rows_drawn) == {self.STEP}
        read = self._blocks_read(out)
        assert read <= len(rows_drawn) <= read + estimator.QUEUED_BLOCKS

    def test_nothing_is_kept_after_the_command(self, capsys, rows_drawn, monkeypatch):
        """Each run draws every block it reads, after a failed run too; no stream outlives it."""
        import gc
        import weakref

        streams = []

        class Recorded(estimator.Resamples):
            def __init__(self, *args):
                super().__init__(*args)
                streams.append(weakref.ref(self))

        monkeypatch.setattr(estimator, "Resamples", Recorded)
        monkeypatch.setattr(estimator, "RESAMPLE_BLOCK", 44 * self.STEP)

        def blocks_drawn() -> tuple[int, int]:
            """The blocks that one run reads, and those that it draws."""
            rows_drawn.clear()
            code, out, _ = run(capsys, *self.ARGS, "--sensitivity")
            assert code == EXIT_OK
            return self._blocks_read(out), len(rows_drawn)

        for _ in range(2):
            read, drawn = blocks_drawn()
            assert drawn >= read

        def fail(*args, **kwargs):
            raise InputError("fails after the bootstrap's draw")

        with monkeypatch.context() as patch:
            patch.setattr(estimator, "estimator_sensitivity", fail)
            code, _, _ = run(capsys, *self.ARGS, "--sensitivity")
        assert code == EXIT_INPUT
        read, drawn = blocks_drawn()
        assert drawn >= read
        gc.collect()
        assert len(streams) == 4
        assert [stream() for stream in streams] == [None] * 4


class TestResampleThread:
    """The resample stream's worker ends with the command, whatever the exit."""

    ARGS = ("--seed", "3", "bootstrap", GOLD, "--iterations", "300", "--sensitivity")

    def _run(self, capsys, *argv):
        import threading

        before = threading.active_count()
        result = run(capsys, *argv)
        assert threading.active_count() == before
        return result

    def test_after_a_normal_run(self, capsys, started):
        code, out, _ = self._run(capsys, *self.ARGS)
        assert code == EXIT_OK
        code, _, _ = self._run(capsys, "validate-model", GOLD, "--iterations", "300")
        assert code == EXIT_OK
        assert started == ["resample_0", "resample_0"]

    def test_after_the_redraw_cap(self, capsys, tmp_path, started):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text(
            CELL_LINES["TP"] + CELL_LINES["TN"] + 200 * CELL_LINES["FN"] + 200 * CELL_LINES["FP"]
        )
        code, _, err = self._run(
            capsys, "bootstrap", str(corpus), "--sensitivity", "--perf-source", "config",
            "--iterations", "10",
        )
        assert code == EXIT_INPUT
        assert "too few valid resamples" in err
        assert started == ["resample_0"]

    def test_after_a_study_that_raises(self, capsys, monkeypatch, started):
        def fail(corpus, model, resamples, **kwargs):
            # the worker holds the blocks queued at the start, drawn
            assert not wait(resamples._blocks, timeout=30).not_done
            raise RuntimeError("the study failed")

        monkeypatch.setattr(estimator, "bootstrap_difference_distribution", fail)
        code, _, err = self._run(capsys, *self.ARGS)
        assert (code, err) == (EXIT_INTERNAL, "internal error: the study failed\n")
        assert started == ["resample_0"]

    def test_a_failing_generator_fails_the_command(self, capsys, monkeypatch, started):
        import numpy as np

        class Failing:
            def __init__(self, seed):
                pass

            def integers(self, *args, **kwargs):
                raise RuntimeError("no random numbers")

        monkeypatch.setattr(np.random, "default_rng", Failing)
        code, out, err = self._run(capsys, *self.ARGS)
        assert (code, out, err) == (EXIT_INTERNAL, "", "internal error: no random numbers\n")
        assert started == ["resample_0"]

    def test_an_oversized_corpus_starts_no_thread(self, capsys, monkeypatch, started, rows_drawn):
        monkeypatch.setattr(estimator, "MAX_RESAMPLE_ITEMS", 10)
        code, _, err = self._run(capsys, *self.ARGS)
        assert code == EXIT_INPUT
        assert err.startswith(f"input error: {GOLD!r}: resampling takes at most 10 corpus items, got ")
        assert started == rows_drawn == []


class TestCochangeAndTwin:
    def test_cochange(self, capsys, tmp_path):
        a = tmp_path / "i.csv"
        b = tmp_path / "j.csv"
        a.write_text("entity,year,value\np,2018,0.5\np,2019,0.3\n")
        b.write_text("entity,year,value\np,2018,1.0\np,2019,2.0\n")
        code, out, _ = run(
            capsys, "cochange", "--series-i", str(a), "--series-j", str(b), "--sign-i", "-1"
        )
        assert code == EXIT_OK
        assert json.loads(out)["cochange"]["precision"] == 1.0

    def test_twin(self, capsys, tmp_path):
        dev = tmp_path / "dev.csv"
        proj = tmp_path / "proj.csv"
        dev.write_text(
            "developer,project,year,value\nann,good,2019,0.1\nann,bad,2019,0.4\n"
        )
        proj.write_text("entity,year,value\ngood,2019,0.1\nbad,2019,0.5\n")
        code, out, _ = run(
            capsys,
            "twin",
            "--dev-series",
            str(dev),
            "--project-series",
            str(proj),
            "--sign",
            "-1",
        )
        assert code == EXIT_OK
        twin = json.loads(out)["twin"]
        assert twin["n_developer_pairs"] == 1
        assert twin["precision"] == 1.0

    def test_twin_reads_both_files_through_the_one_loader(self, capsys, tmp_path, monkeypatch):
        dev = tmp_path / "dev.csv"
        proj = tmp_path / "proj.csv"
        dev.write_text("developer,project,year,value\nann,good,2019,0.1\nann,bad,2019,0.4\n")
        proj.write_text("entity,year,value\ngood,2019,0.1\nbad,2019,0.5\n")
        read = []
        load = stats.load_series_csv

        def counting(path, *keys):
            read.append(path)
            return load(path, *keys)

        monkeypatch.setattr(stats, "load_series_csv", counting)
        code, _, _ = run(
            capsys, "twin", "--dev-series", str(dev), "--project-series", str(proj), "--sign", "-1"
        )
        assert code == EXIT_OK
        assert sorted(read) == sorted([str(dev), str(proj)])

    def test_repeated_developer_project_year_is_an_input_error(self, capsys, tmp_path):
        dev = tmp_path / "dev.csv"
        proj = tmp_path / "proj.csv"
        dev.write_text(
            "developer,project,year,value\nd1,p1,2019,0.1\nd1,p1,2019,0.9\nd1,p2,2019,0.5\n"
        )
        proj.write_text("entity,year,value\np1,2019,0.1\np2,2019,0.3\n")
        code, out, err = run(
            capsys, "twin", "--dev-series", str(dev), "--project-series", str(proj), "--sign", "-1"
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert err == (
            f"input error: {str(dev)!r}: duplicate year 2019 for developer 'd1' in project 'p1'\n"
        )

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("cochange", "--delta-i", "-1"),
            ("cochange", "--delta-j", "nan"),
            ("twin", "--delta-project", "-1"),
            ("twin", "--delta-dev", "-0.5"),
        ],
    )
    def test_threshold_below_zero_is_a_usage_error(self, capsys, command, flag, value):
        inputs = {
            "cochange": ["--series-i", "i.csv", "--series-j", "j.csv"],
            "twin": ["--dev-series", "dev.csv", "--project-series", "proj.csv"],
        }
        with pytest.raises(SystemExit) as caught:
            main([command, *inputs[command], f"{flag}={value}"])
        assert caught.value.code == EXIT_CONFIG
        assert f"argument {flag}: must be >= 0, got '{value}'" in capsys.readouterr().err


class TestReportLayout:
    """The exact keys of each report object; a report change must show here."""

    STATS = {
        "repo_id", "year", "n_commits", "k_hits", "coupling", "coupling_by_file", "speed",
        "retention", "onboarding", "dominant_language", "avg_file_kb",
    }
    BAND = {"lower_percentile", "upper_percentile", "label"}

    def test_analyze_project_ccp_and_row(self, capsys, tmp_path):
        # acme/widget's hit rate 0.6 is valid; every commit of acme/fixes is a hit.
        fixes = [
            {"repo": "acme/fixes", "hash": f"f{i}", "author": "ann@x",
             "ts": "2019-05-01T00:00:00+00:00", "msg": "fix crash", "files": ["a.c"],
             "merge": False}
            for i in range(3)
        ]
        log = tmp_path / "two.ndjson"
        log.write_text(Path(LOG).read_text() + "".join(json.dumps(c) + "\n" for c in fixes))
        code, out, _ = run(capsys, "analyze", str(log))
        assert code == EXIT_OK
        report = json.loads(out)
        assert set(report) == {
            "meta", "report_type", "skipped_lines", "exclusions", "projects", "rows"
        }
        assert set(report["meta"]) == {
            "tool_version", "model_id", "recall", "fpr", "seed", "config_hash"
        }
        invalid, valid = report["projects"]
        assert set(valid) == self.STATS | {"ccp", "band"}
        assert set(valid["band"]) == self.BAND
        assert set(invalid) == self.STATS | {"ccp", "diagnostics"}
        assert set(invalid["diagnostics"]) == {
            "english_hit_rate", "median_message_chars", "p90_message_chars", "reference"
        }
        assert set(valid["ccp"]) == {"n", "k", "hit_rate", "ccp_raw", "status"}
        assert [p["ccp"]["status"] for p in report["projects"]] == ["AboveOne", "Valid"]
        assert [set(row) for row in report["rows"]] == 2 * [
            self.STATS | {"hit_rate", "ccp_raw", "ccp_status"}
        ]

    def test_rank_band(self, capsys):
        code, out, _ = run(capsys, "rank", "--ccp", "0.2")
        assert code == EXIT_OK
        report = json.loads(out)
        assert set(report) == {"meta", "report_type", "ccp", "band"}
        assert set(report["band"]) == self.BAND

    def test_bootstrap_difference_and_sensitivity(self, capsys):
        code, out, _ = run(capsys, "bootstrap", GOLD, "--iterations", "50", "--sensitivity")
        assert code == EXIT_OK
        report = json.loads(out)
        assert set(report) == {"meta", "report_type", "difference", "sensitivity"}
        assert set(report["difference"]) == {
            "iterations", "seed", "coverage", "mean_difference", "interval_low", "interval_high"
        }
        assert set(report["sensitivity"]) == {"iterations", "seed", "redraws", "segments"}
        for segment in report["sensitivity"]["segments"]:
            assert set(segment) == {"segment", "max_abs_difference", "p95_abs_difference"}
            assert len(segment["segment"]) == 2

    def test_validate_model_confusion_matrix(self, capsys):
        code, out, _ = run(capsys, "validate-model", GOLD, "--iterations", "50")
        assert code == EXIT_OK
        report = json.loads(out)
        assert set(report) == {"meta", "report_type", "confusion_matrix", "bootstrap"}
        assert set(report["confusion_matrix"]) == {
            "tp", "fn", "fp", "tn", "accuracy", "precision", "recall", "fpr", "hit_rate",
            "positive_rate",
        }


class TestConfigResolution:
    def test_env_config_file(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "miner.cfg"
        cfg.write_text("seed=42\nformat=json\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        code, out, _ = run(capsys, "rank", "--ccp", "0.2")
        assert code == EXIT_OK
        assert json.loads(out)["meta"]["seed"] == 42

    def test_flag_overrides_env(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "miner.cfg"
        cfg.write_text("seed=42\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        code, out, _ = run(capsys, "--seed", "7", "rank", "--ccp", "0.2")
        assert json.loads(out)["meta"]["seed"] == 7

    def test_unreadable_env_config(self, capsys, monkeypatch):
        monkeypatch.setenv(CONFIG_ENV_VAR, "/nonexistent.cfg")
        code, _, _ = run(capsys, "rank", "--ccp", "0.2")
        assert code == EXIT_CONFIG

    def test_custom_perf_file(self, capsys, tmp_path):
        perf = tmp_path / "perf.cfg"
        perf.write_text("recall=1.0\nfpr=0.0\nmodel_id=perfect\n")
        code, out, _ = run(capsys, "--perf", str(perf), "rank", "--ccp", "0.2")
        assert code == EXIT_OK
        meta = json.loads(out)["meta"]
        assert (meta["recall"], meta["fpr"]) == (1.0, 0.0)

    def test_invalid_perf_file(self, capsys, tmp_path):
        perf = tmp_path / "perf.cfg"
        perf.write_text("recall=0.1\nfpr=0.9\n")
        code, _, _ = run(capsys, "--perf", str(perf), "rank", "--ccp", "0.2")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "line,key",
        [
            ("min_commits=10", "min_commits"),
            ("year=soon", "year"),
            ("seed=-1", "seed"),
            ("enforce_selection=maybe", "enforce_selection"),
            ("enforce_selection=", "enforce_selection"),
            ("format=xml", "format"),
            ("format=", "format"),
        ],
    )
    def test_env_config_key_not_read_or_bad_value(self, capsys, tmp_path, monkeypatch, line, key):
        cfg = tmp_path / "miner.cfg"
        cfg.write_text(line + "\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        code, _, err = run(capsys, "rank", "--ccp", "0.2")
        assert code == EXIT_CONFIG
        assert str(cfg) in err and key in err

    @pytest.mark.parametrize("value,on", [("YES", True), (" True ", True), ("1", True),
                                          ("no", False), ("FALSE", False), ("0", False)])
    def test_env_config_enforce_selection_reads_the_metadata_flag_rule(
        self, capsys, tmp_path, monkeypatch, value, on
    ):
        cfg = tmp_path / "miner.cfg"
        cfg.write_text(f"enforce_selection={value}\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        code, _, err = run(capsys, "analyze", LOG)
        # Selection on without a year is a configuration error; off, the log is analysed.
        assert (code, err) == ((EXIT_CONFIG, "configuration error: --enforce-selection "
                                "requires --year\n") if on else (EXIT_OK, ""))

    @pytest.mark.parametrize(
        "option,text",
        [("env", "seed=1\n# later\nseed=7\n"),
         ("env", "enforce-selection=1\nenforce_selection=0\n"),
         ("--perf", "recall=0.84\nfpr=0.042\nrecall=0.9\n")],
        ids=["env-seed", "env-dash-and-underscore", "perf-recall"],
    )
    def test_key_given_twice_is_a_named_config_error(
        self, capsys, tmp_path, monkeypatch, option, text
    ):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(text)
        argv = ["rank", "--ccp", "0.2"]
        if option == "env":
            monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        else:
            argv = [option, str(cfg), *argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        line = len(text.splitlines())
        assert f"{str(cfg)!r}: line {line}: key " in err and "given twice" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["rank", "--ccp", "1.5"], "--ccp"),
        (["rank", "--ccp", "nan"], "--ccp"),
        (["bootstrap", GOLD, "--iterations", "0"], "--iterations"),
        (["bootstrap", GOLD, "--iterations", "-5"], "--iterations"),
        (["bootstrap", GOLD, "--coverage", "1.5"], "--coverage"),
        (["validate-model", GOLD, "--coverage", "0"], "--coverage"),
        (["bootstrap", GOLD, "--sensitivity", "--segments", "0.5:0.2"], "--segments"),
        (["bootstrap", GOLD, "--sensitivity", "--segments", "0:2"], "--segments"),
        (["--seed", "-1", "bootstrap", GOLD, "--iterations", "10"], "--seed"),
        # Refused before any input is read: none of these files exists.
        (["rank", "--ccp", "-0.1"], "--ccp"),
        (["bootstrap", "missing.tsv", "--coverage", "1"], "--coverage"),
        (["validate-model", "missing.tsv", "--iterations", "0"], "--iterations"),
        (["bootstrap", "missing.tsv", "--sensitivity", "--segments", "0.5:0.2"], "--segments"),
        (["cochange", "--series-i", "i.csv", "--series-j", "j.csv", "--comparator", "loose"],
         "--comparator"),
        (["twin", "--dev-series", "d.csv", "--project-series", "p.csv", "--comparator", "loose"],
         "--comparator"),
        (["bootstrap", "missing.tsv", "--coverage", "nan"], "--coverage"),
        (["bootstrap", "missing.tsv", "--sensitivity", "--segments", "-0.1:0.5"], "--segments"),
    ],
    ids=["ccp-above-one", "ccp-nan", "iterations-zero", "iterations-negative",
         "coverage-above-one", "coverage-zero", "segment-reversed", "segment-above-one",
         "seed-negative", "ccp-below-zero", "coverage-one", "validate-iterations-zero",
         "segment-reversed-no-corpus", "cochange-comparator", "twin-comparator",
         "coverage-nan", "segment-below-zero"],
)
def test_bad_flag_value_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == EXIT_CONFIG
    assert f"argument {flag}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, rule",
    [
        (["analyze", "{log}", "--projects", "{csv}"], "--projects requires --enforce-selection"),
        (["--year", "2019", "analyze", "{log}", "--projects", "{csv}"],
         "--projects requires --enforce-selection"),
        (["classify", "{log}", "--repo", "acme/widget"], "--repo requires --input-format git"),
        (["analyze", "{log}", "--input-format", "ndjson", "--repo", "acme/widget"],
         "--repo requires --input-format git"),
        (["bootstrap", "{tsv}", "--segments", "0:1"], "--segments requires --sensitivity"),
    ],
    ids=["projects", "projects-with-year", "repo-classify", "repo-analyze", "segments"],
)
def test_a_flag_that_would_be_ignored_is_a_usage_error(capsys, tmp_path, argv, rule):
    """Refused before any input is read: none of the named files exists."""
    names = {"log": tmp_path / "missing.ndjson", "csv": tmp_path / "missing.csv",
             "tsv": tmp_path / "missing.tsv"}
    code, out, err = run(capsys, *(arg.format_map(names) for arg in argv))
    assert (code, out, err) == (EXIT_CONFIG, "", f"configuration error: {rule}\n")


# Each reads as a file that cannot be opened, whatever the kind of file.
UNREADABLE_EMPTY = "'': cannot read: No such file or directory\n"


@pytest.mark.parametrize(
    "argv, config, code, err",
    [
        (["analyze", LOG, "--projects", ""], None, EXIT_CONFIG,
         "configuration error: --projects requires --enforce-selection\n"),
        (["--year", "2019", "analyze", LOG, "--projects", ""], None, EXIT_CONFIG,
         "configuration error: --projects requires --enforce-selection\n"),
        (["--year", "2019", "--enforce-selection", "analyze", LOG, "--projects", ""], None,
         EXIT_INPUT, "input error: " + UNREADABLE_EMPTY),
        (["analyze", LOG, "--head-listing", ""], None, EXIT_INPUT,
         "input error: " + UNREADABLE_EMPTY),
        (["--model", "", "rank", "--ccp", "0.2"], None, EXIT_CONFIG,
         "configuration error: " + UNREADABLE_EMPTY),
        (["--english-model", "", "rank", "--ccp", "0.2"], None, EXIT_CONFIG,
         "configuration error: " + UNREADABLE_EMPTY),
        (["--perf", "", "rank", "--ccp", "0.2"], None, EXIT_CONFIG,
         "configuration error: " + UNREADABLE_EMPTY),
        (["--table", "", "rank", "--ccp", "0.2"], None, EXIT_CONFIG,
         "configuration error: " + UNREADABLE_EMPTY),
        (["rank", "--ccp", "0.2"], "model=\n", EXIT_CONFIG,
         "configuration error: " + UNREADABLE_EMPTY),
        (["rank", "--ccp", "0.2"], "english_model=\n", EXIT_CONFIG,
         "configuration error: " + UNREADABLE_EMPTY),
        (["rank", "--ccp", "0.2"], "perf=\n", EXIT_CONFIG,
         "configuration error: " + UNREADABLE_EMPTY),
        (["rank", "--ccp", "0.2"], "table=\n", EXIT_CONFIG,
         "configuration error: " + UNREADABLE_EMPTY),
        (["rank", "--ccp", "0.2"], "model=a\0b\n", EXIT_CONFIG,
         "configuration error: 'a\\x00b': cannot read: embedded null byte\n"),
        (["analyze", "{raw}", "--input-format", "git", "--repo", ""], None, EXIT_CONFIG,
         "configuration error: --repo must not be empty\n"),
    ],
    ids=["projects", "projects-with-year", "projects-with-selection", "head-listing",
         "model", "english-model", "perf", "table", "config-model", "config-english-model",
         "config-perf", "config-table", "config-path-with-nul", "repo"],
)
def test_an_empty_path_that_is_given_is_refused(
    capsys, tmp_path, monkeypatch, argv, config, code, err
):
    """A given path is read, so an empty one is an error, never the bundled file or none."""
    raw = tmp_path / "H.gitlog"
    raw.write_text("\x1eaaa\x1fann@x\x1f2019-01-01T00:00:00+00:00\x1fp\x1ffix crash\x1f\n")
    if config is not None:
        (tmp_path / "miner.cfg").write_text(config)
        monkeypatch.setenv(CONFIG_ENV_VAR, str(tmp_path / "miner.cfg"))
    assert run(capsys, *(arg.format(raw=raw) for arg in argv)) == (code, "", err)


def test_an_empty_config_variable_names_no_config_file(capsys, monkeypatch):
    monkeypatch.setenv(CONFIG_ENV_VAR, "")
    with_empty = run(capsys, "rank", "--ccp", "0.2")
    monkeypatch.delenv(CONFIG_ENV_VAR)
    assert with_empty == run(capsys, "rank", "--ccp", "0.2")
    assert with_empty[0] == EXIT_OK


@pytest.mark.parametrize(
    "path, content, argv, code, detail",
    [
        ("", None, ["analyze", LOG, "--head-listing", "{path}"], EXIT_INPUT,
         "cannot read: No such file or directory"),
        ("", None, ["--year", "2019", "--enforce-selection", "analyze", LOG, "--projects", "{path}"],
         EXIT_INPUT, "cannot read: No such file or directory"),
        ("{tmp}/head: ", "path,size_bytes\na.py,-4\n",
         ["analyze", LOG, "--head-listing", "{path}"], EXIT_INPUT,
         "line 2: size_bytes '-4' is negative"),
        ("{tmp}/series\n.csv", "entity,year,value\np,2018,0.5\np,2019,nan\n",
         ["cochange", "--series-i", "{path}", "--series-j", "{path}"], EXIT_INPUT,
         "line 3: metric value 'nan' is not finite"),
        ("a\0b", None, ["--model", "{path}", "rank", "--ccp", "0.2"], EXIT_CONFIG,
         "cannot read: embedded null byte"),
    ],
    ids=["empty-head-listing", "empty-projects", "ends-in-colon-space", "holds-a-line-end",
         "model-holds-a-nul"],
)
def test_an_error_quotes_its_path_once_before_the_detail(
    capsys, tmp_path, path, content, argv, code, detail
):
    """``'<path>': <detail>``: where the path ends and the detail begins is never in doubt."""
    path = path.format(tmp=tmp_path)
    if content is not None:
        Path(path).write_text(content)
    kind = {EXIT_INPUT: "input error", EXIT_CONFIG: "configuration error"}[code]
    got = run(capsys, *(arg.format(path=path) for arg in argv))
    assert got == (code, "", f"{kind}: {path!r}: {detail}\n")


@pytest.mark.parametrize(
    "command", [["bootstrap", "--sensitivity"], ["validate-model"]], ids=["bootstrap", "validate"]
)
@pytest.mark.parametrize("iterations", [1_000_001, 10**12])
def test_iterations_above_the_cap_are_a_usage_error(capsys, started, command, iterations):
    """Refused before a worker starts."""
    with pytest.raises(SystemExit) as caught:
        main([*command, GOLD, "--iterations", str(iterations)])
    assert caught.value.code == EXIT_CONFIG
    rule = f"argument --iterations: must be in [1, {estimator.MAX_ITERATIONS}], got '{iterations}'"
    assert rule in capsys.readouterr().err
    assert started == []


def test_iterations_at_the_cap_are_accepted():
    args = build_parser().parse_args(["bootstrap", GOLD, "--iterations", "1000000"])
    assert args.iterations == estimator.MAX_ITERATIONS == 1_000_000


# Good inputs of `cochange` and `twin`; each case below replaces one of them.
SERIES_FILES = {
    "i.csv": "entity,year,value\np,2018,0.5\np,2019,0.3\n",
    "j.csv": "entity,year,value\np,2018,1.0\np,2019,2.0\n",
    "dev.csv": "developer,project,year,value\nann,good,2019,0.1\nann,bad,2019,0.4\n",
    "proj.csv": "entity,year,value\ngood,2019,0.1\nbad,2019,0.5\n",
}


@pytest.mark.parametrize(
    "command, name, text, value",  # the bad value is on line 3
    [
        ("cochange", "i.csv", "entity,year,value\np,2018,0.5\np,2019,nan\n", "nan"),
        ("cochange", "j.csv", "entity,year,value\np,2018,1.0\np,2019,-inf\n", "-inf"),
        ("twin", "dev.csv", "developer,project,year,value\nann,good,2019,0.1\nann,bad,2019,inf\n",
         "inf"),
    ],
    ids=["series-nan", "series-minus-inf", "developer-series-inf"],
)
def test_non_finite_metric_value_is_a_named_input_error(
    capsys, tmp_path, command, name, text, value
):
    for file, good in SERIES_FILES.items():
        (tmp_path / file).write_text(text if file == name else good)
    inputs = {
        "cochange": ["--series-i", "i.csv", "--series-j", "j.csv"],
        "twin": ["--dev-series", "dev.csv", "--project-series", "proj.csv"],
    }[command]
    argv = [str(tmp_path / a) if a in SERIES_FILES else a for a in inputs]
    code, out, err = run(capsys, command, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == (
        f"input error: {str(tmp_path / name)!r}: line 3: metric value {value!r} is not finite\n"
    )


LATIN1 = "caf\xe9".encode("latin-1")
# Labeled corpora with no true positive (no message hits) and no true negative.
NO_HIT_CORPUS = b"1\tupdate docs\n0\tupdate docs\n1\trefactor code\n0\tbump version\n"
ALL_POSITIVE_CORPUS = b"1\tfix crash\n1\tfix bug\n"
# Good NDJSON lines past the first 64 KiB read buffer of a streamed reader.
DEEP = b"".join(
    json.dumps({"repo": "r", "hash": f"h{i}", "author": "a@x",
                "ts": "2019-01-01T00:00:00+00:00", "msg": "fix crash"}).encode() + b"\n"
    for i in range(1000)
)


@pytest.mark.parametrize(
    "name,content,argv,exit_code",
    [
        ("projects.csv", b"repo_id,owner,name,is_fork\nacme/widget,acme,widget\n",
         ["--year", "2019", "--enforce-selection", "analyze", LOG, "--projects", "{path}"],
         EXIT_INPUT),
        ("projects.csv", b"repo_id,owner,name,is_fork\nacme/widget,acme," + LATIN1 + b",no\n",
         ["--year", "2019", "--enforce-selection", "analyze", LOG, "--projects", "{path}"],
         EXIT_INPUT),
        ("corpus.tsv", b"1\tfix crash\n0\t" + LATIN1 + b"\n", ["validate-model", "{path}"],
         EXIT_INPUT),
        ("corpus.tsv", "\ufeff".encode() + b"1\tfix crash\n0\t" + LATIN1 + b"\n",
         ["validate-model", "{path}"], EXIT_INPUT),
        ("miner.cfg", b"seed=1\n# " + LATIN1 + b"\n", ["rank", "--ccp", "0.2"], EXIT_CONFIG),
        ("perf.cfg", b"recall=0.8\nfpr=0.1\nmodel_id=" + LATIN1 + b"\n",
         ["--perf", "{path}", "rank", "--ccp", "0.2"], EXIT_CONFIG),
        ("model.terms", b"model_id: m\n[fix]\n" + LATIN1 + b"\n",
         ["--model", "{path}", "rank", "--ccp", "0.2"], EXIT_CONFIG),
        ("widget.log",
         b"\x1eaaa\x1fann@x\x1f2019-01-01T00:00:00+00:00\x1fp\x1ffix " + LATIN1 + b"\x1f\n",
         ["analyze", "{path}", "--input-format", "git"], EXIT_INPUT),
        ("garbage.ndjson", b"not json\n", ["analyze", "{path}"], EXIT_INPUT),
        ("deep.ndjson", DEEP + b'{"msg": "' + LATIN1 + b'"}\n', ["analyze", "{path}"],
         EXIT_INPUT),
        ("empty.log", b"", ["analyze", "{path}", "--input-format", "git"], EXIT_INPUT),
        ("model.terms", b"model_id=x\n", ["--model", "{path}", "rank", "--ccp", "0.2"],
         EXIT_CONFIG),
        ("model.terms", b"model_id: m\n[fix]\nfix(\n",
         ["--model", "{path}", "rank", "--ccp", "0.2"], EXIT_CONFIG),
        ("model.terms", b"model_id: m\n[fix]\na{99999999999}\n",
         ["--model", "{path}", "rank", "--ccp", "0.2"], EXIT_CONFIG),
        ("model.terms", b"model_id: m\n[fix]\na{" + b"9" * 5000 + b"}\n",
         ["--model", "{path}", "rank", "--ccp", "0.2"], EXIT_CONFIG),
        ("english.txt", b"the\nab\n", ["--english-model", "{path}", "rank", "--ccp", "0.2"],
         EXIT_CONFIG),
        ("table.csv", b"percentile,ccp\n10,0.3\n50,nan\n",
         ["--table", "{path}", "rank", "--ccp", "0.2"], EXIT_CONFIG),
        ("head.csv", b"path,size_bytes\na.py,-400\nb.py,100\n",
         ["analyze", LOG, "--head-listing", "{path}"], EXIT_INPUT),
        ("corpus.tsv", NO_HIT_CORPUS, ["validate-model", "{path}"], EXIT_INPUT),
        ("corpus.tsv", NO_HIT_CORPUS, ["bootstrap", "{path}", "--iterations", "50"], EXIT_INPUT),
        ("corpus.tsv", ALL_POSITIVE_CORPUS, ["validate-model", "{path}"], EXIT_INPUT),
        ("corpus.tsv", ALL_POSITIVE_CORPUS, ["bootstrap", "{path}", "--iterations", "50"],
         EXIT_INPUT),
        ("perf.cfg", b"recall=0.1\nfpr=0.2\n", ["--perf", "{path}", "rank", "--ccp", "0.2"],
         EXIT_CONFIG),
        ("corpus.tsv", b"\n \n", ["bootstrap", "{path}", "--sensitivity"], EXIT_INPUT),
        # A column read twice: which copy holds the values is never guessed.
        ("i.csv", b"entity,year,value,value\np,2018,0.5,9\np,2019,0.3,9\n",
         ["cochange", "--series-i", "{path}", "--series-j", "{path}"], EXIT_INPUT),
        ("head.csv", b"path,size_bytes,path\na.py,10,b.py\n",
         ["analyze", LOG, "--head-listing", "{path}"], EXIT_INPUT),
        ("projects.csv", b"repo_id,owner,name,is_fork,owner\nacme/widget,acme,widget,no,x\n",
         ["--year", "2019", "--enforce-selection", "analyze", LOG, "--projects", "{path}"],
         EXIT_INPUT),
        ("table.csv", b"percentile,ccp,ccp\n10,0.3,0.9\n",
         ["--table", "{path}", "rank", "--ccp", "0.2"], EXIT_CONFIG),
    ],
    ids=["metadata-short-row", "metadata-latin1", "corpus-latin1", "corpus-bom-latin1",
         "env-config-latin1",
         "perf-latin1", "model-latin1", "raw-git-log-latin1", "ndjson-no-record",
         "ndjson-latin1", "raw-git-log-no-chunk", "model-outside-section", "model-bad-pattern",
         "model-repeat-above-the-bound", "model-repeat-of-5000-digits",
         "english-model-short-word", "table-nan-threshold", "head-listing-negative",
         "validate-no-hit-corpus", "bootstrap-no-hit-corpus", "validate-all-positive-corpus",
         "bootstrap-all-positive-corpus", "perf-recall-not-above-fpr",
         "bootstrap-corpus-without-records", "series-column-twice",
         "head-listing-column-twice", "metadata-column-twice", "table-column-twice"],
)
def test_bad_input_file_is_a_named_config_or_input_error(
    capsys, tmp_path, monkeypatch, name, content, argv, exit_code
):
    path = tmp_path / name
    path.write_bytes(content)
    if name == "miner.cfg":
        monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
    code, _, err = run(capsys, *(a.format(path=path) for a in argv))
    assert code == exit_code
    assert err.count(repr(str(path))) == 1
    if LATIN1 in content:
        assert f"byte {content.index(LATIN1) + 3} is 0xe9" in err


@pytest.mark.parametrize(
    "name, content, argv",
    [
        ("i.csv", SERIES_FILES["i.csv"].encode(),
         ["cochange", "--series-i", "{path}", "--series-j", "{path}"]),
        ("miner.cfg", b"seed=7\n", ["rank", "--ccp", "0.2"]),
        ("log.ndjson",
         b'{"repo": "r", "hash": "h1", "author": "a@x", "ts": "2019-01-01T00:00:00+00:00", '
         b'"msg": "fix crash"}\n', ["analyze", "{path}"]),
        ("model.terms", b"model_id: m\n[fix]\nfix\n",
         ["--model", "{path}", "rank", "--ccp", "0.2"]),
    ],
    ids=["series-csv", "env-config", "ndjson-log", "term-model"],
)
def test_a_leading_byte_order_mark_is_not_part_of_the_text(
    capsys, tmp_path, monkeypatch, name, content, argv
):
    path = tmp_path / name
    if name == "miner.cfg":
        monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
    results = []
    for bom in (b"", "\ufeff".encode()):
        path.write_bytes(bom + content)
        results.append(run(capsys, *(a.format(path=path) for a in argv)))
    assert results[0][0] == EXIT_OK
    assert results[1] == results[0]


@pytest.mark.parametrize("content", [NO_HIT_CORPUS, ALL_POSITIVE_CORPUS],
                         ids=["no-true-positive", "no-true-negative"])
def test_sensitivity_without_a_valid_resample_ends_with_a_named_input_error(tmp_path, content):
    """No resample of these corpora has recall > fpr, so redrawing would never end."""
    corpus = tmp_path / "corpus.tsv"
    corpus.write_bytes(content)
    argv = ["bootstrap", str(corpus), "--sensitivity", "--perf-source", "config"]
    probe = f"import sys, ccp_miner.cli as cli; sys.exit(cli.main({argv!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=_subprocess_env(), capture_output=True, text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (EXIT_INPUT, "")
    assert proc.stderr == (
        f"input error: {str(corpus)!r}: sensitivity needs a true positive and a true negative: "
        "no resample of this corpus has recall > fpr\n"
    )


@pytest.mark.parametrize(
    "content, before, iterations",
    [
        (ALL_POSITIVE_CORPUS, (), "50"),
        (ALL_POSITIVE_CORPUS, (), "100"),
        ("".join(CELL_LINES[c] for c in ("FN", "FN", "TP", "FP", "TP")).encode(),
         ("--seed", "5"), "2"),
    ],
    ids=["all-positive-50", "all-positive-100", "two-iterations"],
)
def test_bootstrap_interval_need_not_bracket_the_mean(
    capsys, tmp_path, content, before, iterations
):
    """The interval's ends are nearest-rank (lower) percentiles, so the mean may lie outside."""
    corpus = tmp_path / "corpus.tsv"
    corpus.write_bytes(content)
    code, out, err = run(
        capsys, *before, "bootstrap", str(corpus), "--perf-source", "config",
        "--iterations", iterations,
    )
    assert (code, err) == (EXIT_OK, "")
    difference = json.loads(out)["difference"]
    assert difference["interval_low"] <= difference["interval_high"]


def test_sensitivity_with_too_rare_valid_resamples_ends_with_a_named_input_error(tmp_path):
    """1 TP, 1 TN, 200 FN and 200 FP: nearly no resample has recall > fpr."""
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(
        CELL_LINES["TP"] + CELL_LINES["TN"] + 200 * CELL_LINES["FN"] + 200 * CELL_LINES["FP"]
    )
    argv = ["bootstrap", str(corpus), "--sensitivity", "--perf-source", "config",
            "--iterations", "10"]
    probe = f"import sys, ccp_miner.cli as cli; sys.exit(cli.main({argv!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=_subprocess_env(), capture_output=True, text=True,
        timeout=20,
    )
    assert (proc.returncode, proc.stdout) == (EXIT_INPUT, "")
    limit = 10 * estimator.MAX_REDRAWS_PER_ITERATION
    assert proc.stderr == (
        f"input error: {str(corpus)!r}: sensitivity found too few valid resamples: "
        f"more than {limit} redraws ({estimator.MAX_REDRAWS_PER_ITERATION} per iteration)\n"
    )


def test_directory_as_input_is_a_named_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path))
    assert code == EXIT_INPUT
    assert err.startswith(f"input error: {str(tmp_path)!r}: cannot read: ")


# The characters other than LF and CR that str.splitlines breaks a line at.
LINE_BREAKS_NOT_ENDING_A_LINE = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _env_config_line_rule(capsys, tmp_path, monkeypatch, c):
    cfg = tmp_path / "miner.cfg"
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
    cfg.write_text(f"seed=3{c}year=2019\n", newline="")
    code, out, err = run(capsys, "rank", "--ccp", "0.2")
    bad = f"3{c}year=2019"
    assert (code, out, err) == (EXIT_CONFIG, "", f"configuration error: {str(cfg)!r}: bad value "
                                f"for seed: {bad!r}\n")
    cfg.write_text(f"# note{c}x\r\nseed=1\rbogus\n", newline="")
    code, _, err = run(capsys, "rank", "--ccp", "0.2")
    assert (code, err) == (EXIT_CONFIG, f"configuration error: {str(cfg)!r}: line 3: expected "
                           "key=value, got 'bogus'\n")


def _perf_line_rule(capsys, tmp_path, monkeypatch, c):
    perf = tmp_path / "perf.cfg"
    text = f"model_id=m{c}fpr=0.5\r\nrecall=0.9\rfpr=0.1\n"
    perf.write_text(text, newline="")
    code, out, _ = run(capsys, "--perf", str(perf), "rank", "--ccp", "0.2")
    meta = json.loads(out)["meta"]
    assert (code, meta["recall"], meta["fpr"]) == (EXIT_OK, 0.9, 0.1)
    keys = ("recall", "fpr", "model_id")
    assert ingestion.read_config(perf, keys)["model_id"] == f"m{c}fpr=0.5"
    perf.write_text(text + "bogus\n", newline="")
    code, _, err = run(capsys, "--perf", str(perf), "rank", "--ccp", "0.2")
    assert (code, err) == (EXIT_CONFIG, f"configuration error: {str(perf)!r}: line 4: expected "
                           "key=value, got 'bogus'\n")


def _term_model_line_rule(capsys, tmp_path, monkeypatch, c):
    model = tmp_path / "model.terms"
    text = f"model_id: m\r\n[fix]\rfix{c}[negation]\n"
    model.write_text(text, newline="")
    loaded = classifier.load_term_model(model)
    assert (loaded.fix_patterns, loaded.negation_patterns) == ((f"fix{c}[negation]",), ())
    model.write_text(text + "[nope]\n", newline="")
    code, _, err = run(capsys, "--model", str(model), "rank", "--ccp", "0.2")
    assert (code, err) == (
        EXIT_CONFIG, f"configuration error: {str(model)!r}: unknown section [nope] at line 4\n"
    )


def _english_model_line_rule(capsys, tmp_path, monkeypatch, c):
    english = tmp_path / "english.txt"
    english.write_text(f"abc{c}def\r\nfoo\rbar\n", newline="")
    assert classifier.load_english_model(english).words == {f"abc{c}def", "foo", "bar"}


def _raw_log_line_rule(capsys, tmp_path, monkeypatch, c):
    log = tmp_path / "widget.log"
    log.write_text(
        f"\x1eaaa\x1fann@x\x1f2019-01-01T00:00:00+00:00\x1fp\x1ffix\x1f\na{c}b.c\r\nc.c\rd.c\n",
        newline="",
    )
    [commit] = ingestion.parse_raw_git_log(ingestion.read_records(log, "\x1e"), repo_id="r").records
    assert commit[4] == (f"a{c}b.c", "c.c", "d.c")


@pytest.mark.parametrize(
    "check, c",
    [
        pytest.param(check, c, id=f"{name}-U+{ord(c):04X}")
        for name, check in [
            ("env-config", _env_config_line_rule),
            ("perf", _perf_line_rule),
            ("term-model", _term_model_line_rule),
            ("english-model", _english_model_line_rule),
            ("raw-log-files", _raw_log_line_rule),
        ]
        for c in LINE_BREAKS_NOT_ENDING_A_LINE
        if not (check is _raw_log_line_rule and c == "\x1e")  # the raw log's record separator
    ],
)
def test_only_lf_crlf_or_cr_ends_a_line(capsys, tmp_path, monkeypatch, check, c):
    """A value keeps the character or its own rule refuses it; errors after it name the line."""
    check(capsys, tmp_path, monkeypatch, c)


def _subprocess_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def test_importing_the_cli_does_not_load_numpy(tmp_path):
    env = _subprocess_env()
    # Nor the resample stream's executor and its queue: set-up imports neither. Nor
    # statistics: analytics averages with math.fsum.
    probe = (
        "import sys, ccp_miner.cli as cli;"
        "cli.RunConfig(cli.build_parser().parse_args(['rank', '--ccp', '0.2']));"
        "print(*(m in sys.modules for m in ('numpy', 'concurrent.futures', 'queue', "
        "'statistics')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False False False"

    # The stats commands need no numpy either, so they must not pay for importing it.
    series = tmp_path / "series.csv"
    series.write_text("entity,year,value\ngood,2018,0.5\ngood,2019,0.1\nbad,2019,0.5\n")
    dev = tmp_path / "dev.csv"
    dev.write_text("developer,project,year,value\nann,good,2019,0.1\nann,bad,2019,0.4\n")
    cochange = ["cochange", "--series-i", str(series), "--series-j", str(series)]
    twin = ["twin", "--dev-series", str(dev), "--project-series", str(series)]
    stats_probe = (
        "import sys, ccp_miner.cli as cli;"
        f"codes = [cli.main({cochange!r}), cli.main({twin!r})];"
        "print(*codes, 'numpy' in sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", stats_probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == f"{EXIT_OK} {EXIT_OK} False"


def test_offset_less_raw_timestamp_is_utc_in_every_time_zone(tmp_path):
    raw = tmp_path / "widget.log"
    raw.write_text("\x1eaaa\x1fann@x\x1f2019-12-31T23:30:00\x1fp\x1ffix crash\x1f\n")
    argv = [sys.executable, "-m", "ccp_miner.cli", "analyze", str(raw), "--input-format", "git"]
    # POSIX TZ strings, which need no time zone database: UTC and UTC-5.
    outputs = [
        subprocess.run(
            argv, env={**_subprocess_env(), "TZ": tz}, capture_output=True, timeout=60
        ).stdout
        for tz in ("UTC0", "EST5")
    ]
    assert outputs[0] == outputs[1]
    [project] = json.loads(outputs[0])["projects"]
    assert project["year"] == 2019


def test_closed_stdout_ends_quietly(tmp_path):
    log = tmp_path / "big.ndjson"
    log.write_text("".join(
        json.dumps({"repo": "r", "hash": f"h{i}", "author": "a@x",
                    "ts": "2019-01-01T00:00:00+00:00", "msg": "fix crash"}) + "\n"
        for i in range(500)
    ))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ccp_miner.cli", "classify", str(log)],
            env=_subprocess_env(), stdout=write_end, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")


# A log whose second line holds a latin-1 byte, read from a pipe or a FIFO.
PIPED_LOG = (
    b'{"repo": "r", "hash": "h1", "author": "a@x", "ts": "2019-01-01T00:00:00+00:00", '
    b'"msg": "fix crash"}\n{"msg": "' + LATIN1 + b'"}\n'
)
PIPED_BAD_BYTE = f"not UTF-8: byte {PIPED_LOG.index(LATIN1) + 3} is 0xe9"


def test_piped_input_names_its_bad_byte():
    proc = subprocess.run(
        [sys.executable, "-m", "ccp_miner.cli", "classify", "/dev/stdin"],
        input=PIPED_LOG, env=_subprocess_env(), capture_output=True, timeout=60,
    )
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.decode() == f"input error: '/dev/stdin': {PIPED_BAD_BYTE}\n"


def test_a_fifo_is_read_once_and_names_its_bad_byte(tmp_path):
    """The FIFO's writer ends once it has written, so a second open would wait for ever."""
    log, fifo = tmp_path / "bad.ndjson", tmp_path / "log.fifo"
    log.write_bytes(PIPED_LOG)
    os.mkfifo(fifo)
    # The child's shell writes the FIFO in the background and becomes its reader.
    script = 'cat "$1" > "$2" & exec "$3" -m ccp_miner.cli classify "$2"'
    try:
        proc = subprocess.run(
            ["sh", "-c", script, "sh", str(log), str(fifo), sys.executable],
            env=_subprocess_env(), capture_output=True, timeout=30,
        )
    finally:
        # A writer still waiting for a reader opens, and ends on writing to no reader.
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.decode() == f"input error: {str(fifo)!r}: {PIPED_BAD_BYTE}\n"


@pytest.mark.parametrize("content", [b"", "\ufeff".encode()], ids=["empty", "bom-only"])
def test_an_empty_csv_reads_as_no_rows(capsys, tmp_path, content):
    path = tmp_path / "listing.csv"
    path.write_bytes(content)
    code, out, err = run(capsys, "analyze", LOG, "--head-listing", str(path))
    assert (code, err) == (EXIT_OK, "")
    projects = json.loads(out)["projects"]
    assert projects and all(p["dominant_language"] is None for p in projects)
    assert run(capsys, "analyze", LOG)[1] == out
    code, out, err = run(capsys, "--table", str(path), "rank", "--ccp", "0.2")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"configuration error: {str(path)!r}: distribution table is empty\n"


def test_a_csv_that_ends_inside_a_quoted_field_names_the_line_it_starts_on(capsys, tmp_path):
    path = tmp_path / "listing.csv"
    path.write_bytes(b'path,size_bytes\na.py,1\n"b.py,2\n')
    code, out, err = run(capsys, "analyze", LOG, "--head-listing", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"input error: {str(path)!r}: line 3: 1 fields, need 2\n"


def test_model_without_leading_literals_classifies_every_pattern(capsys, tmp_path):
    sections = {
        "fix": ["(bug|crash)", "[Ff]ix", r"\w*leak"],
        "other_fix": ["(?:fix|Fix)(es|ed)? typos?"],
        "negation": ["(no|not) bugs?"],
    }
    model = tmp_path / "model.terms"
    model.write_text("model_id: no-literals\n" + "".join(
        f"[{name}]\n" + "".join(p + "\n" for p in patterns) for name, patterns in sections.items()
    ))
    code, out, _ = run(capsys, "--model", str(model), "classify", LOG)
    assert code == EXIT_OK
    messages = {r["hash"]: r["msg"] for r in map(json.loads, Path(LOG).read_text().splitlines())}
    for verdict in map(json.loads, out.splitlines()):
        expected = [
            sum(1 for p in patterns if re.search(p, messages[verdict["hash"]], re.IGNORECASE))
            for patterns in sections.values()
        ]
        assert [verdict[f"{name}_hits"] for name in sections] == expected


class TestExportLogRecipe:
    def test_prints_recipe(self, capsys):
        code, out, _ = run(capsys, "export-log-recipe")
        assert code == EXIT_OK
        assert "git log" in out
        assert "--name-only" in out
