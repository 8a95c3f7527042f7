"""End-to-end CLI tests driven through main() with captured stdout."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ccp_miner.cli import (
    CONFIG_ENV_VAR,
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    main,
)

from conftest import FIXTURES

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
        [header] = out.splitlines()
        assert header.startswith("repo_id,year,n_commits") and header.endswith(",ccp_status")

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

    def test_out_of_range_is_internal_error(self, capsys):
        code, _, err = run(capsys, "rank", "--ccp", "1.5")
        assert code != EXIT_OK


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

    def test_malformed_segments(self, capsys):
        code, _, _ = run(
            capsys, "bootstrap", GOLD, "--sensitivity", "--segments", "nope"
        )
        assert code == EXIT_CONFIG

    def test_deterministic_across_processes(self, capsys):
        _, first, _ = run(capsys, "--seed", "3", "bootstrap", GOLD, "--iterations", "150")
        _, second, _ = run(capsys, "--seed", "3", "bootstrap", GOLD, "--iterations", "150")
        assert first == second


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

    @pytest.mark.parametrize("line,key", [("min_commits=10", "min_commits"), ("year=soon", "year")])
    def test_env_config_key_not_read_or_bad_value(self, capsys, tmp_path, monkeypatch, line, key):
        cfg = tmp_path / "miner.cfg"
        cfg.write_text(line + "\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        code, _, err = run(capsys, "rank", "--ccp", "0.2")
        assert code == EXIT_CONFIG
        assert str(cfg) in err and key in err


LATIN1 = "caf\xe9".encode("latin-1")


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
        ("miner.cfg", b"seed=1\n# " + LATIN1 + b"\n", ["rank", "--ccp", "0.2"], EXIT_CONFIG),
        ("perf.cfg", b"recall=0.8\nfpr=0.1\nmodel_id=" + LATIN1 + b"\n",
         ["--perf", "{path}", "rank", "--ccp", "0.2"], EXIT_CONFIG),
        ("model.terms", b"model_id: m\n[fix]\n" + LATIN1 + b"\n",
         ["--model", "{path}", "rank", "--ccp", "0.2"], EXIT_CONFIG),
        ("widget.log",
         b"\x1eaaa\x1fann@x\x1f2019-01-01T00:00:00+00:00\x1fp\x1ffix " + LATIN1 + b"\x1f\n",
         ["analyze", "{path}", "--input-format", "git"], EXIT_INPUT),
    ],
    ids=["metadata-short-row", "metadata-latin1", "corpus-latin1", "env-config-latin1",
         "perf-latin1", "model-latin1", "raw-git-log-latin1"],
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
    assert str(path) in err


def test_importing_the_cli_does_not_load_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    probe = (
        "import sys, ccp_miner.cli as cli;"
        "cli.RunConfig(cli.build_parser().parse_args(['rank', '--ccp', '0.2']));"
        "print('numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestExportLogRecipe:
    def test_prints_recipe(self, capsys):
        code, out, _ = run(capsys, "export-log-recipe")
        assert code == EXIT_OK
        assert "git log" in out
        assert "--name-only" in out
