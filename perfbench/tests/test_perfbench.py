"""Tests of the benchmark itself: generator, report checks, spans.

Run from the root of the source tree:

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import templates as T  # noqa: E402
from ccp_miner import classifier, cli, estimator  # noqa: E402

SMALL = {
    "repo-history": {"commits": 600},
    "corpus-selection": {"records": 20_000},
    "model-validation": {"messages": 300, "iterations": 200},
    "cross-project-stats": {"entities": 300, "dev_rows": 3_000},
}


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _run_job(spec: dict) -> list[dict]:
    reports = []
    for argv in spec["calls"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(argv)) == 0
        reports.append(json.loads(out.getvalue()))
    return reports


@pytest.fixture(scope="module")
def specs(tmp_path_factory) -> dict[str, dict]:
    return {
        w: gen.generate(w, tmp_path_factory.mktemp(w), 7, **SMALL[w]) for w in gen.WORKLOADS
    }


# ---------------------------------------------------------------------------
# Generator


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_bytes(workload, tmp_path):
    a = gen.generate(workload, tmp_path / "a", 3, **SMALL[workload])
    b = gen.generate(workload, tmp_path / "b", 3, **SMALL[workload])
    c = gen.generate(workload, tmp_path / "c", 4, **SMALL[workload])
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    strip = lambda spec: json.dumps(spec).replace(str(tmp_path / "a"), "").replace(
        str(tmp_path / "b"), "")
    assert strip(a) == strip(b)
    assert a["truth"] != c["truth"]


def test_template_verdicts_hold_under_the_bundled_model():
    model = classifier.load_default_term_model()
    english = classifier.load_default_english_model()

    def counts(text):
        v = classifier.classify_message(text, model)
        return v.fix_hits, v.other_fix_hits, v.negation_hits

    for noun in T.NOUNS:
        for s in T.CORRECTIVE_SUBJECTS + T.CORRECTIVE_LINES:
            fix, other, negation = counts(s.format(noun=noun))
            assert fix > 0 and other == 0 and negation == 0, s
        for s in T.PLAIN_SUBJECTS + (T.MERGE_SUBJECT,):
            assert not classifier.classify_message(s.format(noun=noun), model).corrective, s
        for s in T.NEUTRAL_LINES:
            assert counts(s.format(noun=noun)) == (0, 0, 0), s
    english_pools = T.CORRECTIVE_SUBJECTS + T.PLAIN_SUBJECTS + T.NEUTRAL_LINES + T.CORRECTIVE_LINES
    for s in english_pools:
        assert classifier.english_hit_rate([s.format(noun="parser")], english) == 1.0, s
    for noun in T.FOREIGN_NOUNS:
        for s in T.FOREIGN_SUBJECTS:
            text = s.format(noun=noun)
            assert counts(text) == (0, 0, 0), text
            assert classifier.english_hit_rate([text], english) == 0.0, text


def test_labeled_corpus_realizes_the_planted_confusion_counts(specs):
    spec = specs["model-validation"]
    corpus = classifier.load_labeled_corpus(spec["calls"][0][1])
    matrix = classifier.evaluate_model(corpus, classifier.load_default_term_model())
    assert {"tp": matrix.tp, "fn": matrix.fn, "fp": matrix.fp, "tn": matrix.tn} == (
        spec["truth"]["confusion"]
    )


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_reports_of_the_program_pass_the_checks(workload, specs):
    checks.check_job(_run_job(specs[workload]), specs[workload]["truth"])


# ---------------------------------------------------------------------------
# Report checks catch corruption


def _corrupted(report: dict, edit) -> dict:
    bad = copy.deepcopy(report)
    edit(bad)
    return bad


def test_one_changed_k_hits_is_caught(specs):
    spec = specs["repo-history"]
    report = _run_job(spec)[0]

    def bump(r):
        r["projects"][3]["k_hits"] += 1

    with pytest.raises(checks.CheckError, match="k_hits"):
        checks.check_job([_corrupted(report, bump)], spec["truth"])


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r["projects"][0]["ccp"].__setitem__("ccp_raw", r["projects"][0]["ccp"]["ccp_raw"] + 1e-12),
        lambda r: r["exclusions"].pop(),
        lambda r: r["exclusions"][0].__setitem__("rule", "fork" if r["exclusions"][0]["rule"] != "fork" else "dominated"),
        lambda r: r["projects"].pop(),
        lambda r: r.__setitem__("skipped_lines", r["skipped_lines"] - 1),
        lambda r: next(p for p in r["projects"] if "diagnostics" in p)["diagnostics"].__setitem__("english_hit_rate", 0.5),
    ],
)
def test_other_analyze_corruptions_are_caught(specs, edit):
    spec = specs["corpus-selection"]
    report = _run_job(spec)[0]
    with pytest.raises(checks.CheckError):
        checks.check_job([_corrupted(report, edit)], spec["truth"])


def test_stats_and_bootstrap_corruptions_are_caught(specs):
    spec = specs["cross-project-stats"]
    cochange, twin = _run_job(spec)
    bad = _corrupted(twin, lambda r: r["twin"].__setitem__("n_developer_pairs", 1))
    with pytest.raises(checks.CheckError, match="n_developer_pairs"):
        checks.check_job([cochange, bad], spec["truth"])

    spec = specs["model-validation"]
    report = _run_job(spec)[0]
    bad = _corrupted(report, lambda r: r["difference"].__setitem__("interval_low", -1.0))
    with pytest.raises(checks.CheckError, match="interval_low"):
        checks.check_job([bad], spec["truth"])


# ---------------------------------------------------------------------------
# Spans


def test_self_time_subtracts_covered_child_time():
    # id, parent, job, name, start, end, counts
    tree = [
        (1, 0, 5, "cli.self_s", 0.0, 10.0, None),
        (2, 1, 5, "ingestion.parse_s", 1.0, 4.0, {"ingestion.records": 10}),
        (3, 1, 5, "classifier.classify_s", 5.0, 6.0, {"classifier.messages": 1}),
        (4, 1, 5, "classifier.classify_s", 6.0, 8.5, {"classifier.messages": 1}),
        (5, 4, 5, "estimator.estimate_s", 7.0, 7.5, None),
        (6, 0, 6, "cli.self_s", 20.0, 21.0, None),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {1: 3.5, 2: 3.0, 3: 1.0, 4: 2.0, 5: 0.5, 6: 1.0}
    totals = spans.job_totals(tree)
    assert totals[5]["cli.self_s"] == 3.5
    assert totals[5]["classifier.classify_s"] == 3.0
    assert totals[5]["classifier.messages"] == 2
    assert totals[6]["cli.self_s"] == 1.0
    medians = spans.median_over_jobs(totals, ["cli.self_s", "ingestion.records"])
    assert medians == {"cli.self_s": 2.25, "ingestion.records": 5.0}


def test_overlapping_children_are_covered_once():
    tree = [
        (1, 0, 0, "a", 0.0, 10.0, None),
        (2, 1, 0, "b", 2.0, 6.0, None),
        (3, 1, 0, "b", 4.0, 8.0, None),
        (4, 1, 0, "b", 9.0, 12.0, None),  # runs past its parent: clipped
    ]
    assert spans.self_times(tree)[1] == 10.0 - 6.0 - 1.0


def test_tracer_wraps_rebound_names_and_restores_them(specs, tmp_path):
    originals = (classifier.classify_message, estimator.classify_message, cli.main)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert estimator.classify_message is classifier.classify_message
        assert estimator.classify_message is not originals[0]
        tracer.job = 1
        _run_job(specs["model-validation"])
    finally:
        tracer.uninstall()
    assert (classifier.classify_message, estimator.classify_message, cli.main) == originals

    tracer.write(tmp_path / "spans.jsonl")
    recorded = spans.read_spans(tmp_path / "spans.jsonl")
    totals = spans.job_totals(recorded)[1]
    messages = SMALL["model-validation"]["messages"]
    assert totals["classifier.messages"] == 2 * messages
    parents = {s[0]: s for s in recorded}
    classify_parents = {parents[s[1]][3] for s in recorded if s[3] == "classifier.classify_s"}
    assert classify_parents == {"estimator.bootstrap_s", "estimator.sensitivity_s"}
    job_time = sum(s[5] - s[4] for s in recorded if s[1] == 0)
    assert sum(v for k, v in totals.items() if k.endswith("_s")) == pytest.approx(job_time)


# ---------------------------------------------------------------------------
# Entry point


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "repo-history", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
