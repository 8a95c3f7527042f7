"""Acceptance gate: nine checks, one printed pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines; each
check is also a regular assertion so the suite fails loudly.
"""

import time

import numpy as np
import pytest

from ccp_miner.classifier import classify_message, evaluate_model
from ccp_miner.estimator import (
    ModelPerformance,
    Resamples,
    bootstrap_difference_distribution,
    ccp_from_hit_rate,
    estimate_ccp,
    estimator_sensitivity,
    EstimateStatus,
    rank_on_scale,
)

from conftest import build_corpus

RESULTS = []


def record(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else "")
    RESULTS.append(line)
    print(line)
    assert ok, line


class TestAcceptance:
    def test_01_linear_form_of_the_estimator(self, default_perf):
        start = time.perf_counter()
        grid = np.linspace(0.042, 0.84, 1000)
        worst = max(
            abs(ccp_from_hit_rate(hr, default_perf)[0] - (1.253 * hr - 0.053))
            for hr in grid
        )
        elapsed = time.perf_counter() - start
        record(
            "1 estimator matches its 3-decimal linear form within 0.001",
            worst <= 0.001 and elapsed < 1.0,
            f"max deviation {worst:.5f}, {elapsed:.2f}s",
        )

    def test_02_published_rate_consistency(self, default_perf):
        ccp_a, _ = ccp_from_hit_rate(0.238, default_perf)
        ccp_b, _ = ccp_from_hit_rate(0.35, default_perf)
        ok = abs(ccp_a - 0.2456) <= 0.0005 and abs(ccp_b - 0.386) <= 0.002
        record(
            "2 hit rates 0.238 and 0.35 map to 0.2456 and 0.386",
            ok,
            f"got {ccp_a:.4f} and {ccp_b:.4f}",
        )

    def test_03_validity_domain(self, default_perf):
        low, s_low = ccp_from_hit_rate(0.042, default_perf)
        high, s_high = ccp_from_hit_rate(0.84, default_perf)
        over, s_over = ccp_from_hit_rate(0.9, ModelPerformance(recall=0.5, fpr=0.0))
        ok = (
            low == 0.0
            and s_low is EstimateStatus.VALID
            and high == 1.0
            and s_high is EstimateStatus.VALID
            and over == pytest.approx(1.8)
            and s_over is EstimateStatus.ABOVE_ONE
        )
        record(
            "3 domain boundaries map to exactly 0 and 1; 1.8 flagged AboveOne",
            ok,
            f"boundaries ({low}, {high}), overflow {over:.1f} {s_over.value}",
        )

    def test_04_bootstrap_difference_interval(self, term_model, validation_corpus):
        start = time.perf_counter()
        with Resamples(len(validation_corpus), 0) as resamples:
            report = bootstrap_difference_distribution(
                validation_corpus, term_model, resamples, perf=None, iterations=10_000
            )
        elapsed = time.perf_counter() - start
        ok = (
            -0.059 <= report.interval_low
            and report.interval_high <= 0.061
            and elapsed < 60.0
        )
        record(
            "4 bootstrap 95% interval of estimate minus truth within [-0.059, 0.061]",
            ok,
            f"[{report.interval_low:.3f}, {report.interval_high:.3f}], {elapsed:.1f}s",
        )

    def test_05_estimator_sensitivity(self, term_model, validation_corpus):
        start = time.perf_counter()
        with Resamples(len(validation_corpus), 0) as resamples:
            report = estimator_sensitivity(
                validation_corpus,
                term_model,
                resamples,
                iterations=10_000,
                eval_segments=((0.06, 0.39),),
            )
        elapsed = time.perf_counter() - start
        [segment] = report.segments
        ok = segment.p95_abs_difference <= 0.10 and elapsed < 120.0
        record(
            "5 p95 estimator sensitivity on [0.06, 0.39] at most 0.10",
            ok,
            f"p95 {segment.p95_abs_difference:.3f}, {elapsed:.1f}s",
        )

    def test_06_classifier_fixture_accuracy(self, gold_corpus, term_model):
        matrix = evaluate_model(gold_corpus, term_model)
        spot = (
            not classify_message("This is not an error", term_model).corrective
            and not classify_message("fixed indentation", term_model).corrective
            and classify_message("fix crash on startup", term_model).corrective
            and classify_message("bug in date parsing fixed", term_model).corrective
        )
        ok = len(gold_corpus) >= 40 and matrix.accuracy >= 0.90 and spot
        record(
            "6 labeled fixture of 40+ commits classified with accuracy 0.90+",
            ok,
            f"n={matrix.total}, accuracy {matrix.accuracy:.3f}",
        )

    def test_07_end_to_end_synthetic_repositories(self, term_model):
        start = time.perf_counter()
        worst = 0.0
        for p in (0.10, 0.20, 0.40):
            positives = int(10_000 * p)
            negatives = 10_000 - positives
            # 10% of positives missed, 5% of negatives falsely flagged
            fn = positives // 10
            fp = negatives // 20
            corpus = build_corpus(tp=positives - fn, fn=fn, fp=fp, tn=negatives - fp)
            hits = sum(
                classify_message(c.message, term_model).corrective for c in corpus
            )
            # perf measured from the generator's own confusion behavior
            matrix = evaluate_model(corpus, term_model)
            perf = ModelPerformance(recall=matrix.recall, fpr=matrix.fpr)
            estimate = estimate_ccp(k=hits, n=len(corpus), perf=perf)
            worst = max(worst, abs(estimate.ccp_raw - p))
        elapsed = time.perf_counter() - start
        ok = worst <= 0.02 and elapsed < 30.0
        record(
            "7 synthetic 10k-commit repositories recover their true rate within 0.02",
            ok,
            f"max error {worst:.4f}, {elapsed:.1f}s",
        )

    def test_08_property_suites(self, request):
        # The invariants themselves live in test_properties.py; re-assert
        # the cheap exact forms here so this gate is self-contained.
        from ccp_miner.analytics import winsorize
        from ccp_miner.stats import co_change

        xs = [1.0, 50.0, 2.0, 1000.0, 3.0]
        w = winsorize(xs, 0.8)
        winsor_ok = winsorize(w, 0.8) == w and all(a <= b for a, b in zip(w, xs))

        perf = ModelPerformance(recall=0.84, fpr=0.042)
        mono_ok = all(
            estimate_ccp(k, 200, perf).ccp_raw < estimate_ccp(k + 1, 200, perf).ccp_raw
            for k in range(200)
        )

        i = {f"e{n}": {2018: 0.0, 2019: d} for n, d in enumerate((-1, 1, -1))}
        j = {f"e{n}": {2018: 0.0, 2019: d} for n, d in enumerate((-1, -1, 1))}
        lift_ok = abs(co_change(i, j).lift - co_change(j, i).lift) <= 1e-9

        ok = winsor_ok and mono_ok and lift_ok
        record(
            "8 exact invariants hold (capping, monotonicity, lift symmetry)",
            ok,
            "full suite in test_properties.py",
        )

    def test_09_ranking_spot_checks(self, distribution_table):
        median = rank_on_scale(0.20, distribution_table)
        top = rank_on_scale(0.04, distribution_table)
        bottom = rank_on_scale(0.50, distribution_table)
        ok = (
            (median.lower_percentile, median.upper_percentile) == (50, 60)
            and top.label == "top 5%"
            and bottom.label == "bottom 10%"
        )
        record(
            "9 rates 0.20, 0.04 and 0.50 band as median, top 5% and bottom 10%",
            ok,
            f"{median.label}; {top.label}; {bottom.label}",
        )

    def test_10_summary(self):
        print()
        for line in RESULTS:
            print(line)
        assert len(RESULTS) == 9
