"""Estimator unit tests: MLE inversion, validity domain, bootstrap, ranking."""

import pytest

from ccp_miner.errors import ConfigError, InputError
from ccp_miner.estimator import (
    DistributionTable,
    EstimateStatus,
    ModelPerformance,
    bootstrap_difference_distribution,
    ccp_from_hit_rate,
    estimate_ccp,
    estimator_sensitivity,
    expected_hit_rate,
    fit_performance,
    load_distribution_table,
    load_performance_config,
    rank_on_scale,
)

from conftest import build_corpus


class TestModelPerformance:
    def test_valid(self):
        ModelPerformance(recall=0.84, fpr=0.042)

    @pytest.mark.parametrize("recall,fpr", [(0.5, 0.5), (0.3, 0.4), (1.1, 0.0), (0.9, -0.1)])
    def test_invalid(self, recall, fpr):
        with pytest.raises(ConfigError):
            ModelPerformance(recall=recall, fpr=fpr)


class TestExpectedHitRate:
    def test_zero_rate_gives_fpr(self, default_perf):
        assert expected_hit_rate(0.0, default_perf) == default_perf.fpr

    def test_full_rate_gives_recall(self, default_perf):
        assert expected_hit_rate(1.0, default_perf) == default_perf.recall

    def test_published_rates_consistent(self, default_perf):
        assert expected_hit_rate(0.246, default_perf) == pytest.approx(0.238, abs=5e-4)

    def test_rejects_non_probability(self, default_perf):
        with pytest.raises(ValueError):
            expected_hit_rate(1.5, default_perf)


class TestEstimateCcp:
    def test_published_hit_rate(self, default_perf):
        ccp, status = ccp_from_hit_rate(0.238, default_perf)
        assert ccp == pytest.approx(0.2456, abs=5e-4)
        assert status is EstimateStatus.VALID

    def test_numerator_zero_boundary(self, default_perf):
        ccp, status = ccp_from_hit_rate(0.042, default_perf)
        assert ccp == 0.0
        assert status is EstimateStatus.VALID

    def test_upper_boundary(self, default_perf):
        ccp, status = ccp_from_hit_rate(0.84, default_perf)
        assert ccp == 1.0
        assert status is EstimateStatus.VALID

    def test_above_one(self):
        perf = ModelPerformance(recall=0.5, fpr=0.0)
        ccp, status = ccp_from_hit_rate(0.9, perf)
        assert ccp == pytest.approx(1.8)
        assert status is EstimateStatus.ABOVE_ONE

    def test_below_zero(self, default_perf):
        ccp, status = ccp_from_hit_rate(0.01, default_perf)
        assert ccp < 0
        assert status is EstimateStatus.BELOW_ZERO

    def test_table_percentile_10_row(self, default_perf):
        ccp, _ = ccp_from_hit_rate(0.35, default_perf)
        assert ccp == pytest.approx(0.386, abs=2e-3)

    def test_counts_interface(self, default_perf):
        estimate = estimate_ccp(k=238, n=1000, perf=default_perf)
        assert estimate.hit_rate == 0.238
        assert estimate.ccp_raw == pytest.approx(0.2456, abs=5e-4)
        assert estimate.valid

    def test_strictly_increasing_in_k(self, default_perf):
        n = 100
        values = [estimate_ccp(k, n, default_perf).ccp_raw for k in range(n + 1)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_round_trip_within_quantization(self, default_perf):
        n = 500
        for pr in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
            k = round(expected_hit_rate(pr, default_perf) * n)
            estimate = estimate_ccp(k, n, default_perf)
            # hit-count quantization bounds the round-trip error
            assert abs(estimate.ccp_raw - pr) <= 1 / (2 * n) / (default_perf.recall - default_perf.fpr)

    def test_zero_commits_rejected(self, default_perf):
        with pytest.raises(InputError):
            estimate_ccp(k=0, n=0, perf=default_perf)


class TestValidDomain:
    def test_status_matches_domain(self, default_perf):
        low, high = default_perf.fpr, default_perf.recall
        for hr in (low, high, (low + high) / 2):
            assert ccp_from_hit_rate(hr, default_perf)[1] is EstimateStatus.VALID
        assert ccp_from_hit_rate(low - 1e-9, default_perf)[1] is EstimateStatus.BELOW_ZERO
        assert ccp_from_hit_rate(high + 1e-9, default_perf)[1] is EstimateStatus.ABOVE_ONE

    def test_status_follows_the_rounded_value(self):
        # k/n = 1.0 lies above recall, but the division rounds to exactly 1.0
        perf = ModelPerformance(recall=0.9999999999999999, fpr=0.06)
        estimate = estimate_ccp(k=1, n=1, perf=perf)
        assert estimate.ccp_raw == 1.0
        assert estimate.status is EstimateStatus.VALID


class TestBootstrap:
    def test_perfect_classifier_all_differences_zero(self, term_model):
        corpus = build_corpus(tp=30, fn=0, fp=0, tn=30)
        report = bootstrap_difference_distribution(
            corpus, term_model, perf=ModelPerformance(1.0, 0.0), iterations=200, seed=3
        )
        assert report.mean_difference == 0.0
        assert report.interval_low == 0.0
        assert report.interval_high == 0.0

    def test_single_iteration_collapses(self, term_model, validation_corpus):
        report = bootstrap_difference_distribution(
            validation_corpus, term_model, iterations=1, seed=5
        )
        assert report.interval_low == report.interval_high == report.mean_difference

    def test_deterministic_given_seed(self, term_model, validation_corpus):
        a = bootstrap_difference_distribution(validation_corpus, term_model, iterations=300, seed=11)
        b = bootstrap_difference_distribution(validation_corpus, term_model, iterations=300, seed=11)
        assert a == b

    def test_empty_corpus_rejected(self, term_model):
        with pytest.raises(InputError):
            bootstrap_difference_distribution([], term_model, iterations=10, seed=0)


class TestSensitivity:
    def test_zero_variance_corpus(self, term_model):
        # duplicates of one always-hit positive and one never-hit negative:
        # every resample measures recall=1, fpr=0, so estimators never differ
        corpus = build_corpus(tp=25, fn=0, fp=0, tn=25)
        report = estimator_sensitivity(corpus, term_model, iterations=100, seed=2)
        for segment in report.segments:
            assert segment.max_abs_difference == 0.0

    def test_deterministic(self, term_model, validation_corpus):
        a = estimator_sensitivity(validation_corpus, term_model, iterations=100, seed=9)
        b = estimator_sensitivity(validation_corpus, term_model, iterations=100, seed=9)
        assert a == b

    def test_rejects_bad_segment(self, term_model, validation_corpus):
        with pytest.raises(ValueError):
            estimator_sensitivity(
                validation_corpus, term_model, iterations=10, eval_segments=((0.5, 1.5),)
            )


class TestFitPerformance:
    def test_validation_counts(self, validation_corpus, term_model):
        from ccp_miner.estimator import _corpus_arrays

        labels, hits = _corpus_arrays(validation_corpus, term_model)
        perf = fit_performance(labels, hits)
        assert perf.recall == pytest.approx(91 / 109)
        assert perf.fpr == pytest.approx(34 / 291)

    def test_requires_both_classes(self):
        with pytest.raises(InputError):
            fit_performance([True, True], [True, False])


class TestRankOnScale:
    def test_median_band(self, distribution_table):
        band = rank_on_scale(0.20, distribution_table)
        assert band.lower == 50
        assert band.upper == 60

    def test_top_band(self, distribution_table):
        band = rank_on_scale(0.04, distribution_table)
        assert band.label == "top 5%"

    def test_bottom_decile(self, distribution_table):
        band = rank_on_scale(0.50, distribution_table)
        assert band.label == "bottom 10%"

    def test_monotone(self, distribution_table):
        grid = [i / 100 for i in range(0, 101)]
        lowers = [rank_on_scale(c, distribution_table).lower for c in grid]
        assert all(a >= b for a, b in zip(lowers, lowers[1:]))

    def test_rejects_non_probability(self, distribution_table):
        with pytest.raises(ValueError):
            rank_on_scale(1.2, distribution_table)

    def test_table_validation(self):
        with pytest.raises(ConfigError):
            DistributionTable(rows=((10, 0.3), (20, 0.4)))  # thresholds must decrease
        with pytest.raises(ConfigError):
            DistributionTable(rows=((20, 0.4), (10, 0.3)))  # percentiles must ascend


class TestConfigFiles:
    def test_performance_config(self, tmp_path):
        cfg = tmp_path / "perf.cfg"
        cfg.write_text("recall=0.9\nfpr=0.1\nmodel_id=alt\n")
        perf, model_id = load_performance_config(cfg)
        assert (perf.recall, perf.fpr, model_id) == (0.9, 0.1, "alt")

    def test_malformed_performance_config(self, tmp_path):
        cfg = tmp_path / "perf.cfg"
        cfg.write_text("recall=high\nfpr=0.1\n")
        with pytest.raises(ConfigError):
            load_performance_config(cfg)

    def test_distribution_table_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("percentile,ccp\n10,0.4\n50,0.2\n")
        table = load_distribution_table(path)
        assert table.rows == ((10, 0.4), (50, 0.2))
