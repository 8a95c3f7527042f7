"""Estimator unit tests: MLE inversion, validity domain, bootstrap, ranking."""

import itertools
import os
import re
import threading
from collections import Counter
from concurrent.futures import wait

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccp_miner.errors import ConfigError, InputError
from ccp_miner.estimator import (
    MAX_ITERATIONS,
    DistributionTable,
    EstimateStatus,
    ModelPerformance,
    Resamples,
    bootstrap_difference_distribution,
    ccp_from_hit_rate,
    estimate_ccp,
    estimator_sensitivity,
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
            k = round(((default_perf.recall - default_perf.fpr) * pr + default_perf.fpr) * n)
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
            corpus, term_model, Resamples(len(corpus), 3), perf=ModelPerformance(1.0, 0.0),
            iterations=200,
        )
        assert report.mean_difference == 0.0
        assert report.interval_low == 0.0
        assert report.interval_high == 0.0

    def test_single_iteration_collapses(self, term_model, validation_corpus):
        report = bootstrap_difference_distribution(
            validation_corpus, term_model, Resamples(len(validation_corpus), 5), iterations=1
        )
        assert report.interval_low == report.interval_high == report.mean_difference

    def test_deterministic_given_seed(self, term_model, validation_corpus):
        a, b = (
            bootstrap_difference_distribution(
                validation_corpus, term_model, Resamples(len(validation_corpus), 11), iterations=300
            )
            for _ in range(2)
        )
        assert a == b
        assert a.seed == 11

    def test_empty_corpus_rejected(self, term_model):
        with pytest.raises(InputError):
            bootstrap_difference_distribution([], term_model, Resamples(0, 0), iterations=10)

    @pytest.mark.parametrize("ahead", [0, 1000], ids=["on-demand", "drawn-ahead"])
    def test_blocked_resampling_draws_the_stream_of_one_draw(self, ahead, two_cpus):
        import numpy as np

        from ccp_miner.estimator import RESAMPLE_BLOCK

        n = 1000
        step = RESAMPLE_BLOCK // n
        rows = 3 * step + step // 2  # three whole blocks and part of a fourth
        labels = np.random.default_rng(1).random(n) < 0.3
        hits = np.random.default_rng(2).random(n) < 0.4
        one_shot = np.random.default_rng(7)
        idx = one_shot.integers(0, n, size=(rows, n))
        expected = (
            labels[idx].sum(axis=1), hits[idx].sum(axis=1), (labels[idx] & hits[idx]).sum(axis=1)
        )
        with Resamples(n, 7, ahead) as stream:
            stream.bind(labels, hits)
            for got, want in zip(stream.counts(0, rows), expected):
                np.testing.assert_array_equal(got, want)
        # the generator is left where one draw leaves it
        assert stream._rng.integers(0, 2**32) == one_shot.integers(0, 2**32)


def _direct_counts(labels, hits, rows, seed):
    """Positives, hits and true positives of one ``rows x n`` draw, each array gathered apart."""
    import numpy as np

    idx = np.random.default_rng(seed).integers(0, len(labels), size=(rows, len(labels)))
    return labels[idx].sum(1), hits[idx].sum(1), (labels & hits)[idx].sum(1)


@st.composite
def _stream_cases(draw):
    """Labels, hits, a seed, two cursors' steps, and ``ahead`` below, at or past the rows read."""
    import numpy as np

    from ccp_miner.estimator import RESAMPLE_BLOCK

    n = draw(st.integers(1, 3000))
    items = np.random.default_rng(draw(st.integers(0, 2**32)))
    labels = items.random(n) < draw(st.floats(0.0, 1.0))
    hits = items.random(n) < draw(st.floats(0.0, 1.0))
    step = max(1, RESAMPLE_BLOCK // n)
    steps = st.lists(st.integers(1, min(step + 1, 5000)), min_size=1, max_size=4)
    first, second = draw(steps), draw(steps)
    rows = max(sum(first), sum(second))
    ahead = draw(
        st.sampled_from(
            [0, draw(st.integers(0, rows - 1)), rows, rows + draw(st.integers(1, min(2 * step, 5000)))]
        )
    )
    return labels, hits, draw(st.integers(0, 2**32)), first, second, ahead


class TestPackedCounts:
    @settings(max_examples=60, deadline=None)
    @given(case=_stream_cases())
    def test_equal_counting_each_array(self, case):
        """Two cursors, each stepping through the stream its own way, read one direct draw."""
        import numpy as np

        labels, hits, seed, first, second, ahead = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            stream = Resamples(len(labels), seed, ahead)
        with stream:
            stream.bind(labels, hits)
            for steps in (first, second):
                row, read = 0, []
                for count in steps:
                    read.append(stream.counts(row, row + count))
                    row += count
                for got, want in zip(zip(*read), _direct_counts(labels, hits, row, seed)):
                    np.testing.assert_array_equal(np.concatenate(got), want)

    def test_every_field_full_at_the_largest_corpus(self):
        import numpy as np

        from ccp_miner.estimator import MAX_RESAMPLE_ITEMS

        assert MAX_RESAMPLE_ITEMS == 2_097_151
        every = np.ones(MAX_RESAMPLE_ITEMS, dtype=bool)
        stream = Resamples(MAX_RESAMPLE_ITEMS, 0)
        stream.bind(every, every)
        assert [c.tolist() for c in stream.counts(0, 1)] == [[MAX_RESAMPLE_ITEMS]] * 3

    def test_larger_corpus_is_an_input_error_before_any_draw(self, monkeypatch, two_cpus, started):
        import numpy as np

        from ccp_miner.estimator import MAX_RESAMPLE_ITEMS

        made = []
        monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append("generator"))
        with pytest.raises(InputError, match="2,097,151.*2,097,152"):
            with Resamples(MAX_RESAMPLE_ITEMS + 1, 0, ahead=10):
                pass
        assert made == started == []


def _arrays(n: int, seed: int):
    import numpy as np

    items = np.random.default_rng(seed)
    return items.random(n) < 0.3, items.random(n) < 0.4


class TestResamples:
    def test_bind_refuses_another_corpus(self):
        labels, hits = _arrays(50, 1)
        stream = Resamples(50, 0)
        stream.bind(labels, hits)
        stream.bind(labels.copy(), hits.copy())  # the same codes again
        with pytest.raises(ValueError, match="another corpus"):
            stream.bind(labels, ~hits)
        with pytest.raises(ValueError, match="a stream of 50 items cannot count 49"):
            stream.bind(labels[:49], hits[:49])
        with pytest.raises(ValueError, match="cannot count 50"):
            Resamples(49, 0).bind(labels, hits)

    def test_no_ahead_starts_no_thread(self, two_cpus, started):
        stream = Resamples(1000, 0)
        stream.bind(*_arrays(1000, 1))
        stream.counts(0, 2000)
        assert started == []
        with Resamples(1000, 0, ahead=2000) as ahead:
            ahead.bind(*_arrays(1000, 1))
            ahead.counts(0, 2000)
        assert started == ["resample_0"]

    def test_no_thread_is_left_after_a_block_that_raised(self, two_cpus, started):
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="the block failed"):
            with Resamples(1000, 0, ahead=10_000) as stream:
                # the worker holds finished blocks, and more are to come
                assert not wait(stream._blocks, timeout=30).not_done
                raise RuntimeError("the block failed")
        assert started == ["resample_0"]
        assert threading.active_count() == before


@pytest.mark.parametrize("iterations", [0, MAX_ITERATIONS + 1], ids=["zero", "above-the-cap"])
def test_both_studies_refuse_iterations_out_of_bounds(term_model, validation_corpus, iterations):
    # A stream of another length: a study that reached its resamples would fail on it instead.
    resamples = Resamples(len(validation_corpus) - 1, 0)
    for study in (bootstrap_difference_distribution, estimator_sensitivity):
        with pytest.raises(ValueError, match=rf"iterations must be in \[1, {MAX_ITERATIONS}\]"):
            study(validation_corpus, term_model, resamples, iterations=iterations)


class TestSensitivity:
    def test_refused_exactly_when_no_resample_is_valid(self, term_model):
        """Every corpus of up to four items, against every resample of it.

        A resample is valid with a positive, a negative and recall > fpr. One
        exists exactly when the corpus has a true positive and a true
        negative; without one, estimator_sensitivity raises before drawing,
        and with one it ends.
        """
        cells = dict(zip(("tp", "fn", "fp", "tn"), build_corpus(tp=1, fn=1, fp=1, tn=1)))

        def valid(resample) -> bool:
            count = Counter(resample)
            positives, negatives = count["tp"] + count["fn"], count["fp"] + count["tn"]
            return bool(positives and negatives) and (
                count["tp"] / positives > count["fp"] / negatives
            )

        for n in range(1, 5):
            for kinds in itertools.product(cells, repeat=n):
                exists = any(
                    valid([kinds[i] for i in picks])
                    for picks in itertools.product(range(n), repeat=n)
                )
                assert exists == ("tp" in kinds and "tn" in kinds), kinds
                corpus = [cells[kind] for kind in kinds]
                if exists:
                    estimator_sensitivity(corpus, term_model, Resamples(n, n), iterations=2)
                else:
                    with pytest.raises(InputError, match="a true positive and a true negative"):
                        estimator_sensitivity(corpus, term_model, Resamples(n, n), iterations=2)

    def test_zero_variance_corpus(self, term_model):
        # duplicates of one always-hit positive and one never-hit negative:
        # every resample measures recall=1, fpr=0, so estimators never differ
        corpus = build_corpus(tp=25, fn=0, fp=0, tn=25)
        report = estimator_sensitivity(corpus, term_model, Resamples(len(corpus), 2), iterations=100)
        for segment in report.segments:
            assert segment.max_abs_difference == 0.0

    def test_deterministic(self, term_model, validation_corpus):
        a, b = (
            estimator_sensitivity(
                validation_corpus, term_model, Resamples(len(validation_corpus), 9), iterations=100
            )
            for _ in range(2)
        )
        assert a == b
        assert a.seed == 9

    def test_rejects_bad_segment(self, term_model, validation_corpus):
        with pytest.raises(ValueError):
            estimator_sensitivity(
                validation_corpus,
                term_model,
                Resamples(len(validation_corpus), 0),
                iterations=10,
                eval_segments=((0.5, 1.5),),
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
        assert band.lower_percentile == 50
        assert band.upper_percentile == 60

    def test_top_band(self, distribution_table):
        band = rank_on_scale(0.04, distribution_table)
        assert band.label == "top 5%"

    def test_bottom_decile(self, distribution_table):
        band = rank_on_scale(0.50, distribution_table)
        assert band.label == "bottom 10%"

    def test_monotone(self, distribution_table):
        grid = [i / 100 for i in range(0, 101)]
        lowers = [rank_on_scale(c, distribution_table).lower_percentile for c in grid]
        assert all(a >= b for a, b in zip(lowers, lowers[1:]))

    def test_rejects_non_probability(self, distribution_table):
        with pytest.raises(ValueError):
            rank_on_scale(1.2, distribution_table)

    def test_table_validation(self, distribution_table):
        with pytest.raises(ConfigError):
            DistributionTable(rows=((10, 0.3), (20, 0.4)))  # thresholds must decrease
        with pytest.raises(ConfigError):
            DistributionTable(rows=((20, 0.4), (10, 0.3)))  # percentiles must ascend
        # NaN compares false, so it once passed the decreasing check; percentiles
        # of 0, 100 or beyond gave bands such as "top 0%" or "top -50%".
        nan, inf = float("nan"), float("inf")
        for rows in [((10, 0.3), (50, nan)), ((10, 0.3), (50, inf)), ((10, 1.5), (50, 0.2)),
                     ((10, 0.3), (50, -0.1)), ((-5, 0.3), (50, 0.2)), ((50, 0.3), (150, 0.2)),
                     ((0, 0.3), (50, 0.2)), ((50, 0.3), (100, 0.2))]:
            with pytest.raises(ConfigError):
                DistributionTable(rows=rows)
        # The bundled table passes the same rules.
        assert [p for p, _ in distribution_table.rows] == [10, 20, 30, 40, 50, 60, 70, 80, 90, 95]


class TestConfigFiles:
    def test_performance_config(self, tmp_path):
        cfg = tmp_path / "perf.cfg"
        cfg.write_text("recall=0.9\nfpr=0.1\nmodel_id=alt\n")
        assert load_performance_config(cfg) == ModelPerformance(recall=0.9, fpr=0.1)

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
        for rows in ["10,0.3\n50,nan\n", "-5,0.3\n150,0.2\n", "0,0.3\n100,0.2\n",
                     "10,0.2\n50,0.3\n", ""]:
            path.write_text("percentile,ccp\n" + rows)
            with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: distribution table "):
                load_distribution_table(path)
