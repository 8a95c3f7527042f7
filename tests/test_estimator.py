"""Estimator unit tests: MLE inversion, validity domain, bootstrap, ranking."""

import itertools
import math
import re
import threading
from collections import Counter
from concurrent.futures import wait

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccp_miner.classifier import ConfusionMatrix, evaluate_model
from ccp_miner.errors import ConfigError, InputError
from ccp_miner.estimator import (
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
        with Resamples(len(corpus), 3) as resamples:
            report = bootstrap_difference_distribution(
                corpus, term_model, resamples, perf=ModelPerformance(1.0, 0.0), iterations=200
            )
        assert report.mean_difference == 0.0
        assert report.interval_low == 0.0
        assert report.interval_high == 0.0

    def test_single_iteration_collapses(self, term_model, validation_corpus):
        with Resamples(len(validation_corpus), 5) as resamples:
            report = bootstrap_difference_distribution(
                validation_corpus, term_model, resamples, iterations=1
            )
        assert report.interval_low == report.interval_high == report.mean_difference

    def test_deterministic_given_seed(self, term_model, validation_corpus):
        reports = []
        for _ in range(2):
            with Resamples(len(validation_corpus), 11) as resamples:
                reports.append(
                    bootstrap_difference_distribution(
                        validation_corpus, term_model, resamples, iterations=300
                    )
                )
        a, b = reports
        assert a == b
        assert a.seed == 11

    def test_blocked_resampling_draws_the_stream_of_one_draw(self):
        """Two cursors reading past the QUEUED_BLOCKS blocks queued at the start read one draw.

        The first reads as the bootstrap does, rows [0, iterations) at once.
        The second reads as the sensitivity study does: the same rows in
        uneven steps, then rows past them, as its redraws and second draw do.
        """
        import numpy as np

        from ccp_miner.estimator import QUEUED_BLOCKS, RESAMPLE_BLOCK

        n = 1000
        step = RESAMPLE_BLOCK // n
        iterations = (QUEUED_BLOCKS + 1) * step + step // 2
        labels = np.random.default_rng(1).random(n) < 0.3
        hits = np.random.default_rng(2).random(n) < 0.4
        steps = (step // 3, iterations - step // 3, 7, iterations)  # first draw, redraws, second
        expected = _direct_counts(labels, hits, sum(steps), 7)
        with Resamples(n, 7) as stream:
            stream.bind(labels, hits)
            for got, want in zip(stream.counts(0, iterations), expected):
                np.testing.assert_array_equal(got, want[:iterations])
            row, read = 0, []
            for count in steps:
                read.append(stream.counts(row, row + count))
                row += count
            for got, want in zip(zip(*read), expected):
                np.testing.assert_array_equal(np.concatenate(got), want)


def _direct_counts(labels, hits, rows, seed):
    """Positives, hits and true positives of one ``rows x n`` draw, each array gathered apart."""
    import numpy as np

    idx = np.random.default_rng(seed).integers(0, len(labels), size=(rows, len(labels)))
    return labels[idx].sum(1), hits[idx].sum(1), (labels & hits)[idx].sum(1)


@st.composite
def _stream_cases(draw):
    """Labels, hits, a seed, and two cursors' steps."""
    import numpy as np

    from ccp_miner.estimator import RESAMPLE_BLOCK

    n = draw(st.integers(1, 3000))
    items = np.random.default_rng(draw(st.integers(0, 2**32)))
    labels = items.random(n) < draw(st.floats(0.0, 1.0))
    hits = items.random(n) < draw(st.floats(0.0, 1.0))
    step = max(1, RESAMPLE_BLOCK // n)
    steps = st.lists(st.integers(1, min(step + 1, 5000)), min_size=1, max_size=4)
    return labels, hits, draw(st.integers(0, 2**32)), draw(steps), draw(steps)


class TestPackedCounts:
    @settings(max_examples=60, deadline=None)
    @given(case=_stream_cases())
    def test_equal_counting_each_array(self, case):
        """Two cursors, each stepping through the stream its own way, read one direct draw."""
        import numpy as np

        labels, hits, seed, first, second = case
        with Resamples(len(labels), seed) as stream:
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
        with Resamples(MAX_RESAMPLE_ITEMS, 0) as stream:
            stream.bind(every, every)
            assert [c.tolist() for c in stream.counts(0, 1)] == [[MAX_RESAMPLE_ITEMS]] * 3

    def test_larger_corpus_is_an_input_error_before_any_draw(self, monkeypatch, started):
        import numpy as np

        from ccp_miner.estimator import MAX_RESAMPLE_ITEMS

        made = []
        monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append("generator"))
        with pytest.raises(InputError, match="2,097,151.*2,097,152"):
            with Resamples(MAX_RESAMPLE_ITEMS + 1, 0):
                pass
        assert made == started == []


def _arrays(n: int, seed: int):
    import numpy as np

    items = np.random.default_rng(seed)
    return items.random(n) < 0.3, items.random(n) < 0.4


class TestResamples:
    def test_bind_refuses_another_corpus(self):
        labels, hits = _arrays(50, 1)
        with Resamples(50, 0) as stream, Resamples(49, 0) as shorter:
            stream.bind(labels, hits)
            stream.bind(labels.copy(), hits.copy())  # the same codes again
            with pytest.raises(ValueError, match="another corpus"):
                stream.bind(labels, ~hits)
            with pytest.raises(ValueError, match="a stream of 50 items cannot count 49"):
                stream.bind(labels[:49], hits[:49])
            with pytest.raises(ValueError, match="cannot count 50"):
                shorter.bind(labels, hits)

    def test_every_stream_starts_one_worker_and_none_is_left_after_with(
        self, monkeypatch, started
    ):
        """Whether nothing is read, rows are read, the body raises or a draw fails."""
        import numpy as np

        arrays = _arrays(1000, 1)
        before = threading.active_count()
        with Resamples(1000, 0):
            pass
        assert threading.active_count() == before
        with Resamples(1000, 0) as stream:
            stream.bind(*arrays)
            stream.counts(0, 2000)
        assert threading.active_count() == before
        with pytest.raises(RuntimeError, match="the block failed"):
            with Resamples(1000, 0) as stream:
                # the worker holds finished blocks, and more are to come
                assert not wait(stream._blocks, timeout=30).not_done
                raise RuntimeError("the block failed")
        assert threading.active_count() == before

        class FailingFirst:
            """A generator whose first draw fails and whose later draws succeed."""

            def __init__(self, seed, default_rng=np.random.default_rng):
                self._rng = default_rng(seed)
                self._failed = False

            def integers(self, *args, **kwargs):
                if not self._failed:
                    self._failed = True
                    raise RuntimeError("no random numbers")
                return self._rng.integers(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", FailingFirst)
        with pytest.raises(RuntimeError, match="no random numbers"):
            with Resamples(1000, 0) as stream:
                stream.bind(*arrays)
                with pytest.raises(RuntimeError, match="no random numbers"):
                    stream.counts(0, 1)
                stream.counts(0, 1)  # the failed block stays first: no later block is read instead
        assert threading.active_count() == before
        assert started == ["resample_0"] * 4


class TestBootstrapClosedForm:
    """The bootstrap report against the closed form of one iteration's difference.

    Let the corpus have n items, item i with label y_i and hit h_i, and let
    (r, f) be the recall and fpr the study inverts with: measured on the
    whole corpus (``perf=None``, the CLI's ``--perf-source corpus``) or the
    bundled constants (``--perf-source config``). An iteration draws n items
    with replacement and records (hr* - f)/(r - f) - p*, with hr* its hit
    rate and p* its positive rate. That is the mean over the n draws of the
    item score s_i = (h_i - f)/(r - f) - y_i, so one difference is a mean of
    n independent draws from the four cells, each weighted by its count:

    - its mean is mu = (hr - f)/(r - f) - p, exactly 0 when (r, f) are the
      corpus's own, since then hr = r p + f (1 - p);
    - its variance is sigma^2 = Var(s)/n, n times the variance of one
      draw's share s/n; its skewness is g = skew(s)/sqrt(n).

    Over B iterations the reported mean is normal to within the central
    limit theorem, with standard error sigma/sqrt(B). The interval end at
    tail q is a sample q-quantile of B draws: its standard error is
    sigma sqrt(q(1 - q)/B)/phi(z_q), and its centre, to first order in the
    Cornish-Fisher expansion, mu + sigma (z_q + (z_q^2 - 1) g/6). With
    z = 4.5 each of the 54 checks below fails by chance with probability
    below 1e-5. What the bounds leave out is under 0.004 sigma against
    tolerances of at least 0.12 sigma: the expansion's next terms (at most
    0.002 sigma for these corpora) and the nearest-rank rule's rank offset
    (q moves by at most 1/B, 0.002 sigma). The tolerances were fixed from
    this derivation before the program's reports were looked at.

    The first corpus has the cells of the benchmark's seed-1
    ``model-validation`` corpus, where sigma = 0.00842.
    """

    CELLS = [(547, 125, 67, 1261), (91, 18, 34, 257), (300, 150, 120, 430)]
    Z = 4.5
    TAIL_Z = 1.959963984540054  # z at 0.975, the tails of coverage 0.95

    @staticmethod
    def _moments(cells, perf):
        """mu, sigma and skewness of one iteration's difference."""
        tp, fn, fp, tn = cells
        n = sum(cells)
        if perf is None:
            perf = ModelPerformance(tp / (tp + fn), fp / (fp + tn))
        weighted = [
            (count / n, (hit - perf.fpr) / (perf.recall - perf.fpr) - label)
            for count, hit, label in ((tp, 1, 1), (fn, 0, 1), (fp, 1, 0), (tn, 0, 0))
        ]
        mu = sum(w * s for w, s in weighted)
        var, third = (sum(w * (s - mu) ** k for w, s in weighted) for k in (2, 3))
        return mu, math.sqrt(var / n), third / var**1.5 / math.sqrt(n)

    def test_sigma_of_the_model_validation_corpus(self):
        mu, sigma, _ = self._moments(self.CELLS[0], None)
        assert abs(mu) < 1e-15
        assert sigma == pytest.approx(0.00842, abs=5e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("perf_source", ["corpus", "config"])
    @pytest.mark.parametrize("cells", CELLS, ids=lambda cells: "-".join(map(str, cells)))
    def test_mean_and_interval_ends(self, term_model, default_perf, cells, perf_source, seed):
        perf = None if perf_source == "corpus" else default_perf
        mu, sigma, skew = self._moments(cells, perf)
        corpus = build_corpus(*cells)
        iterations = 10_000
        with Resamples(len(corpus), seed) as resamples:
            report = bootstrap_difference_distribution(
                corpus, term_model, resamples, perf=perf, iterations=iterations
            )
        assert report.coverage == 0.95
        assert abs(report.mean_difference - mu) <= self.Z * sigma / math.sqrt(iterations)
        z, tail = self.TAIL_Z, 0.025
        density = math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
        tolerance = self.Z * sigma * math.sqrt(tail * (1 - tail) / iterations) / density
        shift = (z * z - 1) * skew / 6
        assert abs(report.interval_low - (mu + sigma * (-z + shift))) <= tolerance
        assert abs(report.interval_high - (mu + sigma * (z + shift))) <= tolerance

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
                with Resamples(n, n) as resamples:
                    if exists:
                        estimator_sensitivity(corpus, term_model, resamples, iterations=2)
                    else:
                        with pytest.raises(InputError, match="a true positive and a true negative"):
                            estimator_sensitivity(corpus, term_model, resamples, iterations=2)

    def test_zero_variance_corpus(self, term_model):
        # duplicates of one always-hit positive and one never-hit negative:
        # every resample measures recall=1, fpr=0, so estimators never differ
        corpus = build_corpus(tp=25, fn=0, fp=0, tn=25)
        with Resamples(len(corpus), 2) as resamples:
            report = estimator_sensitivity(corpus, term_model, resamples, iterations=100)
        for segment in report.segments:
            assert segment.max_abs_difference == 0.0

    def test_deterministic(self, term_model, validation_corpus):
        reports = []
        for _ in range(2):
            with Resamples(len(validation_corpus), 9) as resamples:
                reports.append(
                    estimator_sensitivity(validation_corpus, term_model, resamples, iterations=100)
                )
        a, b = reports
        assert a == b
        assert a.seed == 9


class TestFitPerformance:
    def test_validation_counts(self, validation_corpus, term_model):
        from ccp_miner.estimator import _corpus_arrays

        labels, hits, matrix = _corpus_arrays(validation_corpus, term_model)
        assert matrix == evaluate_model(validation_corpus, term_model)
        assert int(labels.sum()) == matrix.tp + matrix.fn
        assert int(hits.sum()) == matrix.tp + matrix.fp
        perf = fit_performance(matrix)
        assert (perf.recall, perf.fpr) == (91 / 109, 34 / 291)

    @pytest.mark.parametrize(
        "cells", [(1, 1, 0, 0), (0, 0, 1, 1)], ids=["no-negative", "no-positive"]
    )
    def test_requires_both_classes(self, cells):
        with pytest.raises(InputError, match="requires both positives and negatives"):
            fit_performance(ConfusionMatrix(*cells))

    def test_recall_not_above_fpr_is_an_input_error(self):
        with pytest.raises(InputError, match="^measured model performance requires"):
            fit_performance(ConfusionMatrix(tp=1, fn=1, fp=1, tn=1))


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
            with pytest.raises(ConfigError, match=f"^{re.escape(repr(str(path)))}: distribution table "):
                load_distribution_table(path)
