"""Maximum-likelihood correction of classifier hit rates into CCP estimates.

A classifier with known recall and false positive rate turns a true
corrective rate ``pr`` into an expected hit rate
``hr = (recall - fpr) * pr + fpr``; inverting gives the most likely
``pr = (hr - fpr) / (recall - fpr)``. The inversion only lands in [0, 1]
when the observed hit rate lies inside [fpr, recall]; estimates outside
that domain are reported as diagnostics, never clamped.

Bootstrap operations quantify how sensitive the estimate is to resampling
of the labeled corpus and to re-measuring the classifier performance. Only
they use numpy, and they import it when called.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .classifier import ConfusionMatrix, LabeledCommit, TermModel, classify_message
from .errors import ConfigError, InputError
from .ingestion import read_config, read_csv

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ModelPerformance:
    """Recall / false-positive-rate pair characterizing a classifier."""

    recall: float
    fpr: float

    def __post_init__(self):
        if not 0.0 <= self.fpr < self.recall <= 1.0:
            raise ConfigError(
                f"model performance requires 0 <= fpr < recall <= 1, "
                f"got recall={self.recall}, fpr={self.fpr}"
            )


class EstimateStatus(str, Enum):
    VALID = "Valid"
    BELOW_ZERO = "BelowZero"
    ABOVE_ONE = "AboveOne"


@dataclass(frozen=True)
class CcpEstimate:
    """A hit count, its rate, the raw MLE value, and its validity status."""

    n: int
    k: int
    hit_rate: float
    ccp_raw: float
    status: EstimateStatus

    @property
    def valid(self) -> bool:
        return self.status is EstimateStatus.VALID


def ccp_from_hit_rate(hr: float, perf: ModelPerformance) -> tuple[float, EstimateStatus]:
    """Invert the hit rate into the most likely CCP, with validity status.

    The status follows the computed value: a valid estimate lies in [0, 1].
    """
    ccp = (hr - perf.fpr) / (perf.recall - perf.fpr)
    if ccp < 0.0:
        status = EstimateStatus.BELOW_ZERO
    elif ccp > 1.0:
        status = EstimateStatus.ABOVE_ONE
    else:
        status = EstimateStatus.VALID
    return ccp, status


def estimate_ccp(k: int, n: int, perf: ModelPerformance) -> CcpEstimate:
    """Maximum-likelihood CCP estimate from k classifier hits out of n commits."""
    if n <= 0:
        raise InputError("estimate_ccp requires n > 0")
    if not 0 <= k <= n:
        raise ValueError(f"hit count k={k} outside [0, {n}]")
    hit_rate = k / n
    ccp, status = ccp_from_hit_rate(hit_rate, perf)
    return CcpEstimate(n=n, k=k, hit_rate=hit_rate, ccp_raw=ccp, status=status)


# ---------------------------------------------------------------------------
# Performance measurement and config

def fit_performance(matrix: ConfusionMatrix) -> ModelPerformance:
    """The (recall, fpr) measured on a labeled corpus, from its confusion matrix."""
    if matrix.recall is None or matrix.fpr is None:
        raise InputError("performance measurement requires both positives and negatives")
    try:
        return ModelPerformance(recall=matrix.recall, fpr=matrix.fpr)
    except ConfigError as exc:  # the corpus is at fault, not a setting
        raise InputError(f"measured {exc}") from exc


def _corpus_arrays(
    corpus: list[LabeledCommit], model: TermModel
) -> tuple[np.ndarray, np.ndarray, ConfusionMatrix]:
    """The corpus's labels and classifier hits, and the confusion matrix they count."""
    import numpy as np

    labels = np.array([c.label for c in corpus], dtype=bool)
    hits = np.array([classify_message(c.message, model).corrective for c in corpus], dtype=bool)
    tn, fp, fn, tp = np.bincount(2 * labels + hits, minlength=4).tolist()
    return labels, hits, ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)


# Indices per block of resamples: memory stays flat whatever the row count.
RESAMPLE_BLOCK = 1 << 19

# Three counts of up to n share one int64 code, in fields of n.bit_length() bits.
MAX_RESAMPLE_ITEMS = (1 << 21) - 1

# Blocks of indices the worker may have drawn, or be drawing, ahead of the gather.
QUEUED_BLOCKS = 3


class Resamples:
    """The resamples of an ``n``-item corpus from ``seed``, as packed counts in draw order.

    Row i is row i of one ``default_rng(seed).integers(0, n, size=(rows, n))``
    draw, drawn in blocks of whole rows, about RESAMPLE_BLOCK indices each.
    A one-worker executor draws every block; it calls numpy only. From
    construction it keeps QUEUED_BLOCKS blocks drawn or being drawn past the
    last one read. Each index gathers one code holding its item's label, hit
    and true positive in separate bit fields, so one row sum gives all three
    counts; hence at most MAX_RESAMPLE_ITEMS items. The sums are kept, so a
    row that two studies read is drawn once. As a context manager, the
    stream shuts its worker down on exit, whatever the exit: blocks not yet
    begun are cancelled and the one being drawn is waited for.
    """

    def __init__(self, n: int, seed: int):
        import numpy as np

        if n > MAX_RESAMPLE_ITEMS:
            raise InputError(
                f"resampling takes at most {MAX_RESAMPLE_ITEMS:,} corpus items, got {n:,}"
            )
        from concurrent.futures import ThreadPoolExecutor

        self.n = n
        self.seed = seed
        self._step = max(1, RESAMPLE_BLOCK // max(n, 1))
        self._rng = np.random.default_rng(seed)
        self._codes = None
        self._sums = np.empty(0, dtype=np.int64)
        self._made = 0  # rows summed
        self._pool = ThreadPoolExecutor(1, thread_name_prefix="resample")
        # the worker's blocks not yet taken, in row order
        self._blocks = [self._pool.submit(self._draw) for _ in range(QUEUED_BLOCKS)]

    def __enter__(self) -> Resamples:
        return self

    def __exit__(self, *exc_info) -> None:
        self._pool.shutdown(cancel_futures=True)

    def _draw(self) -> np.ndarray:
        return self._rng.integers(0, self.n, size=(self._step, self.n))

    def bind(self, labels: np.ndarray, hits: np.ndarray) -> None:
        """Count these labels and hits; ValueError if the stream counts others already."""
        import numpy as np

        if len(labels) != self.n:
            raise ValueError(f"a stream of {self.n} items cannot count {len(labels)}")
        width = self.n.bit_length()
        codes = labels.astype(np.int64)
        codes |= hits.astype(np.int64) << width
        codes |= (labels & hits).astype(np.int64) << 2 * width
        if self._codes is None:
            self._codes = codes
        elif not np.array_equal(codes, self._codes):
            raise ValueError("the stream counts the labels and hits of another corpus")

    def counts(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positives, hits and true positives of the resamples in rows [start, stop)."""
        import numpy as np

        while self._made < stop:
            # A failed block stays first, so its error is raised on every later read too.
            block = self._blocks[0].result()
            del self._blocks[0]
            self._blocks.append(self._pool.submit(self._draw))
            end = self._made + len(block)
            if end > len(self._sums):
                grown = np.empty(max(end, 2 * len(self._sums)), dtype=np.int64)
                grown[: self._made] = self._sums[: self._made]
                self._sums = grown
            # The codes overwrite the block's indices, each read before its own
            # place is written. The indices are in range, so mode="wrap" changes
            # none; it only spares the copy that the default mode makes of ``out``.
            np.take(self._codes, block, out=block, mode="wrap")
            block.sum(axis=1, out=self._sums[self._made : end])
            self._made = end
        width = self.n.bit_length()
        mask = (1 << width) - 1
        sums = self._sums[start:stop]
        return sums & mask, (sums >> width) & mask, sums >> 2 * width


def load_performance_config(path: str | Path) -> ModelPerformance:
    """Load a ``recall= / fpr= / model_id=`` key-value config file; ``model_id`` is a label."""
    values = read_config(path, ("recall", "fpr", "model_id"), ConfigError)
    try:
        return ModelPerformance(recall=float(values["recall"]), fpr=float(values["fpr"]))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"performance config {path} needs numeric 'recall' and 'fpr'") from exc
    except ConfigError as exc:  # recall and fpr out of their domain
        raise ConfigError(f"{path}: {exc}") from exc


def load_default_performance() -> ModelPerformance:
    with resources.as_file(resources.files("ccp_miner.data").joinpath("performance.cfg")) as p:
        return load_performance_config(p)


# ---------------------------------------------------------------------------
# Bootstrap validation

@dataclass(frozen=True)
class BootstrapReport:
    iterations: int
    seed: int
    coverage: float
    mean_difference: float
    interval_low: float
    interval_high: float

    def __post_init__(self):
        # Not low <= mean <= high: with nearest-rank (lower) percentiles both ends
        # of a 2-iteration interval are the smaller difference, and a float mean
        # can fall outside [min, max].
        if not self.interval_low <= self.interval_high:
            raise ValueError("bootstrap interval must have low <= high")


# Defaults of the bootstrap and sensitivity studies, and of the CLI flags.
DEFAULT_ITERATIONS = 10_000
DEFAULT_COVERAGE = 0.95

# 100 times the paper's 10,000: the arrays of iterations stay near 130 MB at the cap.
MAX_ITERATIONS = 1_000_000


def bootstrap_difference_distribution(
    corpus: list[LabeledCommit],
    model: TermModel,
    resamples: Resamples,
    perf: ModelPerformance | None = None,
    iterations: int = DEFAULT_ITERATIONS,
    coverage: float = DEFAULT_COVERAGE,
) -> BootstrapReport:
    """Distribution of (CCP estimate - true rate) under corpus resampling.

    Iteration i takes row i of ``resamples``, a resample of the corpus with
    replacement, and records the MLE estimate from its hit rate minus its
    true positive rate. When ``perf`` is None the classifier performance is
    measured once on the full corpus, so the report isolates sampling noise
    from any mismatch between shipped constants and the corpus.
    """
    if not corpus:
        raise InputError("bootstrap requires a non-empty corpus")
    if not 1 <= iterations <= MAX_ITERATIONS:
        raise ValueError(f"iterations must be in [1, {MAX_ITERATIONS}]")
    if not 0.0 < coverage < 1.0:
        raise ValueError("coverage must be in (0, 1)")
    import numpy as np

    labels, hits, matrix = _corpus_arrays(corpus, model)
    if perf is None:
        perf = fit_performance(matrix)
    n = len(corpus)
    resamples.bind(labels, hits)
    positives, hit_counts, _ = resamples.counts(0, iterations)
    estimates = (hit_counts / n - perf.fpr) / (perf.recall - perf.fpr)
    diffs = estimates - positives / n
    # Empirical quantiles, nearest-rank (lower): trim (1-coverage)/2 per tail.
    tail = (1.0 - coverage) / 2.0
    low, high = np.percentile(diffs, [100.0 * tail, 100.0 * (1.0 - tail)], method="lower")
    return BootstrapReport(
        iterations=iterations,
        seed=resamples.seed,
        coverage=coverage,
        mean_difference=float(diffs.mean()),
        interval_low=float(low),
        interval_high=float(high),
    )


@dataclass(frozen=True)
class SegmentSensitivity:
    segment: tuple[float, float]
    max_abs_difference: float
    p95_abs_difference: float


@dataclass(frozen=True)
class SensitivityReport:
    iterations: int
    seed: int
    redraws: int
    segments: tuple[SegmentSensitivity, ...]


DEFAULT_SENSITIVITY_SEGMENTS = ((0.0, 1.0), (0.042, 0.84), (0.06, 0.39))

# Redraws one sensitivity study may make, per iteration, before it gives up.
MAX_REDRAWS_PER_ITERATION = 100


def estimator_sensitivity(
    corpus: list[LabeledCommit],
    model: TermModel,
    resamples: Resamples,
    iterations: int = DEFAULT_ITERATIONS,
    eval_segments: tuple[tuple[float, float], ...] = DEFAULT_SENSITIVITY_SEGMENTS,
) -> SensitivityReport:
    """Sensitivity of the estimator to re-measured classifier performance.

    Per iteration, take two resamples of the corpus from ``resamples``, read
    from row 0 with this study's own cursor, measure (recall, fpr) on each,
    and build the two linear estimators. Their difference is linear
    in the hit rate, so its extremes over a segment are at the endpoints;
    report the max and p95 of the max absolute difference per segment.
    Degenerate resamples (no positives, no negatives, or recall <= fpr) are
    redrawn and counted. A valid one exists exactly when the corpus has a
    true positive and a true negative (those alone give recall 1, fpr 0);
    without both, InputError. Valid resamples can still be too rare to
    find: past MAX_REDRAWS_PER_ITERATION x ``iterations`` redraws, InputError.
    """
    if not corpus:
        raise InputError("estimator_sensitivity requires a non-empty corpus")
    if not 1 <= iterations <= MAX_ITERATIONS:
        raise ValueError(f"iterations must be in [1, {MAX_ITERATIONS}]")
    for low, high in eval_segments:
        if not (0.0 <= low <= high <= 1.0):
            raise ValueError(f"eval segment [{low}, {high}] outside [0, 1]")
    import numpy as np

    labels, hits, matrix = _corpus_arrays(corpus, model)
    if not (matrix.tp and matrix.tn):
        raise InputError(
            "sensitivity needs a true positive and a true negative: "
            "no resample of this corpus has recall > fpr"
        )
    n = len(corpus)
    resamples.bind(labels, hits)
    row = 0  # this study's cursor in the stream
    redraws = 0
    max_redraws = MAX_REDRAWS_PER_ITERATION * iterations

    def draw(count: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw `count` (recall, fpr) pairs from valid resamples."""
        nonlocal row, redraws
        recall = np.empty(count)
        fpr = np.empty(count)
        pending = np.arange(count)
        while pending.size:
            pos, hit, true_pos = resamples.counts(row, row + pending.size)
            row += pending.size
            neg = n - pos
            with np.errstate(divide="ignore", invalid="ignore"):
                r = true_pos / pos
                f = (hit - true_pos) / neg
            ok = (pos > 0) & (neg > 0) & (r > f)
            recall[pending[ok]] = r[ok]
            fpr[pending[ok]] = f[ok]
            redraws += int((~ok).sum())
            if redraws > max_redraws:
                raise InputError(
                    f"sensitivity found too few valid resamples: more than {max_redraws} "
                    f"redraws ({MAX_REDRAWS_PER_ITERATION} per iteration)"
                )
            pending = pending[~ok]
        return recall, fpr

    recall_a, fpr_a = draw(iterations)
    recall_b, fpr_b = draw(iterations)

    segments = []
    for low, high in eval_segments:
        points = np.array([low, high])
        est_a = (points[:, None] - fpr_a) / (recall_a - fpr_a)
        est_b = (points[:, None] - fpr_b) / (recall_b - fpr_b)
        max_diff = np.abs(est_a - est_b).max(axis=0)
        segments.append(
            SegmentSensitivity(
                segment=(low, high),
                max_abs_difference=float(max_diff.max()),
                p95_abs_difference=float(np.percentile(max_diff, 95, method="lower")),
            )
        )
    return SensitivityReport(
        iterations=iterations,
        seed=resamples.seed,
        redraws=redraws,
        segments=tuple(segments),
    )


# ---------------------------------------------------------------------------
# Quality scale

@dataclass(frozen=True)
class DistributionTable:
    """CCP thresholds per percentile; higher percentile means better quality."""

    rows: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.rows:
            raise ConfigError("distribution table is empty")
        percentiles = [p for p, _ in self.rows]
        thresholds = [t for _, t in self.rows]
        if not all(0 < p < 100 for p in percentiles):
            raise ConfigError("distribution table percentiles must be in (0, 100)")
        if not all(0.0 <= t <= 1.0 for t in thresholds):  # NaN fails too
            raise ConfigError("distribution table thresholds must be numbers in [0, 1]")
        if percentiles != sorted(percentiles) or len(set(percentiles)) != len(percentiles):
            raise ConfigError("distribution table percentiles must be strictly ascending")
        if any(a <= b for a, b in zip(thresholds, thresholds[1:])):
            raise ConfigError("distribution table thresholds must be strictly decreasing")


@dataclass(frozen=True)
class PercentileBand:
    """The percentile interval bracketing an estimate, best to worst."""

    lower_percentile: int  # 0 means below the table's worst threshold
    upper_percentile: int
    label: str


def load_distribution_table(path: str | Path) -> DistributionTable:
    """Load a ``percentile,ccp`` CSV sorted ascending by percentile; its errors name the file."""
    rows = tuple(read_csv(path, {"percentile": int, "ccp": float}, ConfigError))
    try:
        return DistributionTable(rows=rows)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_default_distribution_table() -> DistributionTable:
    with resources.as_file(resources.files("ccp_miner.data").joinpath("ccp_distribution.csv")) as p:
        return load_distribution_table(p)


def rank_on_scale(ccp: float, table: DistributionTable) -> PercentileBand:
    """Band a CCP value on the quality scale.

    The project beats percentile p when its CCP is at most the p threshold;
    the band is the bracket between the best beaten percentile and the next
    listed one. Values between listed percentiles are banded, never
    interpolated.
    """
    if not 0.0 <= ccp <= 1.0:
        raise ValueError(f"ccp must be a probability, got {ccp}")
    best = None
    for percentile, threshold in table.rows:
        if ccp <= threshold:
            best = percentile
    if best is None:
        worst = table.rows[0][0]
        return PercentileBand(0, worst, f"bottom {worst}%")
    percentiles = [p for p, _ in table.rows]
    if best == percentiles[-1]:
        return PercentileBand(best, 100, f"top {100 - best}%")
    upper = percentiles[percentiles.index(best) + 1]
    return PercentileBand(best, upper, f"percentile {best}-{upper}")
