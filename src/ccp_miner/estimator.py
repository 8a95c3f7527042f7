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

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .classifier import LabeledCommit, TermModel, classify_message
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
    """A hit count, the raw MLE value, and its validity status."""

    n: int
    k: int
    ccp_raw: float
    status: EstimateStatus

    @property
    def hit_rate(self) -> float:
        return self.k / self.n

    @property
    def valid(self) -> bool:
        return self.status is EstimateStatus.VALID

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "hit_rate": self.hit_rate,
            "ccp_raw": self.ccp_raw,
            "status": self.status.value,
        }


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
    ccp, status = ccp_from_hit_rate(k / n, perf)
    return CcpEstimate(n=n, k=k, ccp_raw=ccp, status=status)


# ---------------------------------------------------------------------------
# Performance measurement and config

def fit_performance(labels: np.ndarray, hits: np.ndarray) -> ModelPerformance:
    """Measure (recall, fpr) from parallel boolean label/hit arrays."""
    import numpy as np

    labels = np.asarray(labels, dtype=bool)
    hits = np.asarray(hits, dtype=bool)
    positives = int(labels.sum())
    negatives = int((~labels).sum())
    if positives == 0 or negatives == 0:
        raise InputError("performance measurement requires both positives and negatives")
    recall = float((labels & hits).sum() / positives)
    fpr = float((~labels & hits).sum() / negatives)
    return ModelPerformance(recall=recall, fpr=fpr)


def _corpus_arrays(corpus: list[LabeledCommit], model: TermModel) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    labels = np.array([c.label for c in corpus], dtype=bool)
    hits = np.array([classify_message(c.message, model).corrective for c in corpus], dtype=bool)
    return labels, hits


# Indices per block of resamples: memory stays flat whatever the row count.
RESAMPLE_BLOCK = 1 << 19

# Three counts of up to n share one int64 code, in fields of n.bit_length() bits.
MAX_RESAMPLE_ITEMS = (1 << 21) - 1

# The last draw of `_resample_counts`, kept only inside `shared_draws()`.
_kept_draw: ContextVar[list | None] = ContextVar("kept_draw", default=None)


@contextmanager
def shared_draws():
    """Make a draw that repeats the last one only once, within this scope.

    Inside the scope, `_resample_counts` keeps its last draw, keyed on the
    labels, hits, row count and generator state it started from. A call with
    the same key returns the kept counts and moves the generator to the
    state the draw left it in, as drawing again would. Nothing is kept once
    the scope ends.
    """
    token = _kept_draw.set([])
    try:
        yield
    finally:
        _kept_draw.reset(token)


def _resample_counts(
    labels: np.ndarray, hits: np.ndarray, rows: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positives, hits and true positives of ``rows`` resamples with replacement.

    The ``rows x n`` index matrix is drawn in blocks of whole rows, about
    RESAMPLE_BLOCK indices each. The generator's stream is the same as for
    one ``rows x n`` draw, and so are the counts. Each drawn index gathers
    one code holding its item's label, hit and true positive in separate
    bit fields, so one row sum gives all three counts; this limits the
    corpus to MAX_RESAMPLE_ITEMS items.
    """
    import numpy as np

    n = len(labels)
    if n > MAX_RESAMPLE_ITEMS:
        raise InputError(f"resampling takes at most {MAX_RESAMPLE_ITEMS:,} corpus items, got {n:,}")
    kept = _kept_draw.get()
    if kept is not None:
        key = (labels.tobytes(), hits.tobytes(), rows, rng.bit_generator.state)
        if kept and kept[0][0] == key:
            _, counts, end_state = kept[0]
            rng.bit_generator.state = end_state
            return counts

    width = n.bit_length()
    mask = (1 << width) - 1
    codes = labels.astype(np.int64)
    codes |= hits.astype(np.int64) << width
    codes |= (labels & hits).astype(np.int64) << 2 * width
    step = max(1, RESAMPLE_BLOCK // n)
    sums = np.empty(rows, dtype=np.int64)
    # One gather buffer for all blocks: fresh pages per block cost more than
    # the gather. The indices are in range, so mode="wrap" changes none; it
    # only spares the copy that the default mode makes of ``out``.
    gathered = np.empty((min(step, rows), n), dtype=np.int64)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        block = gathered[: stop - start]
        np.take(codes, rng.integers(0, n, size=(stop - start, n)), out=block, mode="wrap")
        block.sum(axis=1, out=sums[start:stop])
    counts = (sums & mask, (sums >> width) & mask, sums >> 2 * width)

    if kept is not None:
        for count in counts:
            count.flags.writeable = False
        kept[:] = [(key, counts, rng.bit_generator.state)]
    return counts


def load_performance_config(path: str | Path) -> ModelPerformance:
    """Load a ``recall= / fpr= / model_id=`` key-value config file; ``model_id`` is a label."""
    values = read_config(path, ("recall", "fpr", "model_id"), ConfigError)
    try:
        return ModelPerformance(recall=float(values["recall"]), fpr=float(values["fpr"]))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"performance config {path} needs numeric 'recall' and 'fpr'") from exc


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
        if not self.interval_low <= self.mean_difference <= self.interval_high:
            raise ValueError("bootstrap interval must bracket the mean difference")

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "seed": self.seed,
            "coverage": self.coverage,
            "mean_difference": self.mean_difference,
            "interval_low": self.interval_low,
            "interval_high": self.interval_high,
        }


# Defaults of the bootstrap and sensitivity studies, and of the CLI flags.
DEFAULT_ITERATIONS = 10_000
DEFAULT_COVERAGE = 0.95


def bootstrap_difference_distribution(
    corpus: list[LabeledCommit],
    model: TermModel,
    perf: ModelPerformance | None = None,
    iterations: int = DEFAULT_ITERATIONS,
    coverage: float = DEFAULT_COVERAGE,
    seed: int = 0,
) -> BootstrapReport:
    """Distribution of (CCP estimate - true rate) under corpus resampling.

    Each iteration resamples the corpus with replacement, computes the
    resample's true positive rate and the MLE estimate of its hit rate, and
    records the difference. When ``perf`` is None the classifier performance
    is measured once on the full corpus, so the report isolates sampling
    noise from any mismatch between shipped constants and the corpus.
    """
    if not corpus:
        raise InputError("bootstrap requires a non-empty corpus")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not 0.0 < coverage < 1.0:
        raise ValueError("coverage must be in (0, 1)")
    import numpy as np

    labels, hits = _corpus_arrays(corpus, model)
    if perf is None:
        perf = fit_performance(labels, hits)
    n = len(corpus)
    rng = np.random.default_rng(seed)
    positives, hit_counts, _ = _resample_counts(labels, hits, iterations, rng)
    estimates = (hit_counts / n - perf.fpr) / (perf.recall - perf.fpr)
    diffs = estimates - positives / n
    # Empirical quantiles, nearest-rank (lower): trim (1-coverage)/2 per tail.
    tail = (1.0 - coverage) / 2.0
    low, high = np.percentile(diffs, [100.0 * tail, 100.0 * (1.0 - tail)], method="lower")
    return BootstrapReport(
        iterations=iterations,
        seed=seed,
        coverage=coverage,
        mean_difference=float(diffs.mean()),
        interval_low=float(low),
        interval_high=float(high),
    )


@dataclass(frozen=True)
class SegmentSensitivity:
    low: float
    high: float
    max_abs_difference: float
    p95_abs_difference: float

    def as_dict(self) -> dict:
        return {
            "segment": [self.low, self.high],
            "max_abs_difference": self.max_abs_difference,
            "p95_abs_difference": self.p95_abs_difference,
        }


@dataclass(frozen=True)
class SensitivityReport:
    iterations: int
    seed: int
    redraws: int
    segments: tuple[SegmentSensitivity, ...]

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "seed": self.seed,
            "redraws": self.redraws,
            "segments": [s.as_dict() for s in self.segments],
        }


DEFAULT_SENSITIVITY_SEGMENTS = ((0.0, 1.0), (0.042, 0.84), (0.06, 0.39))


def estimator_sensitivity(
    corpus: list[LabeledCommit],
    model: TermModel,
    iterations: int = DEFAULT_ITERATIONS,
    eval_segments: tuple[tuple[float, float], ...] = DEFAULT_SENSITIVITY_SEGMENTS,
    seed: int = 0,
) -> SensitivityReport:
    """Sensitivity of the estimator to re-measured classifier performance.

    Per iteration, draw two resamples of the corpus, measure (recall, fpr)
    on each, and build the two linear estimators. Their difference is linear
    in the hit rate, so its extremes over a segment are at the endpoints;
    report the max and p95 of the max absolute difference per segment.
    Degenerate resamples (no positives, no negatives, or recall <= fpr) are
    redrawn and counted.
    """
    if not corpus:
        raise InputError("estimator_sensitivity requires a non-empty corpus")
    for low, high in eval_segments:
        if not (0.0 <= low <= high <= 1.0):
            raise ValueError(f"eval segment [{low}, {high}] outside [0, 1]")
    import numpy as np

    labels, hits = _corpus_arrays(corpus, model)
    n = len(corpus)
    rng = np.random.default_rng(seed)
    redraws = 0

    def draw(count: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw `count` (recall, fpr) pairs from valid resamples."""
        nonlocal redraws
        recall = np.empty(count)
        fpr = np.empty(count)
        pending = np.arange(count)
        while pending.size:
            pos, hit, true_pos = _resample_counts(labels, hits, pending.size, rng)
            neg = n - pos
            with np.errstate(divide="ignore", invalid="ignore"):
                r = true_pos / pos
                f = (hit - true_pos) / neg
            ok = (pos > 0) & (neg > 0) & (r > f)
            recall[pending[ok]] = r[ok]
            fpr[pending[ok]] = f[ok]
            redraws += int((~ok).sum())
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
                low=low,
                high=high,
                max_abs_difference=float(max_diff.max()),
                p95_abs_difference=float(np.percentile(max_diff, 95, method="lower")),
            )
        )
    return SensitivityReport(
        iterations=iterations,
        seed=seed,
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
        if percentiles != sorted(percentiles) or len(set(percentiles)) != len(percentiles):
            raise ConfigError("distribution table percentiles must be strictly ascending")
        if any(a <= b for a, b in zip(thresholds, thresholds[1:])):
            raise ConfigError("distribution table thresholds must be strictly decreasing")


@dataclass(frozen=True)
class PercentileBand:
    """The percentile interval bracketing an estimate, best to worst."""

    lower: int  # percentile floor; 0 means below the table's worst threshold
    upper: int
    label: str

    def as_dict(self) -> dict:
        return {"lower_percentile": self.lower, "upper_percentile": self.upper, "label": self.label}


def load_distribution_table(path: str | Path) -> DistributionTable:
    """Load a ``percentile,ccp`` CSV sorted ascending by percentile."""
    return DistributionTable(
        rows=tuple(read_csv(path, {"percentile": int, "ccp": float}, ConfigError))
    )


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
        return PercentileBand(lower=0, upper=worst, label=f"bottom {worst}%")
    percentiles = [p for p, _ in table.rows]
    if best == percentiles[-1]:
        return PercentileBand(lower=best, upper=100, label=f"top {100 - best}%")
    upper = percentiles[percentiles.index(best) + 1]
    return PercentileBand(lower=best, upper=upper, label=f"percentile {best}-{upper}")
