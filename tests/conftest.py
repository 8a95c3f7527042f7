"""Shared fixtures: bundled models, fixture paths, synthetic corpora."""

from pathlib import Path

import pytest

from ccp_miner import classifier, estimator

FIXTURES = Path(__file__).parent / "fixtures"

# Messages whose classification under the bundled model is forced by
# construction; used to assemble corpora with exact confusion counts.
HIT_CORRECTIVE = "fix crash on startup"  # label 1, classified corrective
MISS_CORRECTIVE = "restore missing counter increment in retry path"  # label 1, missed
HIT_OTHER = "experiment with failure injection in tests"  # label 0, classified corrective
MISS_OTHER = "update dependencies to latest versions"  # label 0, not classified


def build_corpus(tp: int, fn: int, fp: int, tn: int) -> list[classifier.LabeledCommit]:
    """A labeled corpus realizing exactly the given confusion counts."""
    corpus = []
    corpus += [classifier.LabeledCommit(HIT_CORRECTIVE, True)] * tp
    corpus += [classifier.LabeledCommit(MISS_CORRECTIVE, True)] * fn
    corpus += [classifier.LabeledCommit(HIT_OTHER, False)] * fp
    corpus += [classifier.LabeledCommit(MISS_OTHER, False)] * tn
    return corpus


@pytest.fixture(scope="session")
def term_model() -> classifier.TermModel:
    return classifier.load_default_term_model()


@pytest.fixture(scope="session")
def english_model() -> classifier.EnglishModel:
    return classifier.load_default_english_model()


@pytest.fixture(scope="session")
def default_perf() -> estimator.ModelPerformance:
    return estimator.load_default_performance()


@pytest.fixture(scope="session")
def distribution_table() -> estimator.DistributionTable:
    return estimator.load_default_distribution_table()


@pytest.fixture(scope="session")
def gold_corpus() -> list[classifier.LabeledCommit]:
    return classifier.load_labeled_corpus(FIXTURES / "gold_corpus.tsv")


@pytest.fixture(scope="session")
def validation_corpus() -> list[classifier.LabeledCommit]:
    """400-commit synthetic corpus with confusion counts 91/18/34/257."""
    return build_corpus(tp=91, fn=18, fp=34, tn=257)
