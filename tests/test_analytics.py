"""Analytics unit tests: capping, coupling, speed, retention, the stats bundle."""

from dataclasses import asdict
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccp_miner.analytics import (
    ProjectYearStats,
    capped_sizes,
    coupling,
    coupling_by_file,
    developer_speed,
    dominant_language,
    file_length_stats,
    onboarding,
    retention,
    winsorize,
)
from ccp_miner.classifier import classify_message
from ccp_miner.estimator import estimate_ccp
from ccp_miner.ingestion import involved_authors

from conftest import HIT_CORRECTIVE, MISS_OTHER
from test_ingestion import make_commit


class TestWinsorize:
    def test_caps_only_the_top(self):
        values = [1.0] * 99 + [1000.0]
        capped = winsorize(values, quantile=0.99)
        assert capped[:99] == [1.0] * 99
        assert capped[99] == 1.0  # nearest-rank(lower) p99 of this list is 1

    def test_preserves_order_and_length(self):
        values = [3.0, 1.0, 2.0, 100.0]
        capped = winsorize(values, quantile=0.5)
        assert len(capped) == len(values)
        threshold = 2.0  # nearest-rank(lower) median of [1, 2, 3, 100]
        assert capped == [min(v, threshold) for v in values]

    def test_idempotent(self):
        values = [float(i) for i in range(50)] + [9999.0]
        once = winsorize(values, quantile=0.9)
        assert winsorize(once, quantile=0.9) == once

    def test_monotone(self):
        base = [1.0, 5.0, 2.0, 40.0, 3.0]
        bumped = [1.0, 6.0, 2.0, 40.0, 3.0]
        for a, b in zip(winsorize(base, 0.8), winsorize(bumped, 0.8)):
            assert a <= b


def capped_for(commits, model):
    """``capped_sizes`` of the commits, flagged as the model classifies them."""
    return capped_sizes(
        [files for _, _, _, _, files, _ in commits],
        [classify_message(message, model).corrective for _, _, _, message, _, _ in commits],
    )


class TestCoupling:
    def test_mean_over_non_corrective_commits(self, term_model):
        commits = [
            make_commit(hash="h1", msg=MISS_OTHER, files=("a", "b")),
            make_commit(hash="h2", msg=MISS_OTHER, files=("a", "b", "c", "d")),
            make_commit(hash="h3", msg=HIT_CORRECTIVE, files=tuple(f"f{i}" for i in range(30))),
        ]
        value = coupling(capped_for(commits, term_model))
        assert value == 3.0  # the corrective commit is excluded

    def test_commits_without_files_ignored(self, term_model):
        commits = [
            make_commit(hash="h1", msg=MISS_OTHER, files=("a", "b")),
            make_commit(hash="h2", msg=MISS_OTHER, files=()),
        ]
        assert coupling(capped_for(commits, term_model)) == 2.0

    def test_none_when_no_usable_commits(self, term_model):
        commits = [make_commit(hash="h1", msg=HIT_CORRECTIVE, files=("a",))]
        assert coupling(capped_for(commits, term_model)) is None

    def test_invariant_to_corrective_file_lists(self, term_model):
        base = [
            make_commit(hash="h1", msg=MISS_OTHER, files=("a", "b", "c")),
            make_commit(hash="h2", msg=HIT_CORRECTIVE, files=("x",)),
        ]
        perturbed = [
            base[0],
            make_commit(hash="h2", msg=HIT_CORRECTIVE, files=tuple(f"y{i}" for i in range(50))),
        ]
        assert coupling(capped_for(base, term_model)) == coupling(
            capped_for(perturbed, term_model)
        )

    def test_misaligned_inputs(self, term_model):
        with pytest.raises(ValueError):
            capped_sizes([("a.c",)], [])


class TestCouplingByFile:
    def test_weights_files_by_their_commits(self, term_model):
        commits = [
            make_commit(hash="h1", msg=MISS_OTHER, files=("a", "b")),
            make_commit(hash="h2", msg=MISS_OTHER, files=("a",)),
        ]
        # file a sees sizes [2, 1] -> 1.5; file b sees [2] -> 2; mean 1.75
        value = coupling_by_file(capped_for(commits, term_model))
        assert value == pytest.approx(1.75)

    def test_none_when_no_usable_commits(self, term_model):
        commits = [make_commit(hash="h1", msg=MISS_OTHER, files=())]
        assert coupling_by_file(capped_for(commits, term_model)) is None

    @settings(max_examples=200, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.sampled_from("abcdefghij"), max_size=7, unique=True),
            ),
            max_size=60,
        )
    )
    def test_equals_the_mean_of_per_file_fmeans(self, specs, term_model):
        commits = [
            make_commit(hash=f"h{i}", msg=HIT_CORRECTIVE if fix else MISS_OTHER, files=files)
            for i, (fix, files) in enumerate(specs)
        ]
        kept = [files for fix, files in specs if not fix and files]
        sizes_by_file = {}
        if kept:
            for files, size in zip(kept, winsorize([float(len(f)) for f in kept])):
                for path in files:
                    sizes_by_file.setdefault(path, []).append(size)
        expected = (
            fmean(fmean(sizes) for sizes in sizes_by_file.values()) if sizes_by_file else None
        )
        assert coupling_by_file(capped_for(commits, term_model)) == expected


class TestFileLengthStats:
    def test_mean_in_kb(self):
        listing = [("a.c", 1024), ("b.c", 3072)]
        assert file_length_stats(listing) == pytest.approx(2.0)


class TestDeveloperSpeed:
    def test_mean_over_involved_only(self):
        commits = [make_commit(hash=f"a{i}", author="ann@x") for i in range(15)]
        commits += [make_commit(hash=f"b{i}", author="bob@x") for i in range(3)]
        assert developer_speed(involved_authors(commits)) == 15.0

    def test_cap_applies(self):
        assert developer_speed({"ann@x": 600, "bob@x": 100}) == 300.0

    def test_merges_not_counted(self):
        commits = [make_commit(hash=f"a{i}", author="ann@x") for i in range(12)]
        commits += [make_commit(hash=f"m{i}", author="ann@x", merge=True) for i in range(5)]
        assert developer_speed(involved_authors(commits)) == 12.0

    def test_none_without_involved(self):
        assert developer_speed({}) is None


class TestRetentionOnboarding:
    def test_retention_fraction(self):
        assert retention({"a", "b", "c", "d"}, {"a", "b", "z"}) == 0.5

    def test_retention_none_without_involved(self):
        assert retention(set(), {"a"}) is None

    def test_onboarding_fraction(self):
        prior = {"old1", "old2"}
        arrivals = {f"n{i}" for i in range(10)}
        involved = {"n0", "n1", "n2"}
        assert onboarding(prior, prior | arrivals, involved) == 0.3

    def test_onboarding_suppressed_below_minimum(self):
        assert onboarding(set(), {f"n{i}" for i in range(9)}, set()) is None


class TestDominantLanguage:
    def test_clear_majority(self):
        listing = [(f"src/m{i}.py", 100) for i in range(9)] + [("README.md", 10)]
        assert dominant_language(listing) == "py"

    def test_exactly_80_percent_is_not_dominant(self):
        listing = [(f"m{i}.py", 1) for i in range(8)] + [(f"d{i}.md", 1) for i in range(2)]
        assert dominant_language(listing) is None

    def test_non_language_extension(self):
        listing = [(f"d{i}.json", 1) for i in range(10)]
        assert dominant_language(listing) is None

    def test_case_insensitive_extension(self):
        listing = [(f"M{i}.PY", 1) for i in range(10)]
        assert dominant_language(listing) == "py"


class TestGrouping:
    def test_flat_dict_round_numbers(self, default_perf):
        stat = ProjectYearStats(
            repo_id="o/p",
            year=2019,
            n_commits=10,
            k_hits=0,
            ccp=estimate_ccp(0, 10, default_perf),
        )
        ccp = asdict(stat)["ccp"]
        assert ccp["hit_rate"] == 0.0
        assert ccp["status"] == "BelowZero"
