"""Classifier unit tests: scoring, english detection, evaluation."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccp_miner import classifier
from ccp_miner.classifier import (
    ConfusionMatrix,
    EnglishModel,
    LabeledCommit,
    TermModel,
    classify_message,
    english_hit_rate,
    evaluate_model,
    parse_term_model,
    terse_message_profile,
)
from ccp_miner.errors import InputError, ModelLoadError


class TestClassifyMessage:
    def test_negated_fix_indication_is_not_corrective(self, term_model):
        verdict = classify_message("This is not an error", term_model)
        assert verdict.fix_hits >= 1
        assert verdict.negation_hits >= 1
        assert not verdict.corrective

    def test_non_bug_fix_is_not_corrective(self, term_model):
        assert not classify_message("fixed indentation", term_model).corrective
        assert not classify_message("improve error message wording", term_model).corrective

    def test_empty_message(self, term_model):
        verdict = classify_message("", term_model)
        assert verdict.fix_hits == 0
        assert verdict.score == 0
        assert not verdict.corrective

    def test_bare_fix_term_is_corrective(self, term_model):
        verdict = classify_message("fix crash on startup", term_model)
        assert verdict.corrective
        assert verdict.score > 0

    def test_deterministic(self, term_model):
        message = "Fix NPE when config is missing"
        assert classify_message(message, term_model) == classify_message(message, term_model)

    def test_case_insensitive(self, term_model):
        assert classify_message("FIX CRASH", term_model).corrective
        assert classify_message("fix crash", term_model).corrective

    def test_pattern_counted_once_per_message(self, term_model):
        one = classify_message("bug", term_model)
        many = classify_message("bug bug bug bug", term_model)
        assert one.fix_hits == many.fix_hits


# Text the bundled model's patterns match, and the non-ASCII code points that
# re.IGNORECASE matches to ASCII letters: İ and ı (i), ſ (s), Kelvin sign (k).
MODEL_WORDS = (
    "bug", "bugfixes", "fix", "fixed", "hotfix", "failure", "errors", "defect", "faulty",
    "flawed", "crashing", "broken", "regression", "correct this", "leaks", "null pointer",
    "npe", "segfault", "incorrectly", "wrongly", "mistaken", "oops", "repairing",
    "resolved the issue", "solves a crash", "overflows", "race condition", "deadlock",
    "infinite loop", "off-by-one", "fix typos", "fixes the indentation", "fix merge conflicts",
    "fixed docs", "error message", "failure messages", "cosmetic fixes",
    "not really a bug", "isn't an issue", "isnt the problem", "no errors", "non-bug",
    "doesn't fix", "nothing to fix",
)
CASE_PARTNERS = {"i": "iIİı", "s": "sSſ", "k": "kKK"}


def _any_case(word: str):
    return st.tuples(*(st.sampled_from(CASE_PARTNERS.get(c, c + c.upper())) for c in word)).map(
        "".join
    )


_messages = st.lists(
    st.one_of(
        st.sampled_from(MODEL_WORDS).flatmap(_any_case),
        st.text(max_size=8),
        st.sampled_from(" \n-'İıſK"),
    ),
    max_size=12,
).map(" ".join)


def _reference_counts(message, model):
    """Hit counts from searching every pattern, with no prefilter."""
    return tuple(
        sum(1 for pat in patterns if re.compile(pat, re.IGNORECASE).search(message))
        for patterns in (model.fix_patterns, model.other_fix_patterns, model.negation_patterns)
    )


class TestLeadingLiteralPrefilter:
    @pytest.mark.parametrize(
        "pattern,literal",
        [
            (r"\bbug(s)?\b", "bug"),
            (r"\bisn'?t", "isn"),
            ("a|b", ""),
            ("(a|b)c", ""),
            ("[ab]c", ""),
            (r"(?x) \b Bug  s? \b  # verbose", "bug"),
            (r"^\bNull pointer", "null pointer"),
            (r"\bcafé\b", "caf"),
            (r"\bſtop", ""),
        ],
    )
    def test_leading_literal(self, pattern, literal):
        assert classifier._leading_literal(pattern) == literal

    def test_every_ignorecase_partner_of_ascii_folds_to_it(self):
        # Derived literals are lowercased ASCII, so checking all 128 ASCII
        # characters covers every literal a model can yield.
        every_code_point = "".join(map(chr, range(0x110000)))
        for code in range(0x80):
            char = chr(code)
            for match in re.finditer(re.escape(char), every_code_point, re.IGNORECASE):
                assert match[0].translate(classifier._FOLD).lower() == char.lower(), (
                    f"U+{ord(match[0]):04X} matches {char!r}"
                )

    @pytest.mark.parametrize(
        "message", ["miſtake", "FİX the build", "fıxed", "memory leaK", "İSN'T a bug"]
    )
    def test_non_ascii_case_partners_match(self, message, term_model):
        verdict = classify_message(message, term_model)
        assert (verdict.fix_hits, verdict.other_fix_hits, verdict.negation_hits) == (
            _reference_counts(message, term_model)
        )
        assert verdict.fix_hits >= 1

    def test_ascii_message_and_its_long_s_twin_classify_alike(self, term_model):
        ascii_message = "Fix mistake in the parser"
        twin = ascii_message.replace("s", "ſ")
        assert ascii_message.isascii() and not twin.isascii()
        verdict = classify_message(twin, term_model)
        assert verdict == classify_message(ascii_message, term_model)
        assert verdict.fix_hits == _reference_counts(twin, term_model)[0] >= 2

    @settings(max_examples=300, deadline=None)
    @given(message=_messages)
    def test_equals_searching_every_pattern(self, message, term_model):
        verdict = classify_message(message, term_model)
        assert (verdict.fix_hits, verdict.other_fix_hits, verdict.negation_hits) == (
            _reference_counts(message, term_model)
        )


# Patterns whose matches are judged by the text before their start: anchors,
# \B and lookbehinds; one with no leading literal; "fix" leads patterns of
# two lists.
ANCHORED_MODEL = TermModel(
    model_id="anchored",
    fix_patterns=(
        r"^fix\b",
        r"(?m)^bug",
        r"\Bfix",
        r"fix(?<!prefix)\b",
        r"leak(?<!kleak)",
        r"\bstop\b",
        r"(bug|defect)s?\b",
    ),
    other_fix_patterns=(r"\bfix(es)? typos?\b", r"\bmiss(ed)?\b"),
    negation_patterns=(r"\bnot a bug\b", r"\bisn'?t\b"),
)
# Literals inside words, then at word boundaries, and repeated.
ANCHORED_WORDS = (
    "fix", "prefix", "suffix", "fixes typo", "bug", "debug", "not a bug", "isn't", "isnt",
    "leak", "kleak", "stop", "miss", "missed", "defects", "typos", "re",
)

_anchored_messages = st.lists(
    st.one_of(
        st.sampled_from(ANCHORED_WORDS).flatmap(_any_case),
        st.sampled_from(" \n-'İıſK"),
    ),
    max_size=16,
).map("".join)


class TestAnchoredMatch:
    def test_every_code_point_folds_to_one_character(self):
        assert [
            hex(code)
            for code in range(0x110000)
            if len(chr(code).translate(classifier._FOLD).lower()) != 1
        ] == []
        # Context-dependent rules (final sigma) keep the length too.
        every_code_point = "".join(map(chr, range(0x110000)))
        assert len(every_code_point.translate(classifier._FOLD).lower()) == 0x110000

    def test_literal_shared_by_two_lists_is_one_table_entry(self):
        literals = [literal for literal, _ in ANCHORED_MODEL._table]
        assert len(literals) == len(set(literals))
        [fix_group] = [group for literal, group in ANCHORED_MODEL._table if literal == "fix"]
        assert sorted(slot for slot, _ in fix_group) == [0, 0, 0, 1]

    @pytest.mark.parametrize(
        "message",
        ["prefix fix", "prefix\nbug", "fix\nprefix", "preFIX typo, fix typo", "kleak lea\u212a"],
    )
    def test_later_occurrence_matches(self, message):
        verdict = classify_message(message, ANCHORED_MODEL)
        assert (verdict.fix_hits, verdict.other_fix_hits, verdict.negation_hits) == (
            _reference_counts(message, ANCHORED_MODEL)
        )

    @settings(max_examples=500, deadline=None)
    @given(message=_anchored_messages)
    def test_equals_searching_every_pattern(self, message):
        verdict = classify_message(message, ANCHORED_MODEL)
        assert (verdict.fix_hits, verdict.other_fix_hits, verdict.negation_hits) == (
            _reference_counts(message, ANCHORED_MODEL)
        )


class TestModelLoading:
    def test_default_model_lists_non_empty(self, term_model):
        assert term_model.fix_patterns
        assert term_model.other_fix_patterns
        assert term_model.negation_patterns
        assert term_model.model_id

    def test_malformed_pattern_raises_at_load(self):
        with pytest.raises(ModelLoadError, match="does not compile"):
            parse_term_model(["model_id: x", "[fix]", "(unclosed", ""])

    def test_backreference_rejected(self):
        with pytest.raises(ModelLoadError, match="backreference"):
            parse_term_model(["model_id: x", "[fix]", "(a)\\1", ""])

    def test_missing_model_id_rejected(self):
        with pytest.raises(ModelLoadError, match="missing a 'model_id:' header"):
            parse_term_model(["[fix]", "bug", ""])

    def test_unknown_section_rejected(self):
        with pytest.raises(ModelLoadError, match=r"unknown section \[bogus\] at line 2"):
            parse_term_model(["model_id: x", "[bogus]", "bug", ""])

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "m.terms"
        path.write_text("model_id: tiny\n[fix]\n\\bbug\\b\n[other_fix]\n\\btypo\\b\n[negation]\n\\bnot\\b\n")
        model = classifier.load_term_model(path)
        assert model.model_id == "tiny"
        assert classify_message("a bug", model).corrective


class TestEnglishHitRate:
    def test_non_latin_text(self, english_model):
        assert english_hit_rate(["предупреждение исправлено"], english_model) == 0.0

    def test_english_text(self, english_model):
        assert english_hit_rate(["check that the value is correct"], english_model) == 1.0

    def test_mixed_list(self, english_model):
        rate = english_hit_rate(["improve the parser", "предупреждение"], english_model)
        assert rate == 0.5

    def test_whole_token_matching(self):
        model = EnglishModel(words=frozenset({"the"}))
        # "theme" contains "the" as a substring but not as a token
        assert english_hit_rate(["theme update"], model) == 0.0

    def test_empty_list_is_an_error(self, english_model):
        with pytest.raises(InputError):
            english_hit_rate([], english_model)

    def test_reorder_invariant(self, english_model):
        messages = ["the build", "сборка", "a change", "fix it"]
        rates = {
            english_hit_rate(list(perm), english_model)
            for perm in ([messages[i] for i in order] for order in
                         ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]))
        }
        assert len(rates) == 1


class TestEvaluateModel:
    def test_perfect_corpus(self, term_model):
        corpus = [
            LabeledCommit("fix crash on startup", True),
            LabeledCommit("add user authentication module", False),
        ]
        matrix = evaluate_model(corpus, term_model)
        assert matrix.fp == 0 and matrix.fn == 0
        assert matrix.accuracy == 1.0

    def test_hand_counted_fixture(self, term_model):
        corpus = [
            LabeledCommit("fix crash on startup", True),          # tp
            LabeledCommit("bug in date parsing fixed", True),     # tp
            LabeledCommit("hotfix for production outage", True),  # tp
            LabeledCommit("restore missing counter increment", True),  # fn
            LabeledCommit("This is not an error", False),         # tn
            LabeledCommit("fixed indentation", False),            # tn
            LabeledCommit("add benchmark suite", False),          # tn
            LabeledCommit("cleanup unused imports", False),       # tn
            LabeledCommit("experiment with failure injection in tests", False),  # fp
            LabeledCommit("simplify retry logic", False),         # tn
        ]
        matrix = evaluate_model(corpus, term_model)
        assert (matrix.tp, matrix.fn, matrix.fp, matrix.tn) == (3, 1, 1, 5)

    def test_counts_sum_to_corpus_size(self, gold_corpus, term_model):
        matrix = evaluate_model(gold_corpus, term_model)
        assert matrix.total == len(gold_corpus)

    def test_empty_corpus(self, term_model):
        with pytest.raises(InputError):
            evaluate_model([], term_model)


class TestConfusionMatrix:
    def test_published_test_set_rates(self):
        # Arithmetic check on the rate derivations for counts 228/43/34/795.
        matrix = ConfusionMatrix(tp=228, fn=43, fp=34, tn=795)
        assert matrix.accuracy == pytest.approx(0.930, abs=5e-4)
        assert matrix.recall == pytest.approx(0.841, abs=5e-4)
        assert matrix.fpr == pytest.approx(0.042, abs=2e-3)
        assert matrix.hit_rate == pytest.approx(0.238, abs=5e-4)
        assert matrix.positive_rate == pytest.approx(0.246, abs=5e-4)

    def test_rate_identities_exact(self):
        matrix = ConfusionMatrix(tp=7, fn=3, fp=2, tn=8)
        assert matrix.hit_rate * matrix.total == matrix.tp + matrix.fp
        assert matrix.positive_rate * matrix.total == matrix.tp + matrix.fn

    def test_undefined_rate(self):
        matrix = ConfusionMatrix(tp=0, fn=0, fp=0, tn=5)
        assert (matrix.recall, matrix.precision) == (None, None)
        assert (matrix.accuracy, matrix.fpr, matrix.hit_rate, matrix.positive_rate) == (
            1.0, 0.0, 0.0, 0.0
        )

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=0, fn=0, fp=0, tn=0)


class TestTerseMessageProfile:
    def test_single_message(self):
        assert terse_message_profile(["abc"]) == (3, 3)

    def test_lengths_one_to_ten(self):
        messages = ["x" * n for n in range(1, 11)]
        assert terse_message_profile(messages) == (5, 9)

    def test_all_equal_lengths(self):
        assert terse_message_profile(["aaaa"] * 7) == (4, 4)

    def test_empty_list(self):
        with pytest.raises(InputError):
            terse_message_profile([])


class TestLabeledCorpus:
    def test_load_gold_fixture(self, gold_corpus):
        assert len(gold_corpus) >= 40
        with_votes = [c for c in gold_corpus if c.annotator_labels is not None]
        assert with_votes
        for commit in with_votes:
            votes = sum(commit.annotator_labels)
            assert (votes * 2 > len(commit.annotator_labels)) == commit.label

    def test_label_must_match_majority(self):
        with pytest.raises(ValueError):
            LabeledCommit("x", True, annotator_labels=(False, False, True))

    def test_malformed_line_rejected(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("2\tnot a valid label\n")
        with pytest.raises(InputError):
            classifier.load_labeled_corpus(bad)

    @pytest.mark.parametrize(
        "line",
        ["0\tfix\tthe crash", "1\tfix bug\t1,1,yes", "1\tfix bug\t1,,1", "1\tfix bug\t1, 1",
         "1\tfix bug\t1,1,1\textra", "0\tfix\t\t"],
        ids=["message-in-votes-column", "word-vote", "empty-vote", "spaced-vote",
             "fourth-column", "empty-fourth-column"],
    )
    def test_bad_votes_or_extra_column_is_a_named_input_error(self, tmp_path, line):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text(f"1\tfix the crash\n{line}\n")
        with pytest.raises(InputError, match=f"{re.escape(str(corpus))}, line 2: "):
            classifier.load_labeled_corpus(corpus)

    def test_empty_votes_column_means_no_votes(self, tmp_path):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("1\tfix the crash\t\n0\tadd docs\t0,0,1\n")
        loaded = classifier.load_labeled_corpus(corpus)
        assert [c.annotator_labels for c in loaded] == [None, (False, False, True)]

    @pytest.mark.parametrize("separator", ["\x0c", "\x0b", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_only_lf_cr_or_crlf_ends_a_line(self, tmp_path, separator):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_bytes(f"1\tfix the crash\r\n0\tupdate{separator}docs\n".encode())
        loaded = classifier.load_labeled_corpus(corpus)
        assert [c.message for c in loaded] == ["fix the crash", f"update{separator}docs"]
        corpus.write_bytes(f"1\tfix the crash\r0\tupdate{separator}docs\n2\tbad\n".encode())
        with pytest.raises(InputError, match=f"{re.escape(str(corpus))}, line 3: "):
            classifier.load_labeled_corpus(corpus)
