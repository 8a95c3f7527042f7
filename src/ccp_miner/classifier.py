"""Pattern-based classification of commit messages as corrective (bug fix) or not.

The classifier is driven by three pattern lists: terms indicating a bug fix,
terms indicating a fix that is not a bug fix (e.g. "fixed indentation"), and
negations (e.g. "this is not an error"). The score of a message is the number
of distinct fix patterns matched minus the matches of the other two lists;
a positive score means corrective. Each pattern counts at most once per
message, so a single repeated word cannot dominate the score.

Also provides a small English-detection model, confusion-matrix evaluation
against labeled corpora, Cohen's kappa for annotator agreement, and message
length profiling (used to diagnose estimates that fall outside the valid
domain).
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import InputError, ModelLoadError
from .ingestion import read_text

_BACKREF_RE = re.compile(r"\\[1-9]")


def _compile_patterns(patterns: Iterable[str], list_name: str) -> tuple[re.Pattern, ...]:
    compiled = []
    for pat in patterns:
        if _BACKREF_RE.search(pat):
            raise ModelLoadError(
                f"pattern {pat!r} in [{list_name}] uses a backreference, "
                "which is outside the supported dialect"
            )
        try:
            compiled.append(re.compile(pat, re.IGNORECASE))
        except re.error as exc:
            raise ModelLoadError(f"pattern {pat!r} in [{list_name}] does not compile: {exc}") from exc
    return tuple(compiled)


@dataclass(frozen=True)
class TermModel:
    """Versioned pattern lists defining the corrective-commit classifier."""

    model_id: str
    fix_patterns: tuple[str, ...]
    other_fix_patterns: tuple[str, ...]
    negation_patterns: tuple[str, ...]
    _fix: tuple[re.Pattern, ...] = field(init=False, repr=False, compare=False)
    _other: tuple[re.Pattern, ...] = field(init=False, repr=False, compare=False)
    _negation: tuple[re.Pattern, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.model_id:
            raise ModelLoadError("term model requires a non-empty model_id")
        object.__setattr__(self, "_fix", _compile_patterns(self.fix_patterns, "fix"))
        object.__setattr__(self, "_other", _compile_patterns(self.other_fix_patterns, "other_fix"))
        object.__setattr__(self, "_negation", _compile_patterns(self.negation_patterns, "negation"))


@dataclass(frozen=True)
class ClassifierVerdict:
    """Per-message match counts and the resulting corrective decision."""

    fix_hits: int
    other_fix_hits: int
    negation_hits: int

    @property
    def score(self) -> int:
        return self.fix_hits - self.other_fix_hits - self.negation_hits

    @property
    def corrective(self) -> bool:
        return self.score > 0


@dataclass(frozen=True)
class LabeledCommit:
    """A commit message with its gold-standard corrective label."""

    message: str
    label: bool
    annotator_labels: tuple[bool, ...] | None = None

    def __post_init__(self):
        if self.annotator_labels is not None:
            votes = sum(self.annotator_labels)
            majority = votes * 2 > len(self.annotator_labels)
            if majority != self.label:
                raise ValueError(
                    f"label {self.label} disagrees with annotator majority vote "
                    f"({votes}/{len(self.annotator_labels)})"
                )


class UndefinedRateError(ValueError):
    """A confusion-matrix rate was requested with a zero denominator."""


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise ValueError("confusion matrix counts must be non-negative")
        if self.total == 0:
            raise ValueError("confusion matrix must contain at least one count")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    @staticmethod
    def _rate(num: int, den: int, name: str) -> float:
        if den == 0:
            raise UndefinedRateError(f"{name} is undefined: zero denominator")
        return num / den

    @property
    def accuracy(self) -> float:
        return self._rate(self.tp + self.tn, self.total, "accuracy")

    @property
    def precision(self) -> float:
        return self._rate(self.tp, self.tp + self.fp, "precision")

    @property
    def recall(self) -> float:
        return self._rate(self.tp, self.tp + self.fn, "recall")

    @property
    def fpr(self) -> float:
        return self._rate(self.fp, self.fp + self.tn, "fpr")

    @property
    def hit_rate(self) -> float:
        return self._rate(self.tp + self.fp, self.total, "hit_rate")

    @property
    def positive_rate(self) -> float:
        return self._rate(self.tp + self.fn, self.total, "positive_rate")

    def as_dict(self) -> dict:
        out = {"tp": self.tp, "fn": self.fn, "fp": self.fp, "tn": self.tn}
        for name in ("accuracy", "precision", "recall", "fpr", "hit_rate", "positive_rate"):
            try:
                out[name] = getattr(self, name)
            except UndefinedRateError:
                out[name] = None
        return out


@dataclass(frozen=True)
class EnglishModel:
    """Frequent-word list used to detect whether messages are in English."""

    words: frozenset[str]

    def __post_init__(self):
        if not self.words:
            raise ModelLoadError("english model word list is empty")
        for word in self.words:
            if len(word) < 3 or word != word.lower():
                raise ModelLoadError(f"english model word {word!r} must be lowercase, length >= 3")


# ---------------------------------------------------------------------------
# Model loading

def parse_term_model(text: str) -> TermModel:
    """Parse the line-oriented term-model format (see load_term_model)."""
    model_id = ""
    sections: dict[str, list[str]] = {"fix": [], "other_fix": [], "negation": []}
    current: list[str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("model_id:"):
            model_id = line.split(":", 1)[1].strip()
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name not in sections:
                raise ModelLoadError(f"unknown section [{name}] at line {lineno}")
            current = sections[name]
            continue
        if current is None:
            raise ModelLoadError(f"pattern outside any section at line {lineno}: {line!r}")
        current.append(line)
    if not model_id:
        raise ModelLoadError("term model file is missing a 'model_id:' header")
    return TermModel(
        model_id=model_id,
        fix_patterns=tuple(sections["fix"]),
        other_fix_patterns=tuple(sections["other_fix"]),
        negation_patterns=tuple(sections["negation"]),
    )


def load_term_model(path: str | Path) -> TermModel:
    """Load a term model file.

    Format: UTF-8, one pattern per line, sections ``[fix]``, ``[other_fix]``
    and ``[negation]``, ``#`` comments, and a ``model_id:`` header line.
    Malformed patterns raise ModelLoadError here, never mid-classification.
    """
    return parse_term_model(read_text(path, ModelLoadError))


def load_default_term_model() -> TermModel:
    with resources.as_file(resources.files("ccp_miner.data").joinpath("default_model.terms")) as p:
        return load_term_model(p)


def load_english_model(path: str | Path) -> EnglishModel:
    """Load an english model file: one lowercase word per line."""
    words = frozenset(w.strip() for w in read_text(path, ModelLoadError).splitlines() if w.strip())
    return EnglishModel(words=words)


def load_default_english_model() -> EnglishModel:
    with resources.as_file(resources.files("ccp_miner.data").joinpath("english_top100.txt")) as p:
        return load_english_model(p)


def load_labeled_corpus(path: str | Path) -> list[LabeledCommit]:
    """Load a labeled corpus: tab-separated ``label<TAB>message`` lines.

    ``label`` is 0 or 1; an optional third column holds comma-separated
    annotator votes (e.g. ``1,0,1``).
    """
    corpus = []
    for lineno, raw in enumerate(read_text(path, InputError).splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) < 2 or parts[0] not in ("0", "1"):
            raise InputError(f"{path}, line {lineno}: malformed corpus line {raw!r}")
        votes = None
        if len(parts) >= 3 and parts[2].strip():
            votes = tuple(v == "1" for v in parts[2].strip().split(","))
        try:
            corpus.append(
                LabeledCommit(message=parts[1], label=parts[0] == "1", annotator_labels=votes)
            )
        except ValueError as exc:
            raise InputError(f"{path}, line {lineno}: {exc}") from exc
    if not corpus:
        raise InputError(f"corpus {path} contains no records")
    return corpus


# ---------------------------------------------------------------------------
# Operations

def classify_message(message: str, model: TermModel) -> ClassifierVerdict:
    """Classify a single commit message.

    Counts distinct pattern matches per list (each pattern at most once) and
    derives score and the corrective decision. Pure and total over unicode
    text; an empty message yields zero counts.
    """
    return ClassifierVerdict(
        fix_hits=sum(1 for p in model._fix if p.search(message)),
        other_fix_hits=sum(1 for p in model._other if p.search(message)),
        negation_hits=sum(1 for p in model._negation if p.search(message)),
    )


def classify_commits(commits: Iterable, model: TermModel) -> Iterator[tuple[object, ClassifierVerdict]]:
    """Order-preserving map of classify_message over a commit stream.

    Items may be CommitRecords (classified by their ``message``) or bare
    strings.
    """
    for commit in commits:
        message = commit if isinstance(commit, str) else commit.message
        yield commit, classify_message(message, model)


_TOKEN_RE = re.compile(r"[a-z']+")


def english_hit_rate(messages: list[str], model: EnglishModel) -> float:
    """Fraction of messages containing at least one model word as a whole token."""
    if not messages:
        raise InputError("english_hit_rate requires at least one message")
    hits = 0
    for message in messages:
        tokens = _TOKEN_RE.findall(message.lower())
        if any(tok in model.words for tok in tokens):
            hits += 1
    return hits / len(messages)


def evaluate_model(corpus: list[LabeledCommit], model: TermModel) -> ConfusionMatrix:
    """Count (label, verdict) pairs of the classifier over a labeled corpus."""
    if not corpus:
        raise InputError("evaluate_model requires a non-empty corpus")
    tp = fn = fp = tn = 0
    for item in corpus:
        hit = classify_message(item.message, model).corrective
        if item.label and hit:
            tp += 1
        elif item.label:
            fn += 1
        elif hit:
            fp += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)


def annotator_agreement(labels_a: list[bool], labels_b: list[bool]) -> float:
    """Cohen's kappa between two boolean label vectors."""
    if len(labels_a) != len(labels_b):
        raise ValueError("label vectors must have equal length")
    if not labels_a:
        raise ValueError("label vectors must be non-empty")
    n = len(labels_a)
    p_o = sum(a == b for a, b in zip(labels_a, labels_b)) / n
    pa = sum(labels_a) / n
    pb = sum(labels_b) / n
    p_e = pa * pb + (1 - pa) * (1 - pb)
    if p_e == 1.0:
        raise ValueError("chance agreement is 1; kappa is undefined")
    return (p_o - p_e) / (1 - p_e)


def terse_message_profile(messages: list[str]) -> tuple[int, int]:
    """Median and 90th-percentile message length in characters.

    Uses nearest-rank (lower) order statistics, so results are exact on
    small fixtures.
    """
    if not messages:
        raise InputError("terse_message_profile requires at least one message")
    lengths = sorted(len(m) for m in messages)
    last = len(lengths) - 1
    return lengths[50 * last // 100], lengths[90 * last // 100]
