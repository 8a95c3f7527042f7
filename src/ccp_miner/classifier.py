"""Pattern-based classification of commit messages as corrective (bug fix) or not.

The classifier is driven by three pattern lists: terms indicating a bug fix,
terms indicating a fix that is not a bug fix (e.g. "fixed indentation"), and
negations (e.g. "this is not an error"). The score of a message is the number
of distinct fix patterns matched minus the matches of the other two lists;
a positive score means corrective. Each pattern counts at most once per
message, so a single repeated word cannot dominate the score.

Also provides a small English-detection model, confusion-matrix evaluation
against labeled corpora, and message length profiling (used to diagnose
estimates that fall outside the valid domain).
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from re import _constants as _sre_constants, _parser as _sre_parse

from .errors import InputError, ModelLoadError
from .ingestion import naming, read_records

_BACKREF_RE = re.compile(r"\\[1-9]")

# Under re.IGNORECASE an ASCII character matches the code points that
# str.lower() maps to it, and these three besides. "İ".lower() is two
# characters, so they are translated before lower(); none of them is
# ASCII, so an ASCII message needs only lower().
_FOLD = str.maketrans("İıſ", "iis")


@functools.lru_cache(maxsize=512)
def _leading_literal(pattern: str) -> str:
    """The lowercased ASCII text every match of ``pattern`` under re.I starts with.

    Leading anchors are skipped; the text ends at the first operation that
    is not a literal, or at a non-ASCII literal. "" when there is none.
    Cached because the CLI loads its term model again on every run.
    """
    literal = []
    for op, code in _sre_parse.parse(pattern, re.IGNORECASE):
        if op is _sre_constants.AT and not literal:
            continue
        if op is not _sre_constants.LITERAL or code > 0x7F:
            break
        literal.append(chr(code).lower())
    return "".join(literal)


def _compile_patterns(
    lists: Iterable[tuple[str, Iterable[str]]],
) -> tuple[tuple[str, tuple[tuple[int, re.Pattern], ...]], ...]:
    """Group the compiled patterns of ``lists`` by leading literal.

    Each entry is (literal, ((list slot, pattern), ...)), literals in order
    of first appearance; the slot is the position of the pattern's list.
    """
    groups: dict[str, list[tuple[int, re.Pattern]]] = {}
    for slot, (list_name, patterns) in enumerate(lists):
        for pat in patterns:
            if _BACKREF_RE.search(pat):
                raise ModelLoadError(
                    f"pattern {pat!r} in [{list_name}] uses a backreference, "
                    "which is outside the supported dialect"
                )
            try:
                regex = re.compile(pat, re.IGNORECASE)
            except (re.error, OverflowError, ValueError) as exc:
                # A repeat count above the engine's bound is an OverflowError, and one
                # of over 4,300 digits a ValueError.
                raise ModelLoadError(
                    f"pattern {pat!r} in [{list_name}] does not compile: {exc}"
                ) from exc
            groups.setdefault(_leading_literal(pat), []).append((slot, regex))
    return tuple((literal, tuple(group)) for literal, group in groups.items())


@dataclass(frozen=True)
class TermModel:
    """Versioned pattern lists defining the corrective-commit classifier."""

    model_id: str
    fix_patterns: tuple[str, ...]
    other_fix_patterns: tuple[str, ...]
    negation_patterns: tuple[str, ...]
    # (leading literal, ((list slot, compiled pattern), ...)) per distinct
    # literal, slots 0/1/2 for fix/other_fix/negation; see classify_message.
    _table: tuple[tuple[str, tuple[tuple[int, re.Pattern], ...]], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not self.model_id:
            raise ModelLoadError("term model requires a non-empty model_id")
        table = _compile_patterns(
            (
                ("fix", self.fix_patterns),
                ("other_fix", self.other_fix_patterns),
                ("negation", self.negation_patterns),
            )
        )
        object.__setattr__(self, "_table", table)


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


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts of (label, verdict) pairs, and their rates: None where the denominator is 0."""

    tp: int
    fn: int
    fp: int
    tn: int
    accuracy: float | None = field(init=False)
    precision: float | None = field(init=False)
    recall: float | None = field(init=False)
    fpr: float | None = field(init=False)
    hit_rate: float | None = field(init=False)
    positive_rate: float | None = field(init=False)

    def __post_init__(self):
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise ValueError("confusion matrix counts must be non-negative")
        total = self.total
        if total == 0:
            raise ValueError("confusion matrix must contain at least one count")
        for name, num, den in (
            ("accuracy", self.tp + self.tn, total),
            ("precision", self.tp, self.tp + self.fp),
            ("recall", self.tp, self.tp + self.fn),
            ("fpr", self.fp, self.fp + self.tn),
            ("hit_rate", self.tp + self.fp, total),
            ("positive_rate", self.tp + self.fn, total),
        ):
            object.__setattr__(self, name, num / den if den else None)

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


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

def parse_term_model(lines: Iterable[str]) -> TermModel:
    """Parse the lines of the term-model format (see load_term_model)."""
    model_id = ""
    sections: dict[str, list[str]] = {"fix": [], "other_fix": [], "negation": []}
    current: list[str] | None = None
    for lineno, raw in enumerate(lines, start=1):
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
    Malformed patterns raise ModelLoadError here, never mid-classification;
    every ModelLoadError names the file.
    """
    with naming(path, error=ModelLoadError):
        return parse_term_model(read_records(path, "\n"))


def load_default_term_model() -> TermModel:
    with resources.as_file(resources.files("ccp_miner.data").joinpath("default_model.terms")) as p:
        return load_term_model(p)


def load_english_model(path: str | Path) -> EnglishModel:
    """Load an english model file: one lowercase word per line. Its errors name the file."""
    with naming(path, error=ModelLoadError):
        words = (w.strip() for w in read_records(path, "\n"))
        return EnglishModel(words=frozenset(filter(None, words)))


def load_default_english_model() -> EnglishModel:
    with resources.as_file(resources.files("ccp_miner.data").joinpath("english_top100.txt")) as p:
        return load_english_model(p)


def load_labeled_corpus(path: str | Path) -> list[LabeledCommit]:
    """Load a labeled corpus: tab-separated ``label<TAB>message`` lines.

    ``label`` is 0 or 1; an optional third column holds comma-separated
    annotator votes (e.g. ``1,0,1``), each 0 or 1. A line with more columns
    or another label or vote raises InputError naming the file and line.
    Only LF, CR or CRLF ends a line; a form feed or U+2028 is message text.
    """
    corpus = []
    with naming(path, error=InputError):
        for lineno, raw in enumerate(read_records(path, "\n"), start=1):
            if not raw.strip():
                continue
            parts = raw.split("\t")
            votes = parts[2].strip().split(",") if len(parts) == 3 and parts[2].strip() else []
            if (
                len(parts) not in (2, 3)
                or parts[0] not in ("0", "1")
                or any(v not in ("0", "1") for v in votes)
            ):
                raise InputError(f"line {lineno}: malformed corpus line {raw!r}")
            votes = tuple(v == "1" for v in votes) or None
            try:
                corpus.append(
                    LabeledCommit(message=parts[1], label=parts[0] == "1", annotator_labels=votes)
                )
            except ValueError as exc:
                raise InputError(f"line {lineno}: {exc}") from exc
        if not corpus:
            raise InputError("the corpus contains no records")
    return corpus


# ---------------------------------------------------------------------------
# Operations

def classify_message(message: str, model: TermModel) -> ClassifierVerdict:
    """Classify a single commit message.

    Counts distinct pattern matches per list (each pattern at most once) and
    derives score and the corrective decision. Pure and total over unicode
    text; an empty message yields zero counts.

    Every match of a pattern starts with its leading literal, and every code
    point folds to exactly one character, so a match can start only at an
    index where the literal occurs in the folded message. The pattern is
    matched at those indices alone; ``match`` at an index still reads the
    text before it for ``\\b``, ``^`` and lookbehinds. The counts are those
    of searching every pattern. A pattern with no leading literal is searched.
    """
    folded = message.lower() if message.isascii() else message.translate(_FOLD).lower()
    counts = [0, 0, 0]
    for literal, patterns in model._table:
        # `in` first: most literals are absent, and it is cheaper than find.
        if literal not in folded:
            continue
        if not literal:
            for slot, pattern in patterns:
                if pattern.search(message):
                    counts[slot] += 1
            continue
        first = folded.find(literal)
        for slot, pattern in patterns:
            i = first
            while i >= 0:
                if pattern.match(message, i):
                    counts[slot] += 1
                    break
                i = folded.find(literal, i + 1)
    return ClassifierVerdict(*counts)


_TOKEN_RE = re.compile(r"[a-z']+")


def english_hit_rate(messages: list[str], model: EnglishModel) -> float:
    """Fraction of the messages, at least one, holding a model word as a whole token."""
    hits = 0
    for message in messages:
        tokens = _TOKEN_RE.findall(message.lower())
        if any(tok in model.words for tok in tokens):
            hits += 1
    return hits / len(messages)


def evaluate_model(corpus: list[LabeledCommit], model: TermModel) -> ConfusionMatrix:
    """Count (label, verdict) pairs of the classifier over a non-empty labeled corpus."""
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


def terse_message_profile(messages: list[str]) -> tuple[int, int]:
    """Median and 90th-percentile message length in characters.

    Uses nearest-rank (lower) order statistics, so results are exact on
    small fixtures. ``messages`` is non-empty.
    """
    lengths = sorted(len(m) for m in messages)
    last = len(lengths) - 1
    return lengths[50 * last // 100], lengths[90 * last // 100]
