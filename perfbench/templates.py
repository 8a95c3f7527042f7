"""Commit-message building blocks whose verdicts are fixed by construction.

Under the bundled ``default-1`` term model:

* every ``CORRECTIVE_SUBJECTS`` entry has at least one fix hit and no
  other-fix or negation hit, so it is corrective;
* every ``PLAIN_SUBJECTS`` entry scores zero or less (some on purpose, such
  as "Fix typo", where an other-fix hit cancels the fix hit);
* ``NEUTRAL_LINES`` hit no pattern at all, and ``CORRECTIVE_LINES`` hit
  fix patterns only.

A message is a subject plus body lines, so its verdict is the subject's.
Every English entry contains "the", a word of the bundled English model;
``FOREIGN_SUBJECTS`` contain no English-model word and hit no pattern.
``perfbench/tests`` checks all of this once against ``classify_message``.
"""

NOUNS = (
    "parser", "scheduler", "cache layer", "config loader", "widget",
    "renderer", "index", "logger", "router", "session store", "tokenizer",
    "exporter", "plugin host", "query planner", "thread pool",
    "socket reader", "image decoder", "auth module", "metrics sink",
    "build script",
)

CORRECTIVE_SUBJECTS = (
    "Fix crash in the {noun} on startup",
    "Fixed the memory leak in {noun}",
    "Resolve the bug where {noun} returns stale data",
    "Handle null pointer when the {noun} is empty",
    "Correct the off-by-one in {noun} bounds",
    "Repair broken retry logic in the {noun}",
    "Avoid deadlock when the {noun} shuts down",
    "Prevent integer overflow in the {noun} counter",
    "Stop the {noun} from failing on unicode input",
    "Hotfix: the {noun} segfaults on malformed input",
    "Address regression in the {noun} since the last release",
    "Remove race condition in the {noun} shutdown path",
)

PLAIN_SUBJECTS = (
    "Add streaming support to the {noun}",
    "Refactor the {noun} into smaller modules",
    "Update the {noun} documentation",
    "Bump dependency versions for the {noun}",
    "Rename internal helpers of the {noun}",
    "Improve throughput of the {noun}",
    "Fix typo in the {noun} comments",
    "Fix indentation in the {noun}",
    "Improve error handling in the {noun}",
    "Document that this is not a bug in the {noun}",
    "Add tests for the {noun}",
    "Split the {noun} settings into two files",
)

NEUTRAL_LINES = (
    "This moves the {noun} setup out of the main loop.",
    "The old code path is kept behind a flag for now.",
    "Benchmarks show no change on the nightly suite.",
    "See the design notes in the wiki for more detail.",
    "Callers of the {noun} do not need to change.",
    "Reviewed with the team during the weekly sync.",
    "The new helper is covered by unit tests.",
    "Also tidy up imports and sort them in the {noun}.",
    "The public interface of the {noun} stays the same.",
    "Numbers were collected on the staging cluster.",
)

CORRECTIVE_LINES = (
    "The crash shows up when the {noun} gets an empty batch.",
    "Reported by users after the last release as a regression.",
    "Without this the {noun} leaks file handles.",
)

FOREIGN_NOUNS = (
    "Zeitplaner", "Zwischenspeicher", "Protokollierung", "Benutzerverwaltung",
    "Datenbankanbindung", "Dateiexport",
)

FOREIGN_SUBJECTS = (
    "Aktualisiere Konfiguration im {noun}",
    "Neue Schnittstelle im {noun} eingebaut",
    "Entferne veraltete Abschnitte im {noun}",
    "Verbessere Leistung im {noun}",
    "Ordne Quelltext im {noun} neu",
)

MERGE_SUBJECT = "Merge the {noun} branch into main"
