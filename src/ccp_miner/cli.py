"""Command-line interface wiring ingestion, classification, estimation and stats.

Every report embeds the tool version, model id, performance constants, seed
and a hash of the resolved configuration, so identical runs are
byte-identical. Exit codes: 0 success, 2 configuration error, 3 input
error, 4 internal invariant violation. Each flag is checked where argparse
reads it and each file where it is loaded; the library re-checks neither.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
from collections.abc import Iterator
from pathlib import Path

from . import __version__
from . import analytics, classifier, estimator, ingestion, stats
from .errors import ConfigError, InputError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

CONFIG_ENV_VAR = "CCP_MINER_CONFIG"

# Reference medians from large-corpus diagnostics: english hit rate of
# below-zero projects vs valid ones, and their median message length.
DIAGNOSTIC_REFERENCE = {
    "english_hit_rate_below_zero_median": 0.16,
    "english_hit_rate_valid_median": 0.54,
    "terse_median_chars": 27,
    "terse_p90_chars": 81,
}


# The keys a CCP_MINER_CONFIG file may set, each also a global flag.
CONFIG_KEYS = (
    "model", "english_model", "perf", "table", "year", "seed", "format", "enforce_selection"
)

FORMATS = ("json", "csv")

# The analyze CSV columns: the stats fields, with the estimate's three in place of ``ccp``.
ANALYZE_COLUMNS = [
    *(f.name for f in dataclasses.fields(analytics.ProjectYearStats) if f.name != "ccp"),
    "hit_rate",
    "ccp_raw",
    "ccp_status",
]


class RunConfig:
    """Resolved models, constants and output settings for one command run."""

    def __init__(self, args: argparse.Namespace):
        # A flag wins over the config file; each file value a flag leaves is converted here.
        picked = {name: getattr(args, name, None) for name in CONFIG_KEYS}
        # An empty CCP_MINER_CONFIG, like an unset one, names no config file.
        if env_path := os.environ.get(CONFIG_ENV_VAR):
            with ingestion.naming(env_path, error=ConfigError):
                for name, text in ingestion.read_config(env_path, CONFIG_KEYS).items():
                    if picked[name] is None:
                        try:
                            picked[name] = _CONFIG_VALUES.get(name, str)(text)
                        except (ValueError, argparse.ArgumentTypeError) as exc:
                            raise ConfigError(f"bad value for {name}: {text!r}") from exc

        def load(name: str, read, read_default):
            # A path that is given is read, also an empty one: its reader refuses it.
            return read_default() if picked[name] is None else read(picked[name])

        self.term_model = load(
            "model", classifier.load_term_model, classifier.load_default_term_model
        )
        self.english_model = load(
            "english_model", classifier.load_english_model, classifier.load_default_english_model
        )
        self.performance = load(
            "perf", estimator.load_performance_config, estimator.load_default_performance
        )
        self.table = load(
            "table", estimator.load_distribution_table, estimator.load_default_distribution_table
        )
        self.year = picked["year"]
        self.seed = picked["seed"] or 0
        self.output_format = picked["format"] or "json"
        self.enforce_selection = bool(picked["enforce_selection"])

        fingerprint = {
            "tool_version": __version__,
            "model_id": self.term_model.model_id,
            "recall": self.performance.recall,
            "fpr": self.performance.fpr,
            "year": self.year,
            "seed": self.seed,
            "format": self.output_format,
            "enforce_selection": self.enforce_selection,
            # The paper's fixed thresholds, kept so the hash matches earlier reports.
            "min_commits": ingestion.MIN_COMMITS,
            "involvement": ingestion.INVOLVED_COMMITS,
            "speed_cap": analytics.SPEED_CAP,
            "cap_quantile": analytics.CAP_QUANTILE,
            "table": self.table.rows,
        }
        digest = hashlib.sha256(
            json.dumps(fingerprint, sort_keys=True).encode()
        ).hexdigest()
        self.config_hash = digest[:16]

    def meta(self) -> dict:
        return {
            "tool_version": __version__,
            "model_id": self.term_model.model_id,
            "recall": self.performance.recall,
            "fpr": self.performance.fpr,
            "seed": self.seed,
            "config_hash": self.config_hash,
        }


def _read_commits(
    args: argparse.Namespace, by_repo: ingestion.CommitTable
) -> Iterator[ingestion.ParseResult]:
    """Parse each input file into ``by_repo`` and yield its result, one file at a time.

    A commit read from an earlier file is a repeat, as within one. ``--repo``
    without ``--input-format git`` is refused before the first file is opened.
    """
    if args.repo is not None and args.input_format != "git":
        raise ConfigError("--repo requires --input-format git")
    if args.repo == "":
        raise ConfigError("--repo must not be empty")
    for path in args.input:
        with ingestion.naming(path, error=InputError):
            if args.input_format == "git":
                records = ingestion.read_records(path, "\x1e")
                repo = Path(path).stem if args.repo is None else args.repo
                result = ingestion.parse_raw_git_log(records, repo_id=repo, by_repo=by_repo)
            else:
                result = ingestion.parse_git_log(ingestion.read_records(path, "\n"), by_repo)
        yield result


def _emit(report: dict, config: RunConfig) -> None:
    """Print ``report`` as JSON, each dataclass as an object; ``analyze`` rows as CSV if asked."""
    if config.output_format == "csv" and report["report_type"] == "analyze":
        writer = csv.DictWriter(sys.stdout, fieldnames=ANALYZE_COLUMNS)
        writer.writeheader()
        writer.writerows(report["rows"])
        return
    print(json.dumps(report, sort_keys=True, indent=2, default=dataclasses.asdict))


# ---------------------------------------------------------------------------
# Subcommands

def cmd_classify(args: argparse.Namespace, config: RunConfig) -> int:
    # Every file is parsed before the first line is printed.
    records = [commit for parsed in _read_commits(args, {}) for commit in parsed.records]
    for commit_hash, _, _, message, _, _ in records:
        verdict = classifier.classify_message(message, config.term_model)
        line = {
            "hash": commit_hash,
            "corrective": verdict.corrective,
            "score": verdict.score,
            "fix_hits": verdict.fix_hits,
            "other_fix_hits": verdict.other_fix_hits,
            "negation_hits": verdict.negation_hits,
        }
        print(json.dumps(line, sort_keys=True))
    return EXIT_OK


def _project_year_stats(
    repo_id: str,
    year: int,
    by_year: dict[int, list[ingestion.Commit]],
    authors_by_year: dict[int, set[str]],
    involved_by_year: dict[int, dict[str, int]],
    prior_authors: set[str],
    config: RunConfig,
    language: str | None,
    avg_kb: float | None,
) -> analytics.ProjectYearStats:
    """Stats of one project-year; ``prior_authors`` holds every author up to ``year``."""
    commits = by_year[year]
    corrective = [
        classifier.classify_message(message, config.term_model).corrective
        for _, _, _, message, _, _ in commits
    ]
    k = sum(corrective)
    ccp = estimator.estimate_ccp(k=k, n=len(commits), perf=config.performance)
    involved = involved_by_year[year]
    capped = analytics.capped_sizes([files for _, _, _, _, files, _ in commits], corrective)

    retention = onboarding = None
    if year + 1 in by_year:
        next_authors = authors_by_year[year + 1]
        retention = analytics.retention(involved.keys(), next_authors)
        next_involved = involved_by_year[year + 1].keys()
        onboarding = analytics.onboarding(prior_authors, next_authors, next_involved)

    return analytics.ProjectYearStats(
        repo_id=repo_id,
        year=year,
        n_commits=len(commits),
        k_hits=k,
        ccp=ccp,
        coupling=analytics.coupling(capped),
        coupling_by_file=analytics.coupling_by_file(capped),
        speed=analytics.developer_speed(involved),
        retention=retention,
        onboarding=onboarding,
        dominant_language=language,
        avg_file_kb=avg_kb,
    )


def _file_size(text: str) -> int:
    """A HEAD listing's ``size_bytes``: an integer no less than 0."""
    size = int(text)
    if size < 0:
        raise ValueError(f"size_bytes {text!r} is negative")
    return size


def cmd_analyze(args: argparse.Namespace, config: RunConfig) -> int:
    if config.enforce_selection and config.year is None:
        raise ConfigError("--enforce-selection requires --year")
    if args.projects is not None and not config.enforce_selection:
        raise ConfigError("--projects requires --enforce-selection")
    by_repo: ingestion.CommitTable = {}
    skipped = sum(parsed.skipped for parsed in _read_commits(args, by_repo))

    language = avg_kb = None
    if args.head_listing is not None:
        with ingestion.naming(args.head_listing, error=InputError):
            head_listing = list(
                ingestion.read_csv(args.head_listing, {"path": str, "size_bytes": _file_size})
            )
        if head_listing:
            language = analytics.dominant_language(head_listing)
            avg_kb = analytics.file_length_stats(head_listing)

    # Without selection every project counts as accepted.
    accepted = list(by_repo)
    exclusions: list[dict] = []
    if config.enforce_selection:
        metadata = (
            ingestion.load_project_metadata(args.projects) if args.projects is not None else {}
        )
        descriptors = [
            ingestion.ProjectDescriptor.from_commits(
                repo_id, commits, config.year, *metadata.get(repo_id, ())
            )
            for repo_id, commits in by_repo.items()
        ]
        selection = ingestion.select_projects(descriptors)
        accepted = [p.repo_id for p in selection.accepted]
        exclusions = [{"repo_id": r, "rule": rule} for r, rule in selection.exclusions]

    rows = []
    reports = []
    for repo_id in sorted(accepted):
        by_year = ingestion.window_by_year(by_repo[repo_id].values())
        authors_by_year = {y: {author for _, author, *_ in cs} for y, cs in by_year.items()}
        # Only the years analysed and the years after them need their involved authors.
        involved_by_year = {
            y: ingestion.involved_authors(cs)
            for y, cs in by_year.items()
            if config.year in (None, y, y - 1)
        }
        prior_authors: set[str] = set()
        for year in sorted(by_year):
            prior_authors |= authors_by_year[year]
            if config.year not in (None, year):
                continue
            stat = _project_year_stats(
                repo_id, year, by_year, authors_by_year, involved_by_year, prior_authors,
                config, language, avg_kb,
            )
            entry = dataclasses.asdict(stat)
            row = {name: value for name, value in entry.items() if name != "ccp"}
            ccp = entry["ccp"]
            row.update(hit_rate=ccp["hit_rate"], ccp_raw=ccp["ccp_raw"], ccp_status=ccp["status"])
            rows.append(row)
            if stat.ccp.valid:
                entry["band"] = estimator.rank_on_scale(stat.ccp.ccp_raw, config.table)
            else:
                messages = [message for _, _, _, message, _, _ in by_year[year]]
                median, p90 = classifier.terse_message_profile(messages)
                entry["diagnostics"] = {
                    "english_hit_rate": classifier.english_hit_rate(
                        messages, config.english_model
                    ),
                    "median_message_chars": median,
                    "p90_message_chars": p90,
                    "reference": DIAGNOSTIC_REFERENCE,
                }
            reports.append(entry)

    report = {
        "meta": config.meta(),
        "report_type": "analyze",
        "skipped_lines": skipped,
        "exclusions": exclusions,
        "projects": reports,
        "rows": rows,
    }
    _emit(report, config)
    return EXIT_OK


def cmd_rank(args: argparse.Namespace, config: RunConfig) -> int:
    band = estimator.rank_on_scale(args.ccp, config.table)
    _emit(
        {
            "meta": config.meta(),
            "report_type": "rank",
            "ccp": args.ccp,
            "band": band,
        },
        config,
    )
    return EXIT_OK


def _bootstrap(
    args: argparse.Namespace,
    config: RunConfig,
    corpus: list[classifier.LabeledCommit],
    resamples: estimator.Resamples,
) -> estimator.BootstrapReport:
    """The bootstrap difference report of ``validate-model`` and ``bootstrap``."""
    return estimator.bootstrap_difference_distribution(
        corpus,
        config.term_model,
        resamples,
        perf=None if args.perf_source == "corpus" else config.performance,
        iterations=args.iterations,
        coverage=args.coverage,
    )


def cmd_validate_model(args: argparse.Namespace, config: RunConfig) -> int:
    corpus = classifier.load_labeled_corpus(args.corpus)
    # The study's resamples are drawn on a worker while the corpus is classified.
    with (
        ingestion.naming(args.corpus, error=InputError),
        estimator.Resamples(len(corpus), config.seed) as resamples,
    ):
        report = {
            "meta": config.meta(),
            "report_type": "validate-model",
            "confusion_matrix": classifier.evaluate_model(corpus, config.term_model),
            "bootstrap": _bootstrap(args, config, corpus, resamples),
        }
    _emit(report, config)
    return EXIT_OK


def cmd_bootstrap(args: argparse.Namespace, config: RunConfig) -> int:
    if args.segments is not None and not args.sensitivity:
        raise ConfigError("--segments requires --sensitivity")
    corpus = classifier.load_labeled_corpus(args.corpus)
    # Both studies read one stream of resamples, drawn on a worker while they
    # classify and count; the rows both read are drawn once.
    with (
        ingestion.naming(args.corpus, error=InputError),
        estimator.Resamples(len(corpus), config.seed) as resamples,
    ):
        report = {
            "meta": config.meta(),
            "report_type": "bootstrap",
            "difference": _bootstrap(args, config, corpus, resamples),
        }
        if args.sensitivity:
            report["sensitivity"] = estimator.estimator_sensitivity(
                corpus,
                config.term_model,
                resamples,
                iterations=args.iterations,
                eval_segments=args.segments or estimator.DEFAULT_SENSITIVITY_SEGMENTS,
            )
    _emit(report, config)
    return EXIT_OK


def cmd_cochange(args: argparse.Namespace, config: RunConfig) -> int:
    series_i = stats.load_series_csv(args.series_i)
    series_j = stats.load_series_csv(args.series_j)
    # Series without a pair in common: the error names both files.
    with ingestion.naming(args.series_i, args.series_j, error=InputError):
        report = stats.co_change(
            series_i,
            series_j,
            delta_i=args.delta_i,
            delta_j=args.delta_j,
            improvement_sign_i=args.sign_i,
            improvement_sign_j=args.sign_j,
            comparator=args.comparator,
        )
    _emit({"meta": config.meta(), "report_type": "cochange", "cochange": report}, config)
    return EXIT_OK


def cmd_twin(args: argparse.Namespace, config: RunConfig) -> int:
    dev_series = stats.load_series_csv(args.dev_series, ("developer", "project"))
    project_series = stats.load_series_csv(args.project_series)
    # Series without a qualifying pair: the error names both files.
    with ingestion.naming(args.dev_series, args.project_series, error=InputError):
        report = stats.twin_analysis(
            dev_series,
            project_series,
            delta_project=args.delta_project,
            delta_dev=args.delta_dev,
            improvement_sign=args.sign,
            comparator=args.comparator,
        )
    _emit({"meta": config.meta(), "report_type": "twin", "twin": report}, config)
    return EXIT_OK


def cmd_export_log_recipe(args: argparse.Namespace, config: RunConfig) -> int:
    print(ingestion.GIT_LOG_RECIPE)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser

def _bounded(kind: type, accept, rule: str):
    """A flag's converter: ``kind`` of the text, which ``accept`` must pass."""

    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not accept(value):  # NaN fails every bound
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return convert


_threshold = _bounded(float, lambda v: v >= 0, ">= 0")  # the --delta-* flags
_probability = _bounded(float, lambda v: 0 <= v <= 1, "in [0, 1]")
_coverage = _bounded(float, lambda v: 0 < v < 1, "in (0, 1)")
_iterations = _bounded(
    int, lambda v: 1 <= v <= estimator.MAX_ITERATIONS, f"in [1, {estimator.MAX_ITERATIONS}]"
)
_seed = _bounded(int, lambda v: v >= 0, ">= 0")  # also the config file's seed
_output_format = _bounded(str, FORMATS.__contains__, "json or csv")  # the config file's format
# The config file's values that are not paths, by key.
_CONFIG_VALUES = {
    "year": int, "seed": _seed, "format": _output_format, "enforce_selection": ingestion.read_flag
}


def _parse_segments(text: str) -> tuple[tuple[float, float], ...]:
    """A ``--segments`` value: ``low:high,...`` with 0 <= low <= high <= 1 each."""
    try:
        segments = tuple(
            (float(low), float(high))
            for low, _, high in (part.partition(":") for part in text.split(","))
        )
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed segments {text!r}; expected 'low:high,...'"
        ) from None
    for low, high in segments:
        if not 0 <= low <= high <= 1:
            raise argparse.ArgumentTypeError(
                f"segment {low}:{high} must have 0 <= low <= high <= 1"
            )
    return segments


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccp-miner",
        description="Estimate the corrective commit probability of projects "
        "from their commit histories.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--model", help="term model file (default: bundled model)")
    parser.add_argument("--english-model", help="english word list file")
    parser.add_argument("--perf", help="performance config file (recall=, fpr=)")
    parser.add_argument("--table", help="CCP distribution table CSV")
    parser.add_argument("--year", type=int, help="analysis calendar year (UTC)")
    parser.add_argument("--seed", type=_seed, help="random seed (default 0)")
    parser.add_argument("--format", choices=FORMATS, help="output format")
    parser.add_argument(
        "--enforce-selection",
        action="store_true",
        default=None,
        help="apply the project-selection pipeline before analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    log_args = argparse.ArgumentParser(add_help=False)
    log_args.add_argument("input", nargs="+", help="commit log file(s)")
    log_args.add_argument("--input-format", choices=("ndjson", "git"), default="ndjson")
    log_args.add_argument("--repo", help="repo id for --input-format git")

    corpus_args = argparse.ArgumentParser(add_help=False)
    corpus_args.add_argument("corpus", help="labeled corpus file (label<TAB>message)")
    corpus_args.add_argument(
        "--iterations", type=_iterations, default=estimator.DEFAULT_ITERATIONS
    )
    corpus_args.add_argument("--coverage", type=_coverage, default=estimator.DEFAULT_COVERAGE)
    corpus_args.add_argument("--perf-source", choices=("corpus", "config"), default="corpus")

    p = sub.add_parser("classify", parents=[log_args], help="per-commit verdict stream (NDJSON)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "analyze", parents=[log_args], help="per-project-year stats, CCP and ranking"
    )
    p.add_argument("--projects", help="project metadata CSV (repo_id,owner,name,is_fork)")
    p.add_argument("--head-listing", help="HEAD snapshot CSV (path,size_bytes)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("rank", help="band a CCP value on the quality scale")
    p.add_argument("--ccp", type=_probability, required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser(
        "validate-model", parents=[corpus_args], help="confusion matrix + bootstrap report"
    )
    p.set_defaults(func=cmd_validate_model)

    p = sub.add_parser(
        "bootstrap", parents=[corpus_args], help="estimate-vs-truth bootstrap distribution"
    )
    p.add_argument("--sensitivity", action="store_true", help="add sensitivity analysis")
    p.add_argument("--segments", type=_parse_segments, help="requires --sensitivity")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("cochange", help="co-change precision and lift of two metrics")
    p.add_argument("--series-i", required=True, help="CSV entity,year,value")
    p.add_argument("--series-j", required=True, help="CSV entity,year,value")
    p.add_argument("--delta-i", type=_threshold, default=0.0)
    p.add_argument("--delta-j", type=_threshold, default=0.0)
    p.add_argument("--sign-i", type=int, choices=(-1, 1), default=1)
    p.add_argument("--sign-j", type=int, choices=(-1, 1), default=1)
    p.add_argument("--comparator", choices=("auto", "strict", "inclusive"), default="auto")
    p.set_defaults(func=cmd_cochange)

    p = sub.add_parser("twin", help="same-developer cross-project comparison")
    p.add_argument("--dev-series", required=True, help="CSV developer,project,year,value")
    p.add_argument("--project-series", required=True, help="CSV entity,year,value")
    p.add_argument("--delta-project", type=_threshold, default=0.0)
    p.add_argument("--delta-dev", type=_threshold, default=0.0)
    p.add_argument("--sign", type=int, choices=(-1, 1), default=1)
    p.add_argument("--comparator", choices=("auto", "strict", "inclusive"), default="auto")
    p.set_defaults(func=cmd_twin)

    p = sub.add_parser("export-log-recipe", help="print the git log export recipe")
    p.set_defaults(func=cmd_export_log_recipe)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(args)
        code = args.func(args, config)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed (`| head`); devnull keeps the interpreter's last flush quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - invariant violations surface as exit 4
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
