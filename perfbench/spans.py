"""Spans around the calls into each ccp_miner module, and their self times.

``Tracer.install`` replaces the public functions named in ``LAYERS`` by
wrappers that record a span (id, parent id, job id, metric name, start, end,
counts). A function is replaced under every name it is bound to in the
package, so ``estimator.classify_message`` records a classifier span too.
Public functions not named here are left alone; their time counts in the
span of their caller. Generator functions are never wrapped, because the
wrapper would time only the creation of the generator.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict


def _message(args, kwargs):
    return args[0] if args else kwargs["message"]


def _parse_counts(args, kwargs, result):
    return {"ingestion.records": len(result.records), "ingestion.skipped": result.skipped}


def _classify_counts(args, kwargs, result):
    return {
        "classifier.messages": 1,
        "classifier.message_kb": len(_message(args, kwargs).encode()) / 1024,
    }


def _one_listing(args, kwargs, result):
    return {"analytics.head_listing_calls": 1}


# module -> {public name: (span metric, counts from (args, kwargs, result))}
LAYERS = {
    "cli": {
        "main": ("cli.self_s", None),
        "RunConfig": ("cli.config_s", None),
    },
    "ingestion": {
        "parse_git_log": ("ingestion.parse_s", _parse_counts),
        "parse_raw_git_log": ("ingestion.parse_s", _parse_counts),
        "window_by_year": ("ingestion.window_s", None),
        "involved_authors": ("ingestion.involved_s", None),
        "load_project_metadata": ("ingestion.select_s", None),
        "ProjectDescriptor.from_commits": ("ingestion.select_s", None),
        "select_projects": (
            "ingestion.select_s",
            lambda a, k, r: {"ingestion.select_excluded": len(r.exclusions)},
        ),
    },
    "classifier": {
        "classify_message": ("classifier.classify_s", _classify_counts),
        "evaluate_model": ("classifier.classify_s", None),
        "english_hit_rate": ("classifier.diagnostics_s", None),
        "terse_message_profile": ("classifier.diagnostics_s", None),
        "parse_term_model": ("classifier.load_s", None),
        "load_term_model": ("classifier.load_s", None),
        "load_default_term_model": ("classifier.load_s", None),
        "load_english_model": ("classifier.load_s", None),
        "load_default_english_model": ("classifier.load_s", None),
        "load_labeled_corpus": ("classifier.corpus_s", None),
    },
    "estimator": {
        "estimate_ccp": ("estimator.estimate_s", None),
        "rank_on_scale": ("estimator.rank_s", None),
        "bootstrap_difference_distribution": ("estimator.bootstrap_s", None),
        "estimator_sensitivity": (
            "estimator.sensitivity_s",
            lambda a, k, r: {"estimator.sensitivity_redraws": r.redraws},
        ),
        "load_performance_config": ("estimator.load_s", None),
        "load_default_performance": ("estimator.load_s", None),
        "load_distribution_table": ("estimator.load_s", None),
        "load_default_distribution_table": ("estimator.load_s", None),
    },
    "analytics": {
        "coupling": ("analytics.coupling_s", None),
        "coupling_by_file": ("analytics.coupling_s", None),
        "developer_speed": ("analytics.people_s", None),
        "retention": ("analytics.people_s", None),
        "onboarding": ("analytics.people_s", None),
        "dominant_language": ("analytics.head_listing_s", _one_listing),
        "file_length_stats": ("analytics.head_listing_s", _one_listing),
    },
    "stats": {
        "load_series_csv": ("stats.load_s", None),
        "co_change": ("stats.cochange_s", lambda a, k, r: {"stats.pairs": r.n_pairs}),
        "twin_analysis": ("stats.twin_s", lambda a, k, r: {"stats.pairs": r.n_developer_pairs}),
    },
}


class Tracer:
    """In-memory span recorder for one process; not thread-safe."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.job = 0
        self._stack = [0]
        self._next_id = 1
        self._patches: list[tuple] = []

    def wrap(self, fn, name: str, count=None):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            done = False
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = self.clock()
                self._stack.pop()
                counts = count(args, kwargs, result) if done and count else None
                self.spans.append((span_id, parent, self.job, name, start, end, counts))

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "ccp_miner") -> None:
        modules = {m: importlib.import_module(f"{package}.{m}") for m in LAYERS}
        loaded = [m for n, m in sorted(sys.modules.items()) if n.startswith(package + ".")]
        for module_name, functions in LAYERS.items():
            module = modules[module_name]
            for qualname, (metric, count) in functions.items():
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    method = owner.__dict__[attr]
                    self._patch(owner, attr, classmethod(self.wrap(method.__func__, metric, count)))
                    continue
                original = getattr(module, qualname)
                wrapper = self.wrap(original, metric, count)
                for other in loaded:
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, _, start, end, _ in spans:
        children[parent].append((start, end))
    out = {}
    for span_id, _, _, _, start, end, _ in spans:
        clipped = [
            (max(start, s), min(end, e)) for s, e in children.get(span_id, ()) if s < end and e > start
        ]
        out[span_id] = (end - start) - _covered(clipped)
    return out


def job_totals(spans: list[tuple]) -> dict[int, dict[str, float]]:
    """Job id -> {metric: summed self time or summed count}."""
    selfs = self_times(spans)
    totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span_id, _, job, name, _, _, counts in spans:
        totals[job][name] += selfs[span_id]
        for key, value in (counts or {}).items():
            totals[job][key] += value
    return totals


def median_over_jobs(totals: dict[int, dict[str, float]], names: list[str]) -> dict[str, float]:
    """Per metric, the median over jobs; a metric a job never recorded counts as 0."""
    return {
        name: statistics.median(job.get(name, 0.0) for job in totals.values()) for name in names
    }
