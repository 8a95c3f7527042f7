"""Checks of CLI reports against the ground truth the generator planted.

``check_job`` raises ``CheckError`` on the first mismatch. Counts must match
exactly, and so must ``ccp_raw``, which has to equal
``(k/n - fpr)/(recall - fpr)``. Rates derived from planted counts, and the
bootstrap statistics, are compared with a relative tolerance of 1e-9.
"""

from __future__ import annotations

import math


class CheckError(Exception):
    """A report disagrees with the planted ground truth."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _close(actual, expected, what: str) -> None:
    _expect(
        actual is not None and math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-12),
        f"{what}: got {actual!r}, expected {expected!r}",
    )


def _status(k: int, n: int, recall: float, fpr: float) -> str:
    hit_rate = k / n
    if hit_rate < fpr:
        return "BelowZero"
    if hit_rate > recall:
        return "AboveOne"
    return "Valid"


def check_analyze(report: dict, truth: dict) -> None:
    _expect(report.get("report_type") == "analyze", "not an analyze report")
    recall, fpr = truth["recall"], truth["fpr"]
    meta = report["meta"]
    _expect(meta["model_id"] == "default-1", "unexpected model id")
    _expect((meta["recall"], meta["fpr"]) == (recall, fpr),
            f"constants {meta['recall']}/{meta['fpr']} are not the bundled {recall}/{fpr}")
    _expect(report["skipped_lines"] == truth["skipped"],
            f"skipped_lines {report['skipped_lines']} != {truth['skipped']}")

    excluded = [e["repo_id"] for e in report["exclusions"]]
    _expect(len(excluded) == len(set(excluded)), "a project is excluded twice")
    got_rules = {e["repo_id"]: e["rule"] for e in report["exclusions"]}
    for repo, rule in truth["exclusions"].items():
        _expect(got_rules.get(repo) == rule, f"{repo}: rule {got_rules.get(repo)!r} != {rule!r}")
    _expect(len(got_rules) == len(truth["exclusions"]),
            f"{len(got_rules)} exclusions reported, {len(truth['exclusions'])} planted")

    expected = {(r["repo_id"], r["year"]): r for r in truth["projects"]}
    got = {(p["repo_id"], p["year"]): p for p in report["projects"]}
    _expect(set(got) == set(expected),
            f"project-years differ: {sorted(set(got) ^ set(expected))[:3]}")
    _expect(len(report["rows"]) == len(report["projects"]), "rows and projects differ in length")
    for key, want in expected.items():
        entry = got[key]
        n, k = want["n"], want["k"]
        _expect(entry["n_commits"] == n, f"{key}: n_commits {entry['n_commits']} != {n}")
        _expect(entry["k_hits"] == k, f"{key}: k_hits {entry['k_hits']} != {k}")
        ccp = entry["ccp"]
        _expect(ccp["n"] == n and ccp["k"] == k, f"{key}: ccp n/k disagree with counts")
        _expect(ccp["ccp_raw"] == (k / n - fpr) / (recall - fpr), f"{key}: ccp_raw is off")
        status = _status(k, n, recall, fpr)
        _expect(ccp["status"] == status, f"{key}: status {ccp['status']} != {status}")
        _expect(("band" in entry) == (status == "Valid"), f"{key}: band present iff valid")
        _expect(("diagnostics" in entry) == (status != "Valid"),
                f"{key}: diagnostics present iff invalid")
        if "diagnostics" in want:
            diag, planted = entry["diagnostics"], want["diagnostics"]
            _close(diag["english_hit_rate"], planted["english_hit_rate"], f"{key}: english_hit_rate")
            for name in ("median_message_chars", "p90_message_chars"):
                _expect(diag[name] == planted[name], f"{key}: {name} {diag[name]} != {planted[name]}")
        _expect(entry["dominant_language"] == truth["dominant_language"],
                f"{key}: dominant_language {entry['dominant_language']!r}")


def check_bootstrap(report: dict, truth: dict) -> None:
    _expect(report.get("report_type") == "bootstrap", "not a bootstrap report")
    expected = truth["expected"]
    difference = report["difference"]
    _expect(difference["iterations"] == expected["iterations"], "bootstrap iterations differ")
    for name in ("mean_difference", "interval_low", "interval_high"):
        _close(difference[name], expected[name], f"difference.{name}")
    sensitivity = report["sensitivity"]
    _expect(sensitivity["redraws"] == expected["redraws"],
            f"redraws {sensitivity['redraws']} != {expected['redraws']}")
    _expect(len(sensitivity["segments"]) == len(expected["segments"]), "segment count differs")
    for got, want in zip(sensitivity["segments"], expected["segments"]):
        _expect(got["segment"] == want["segment"], f"segment {got['segment']} != {want['segment']}")
        for name in ("max_abs_difference", "p95_abs_difference"):
            _close(got[name], want[name], f"segment {want['segment']}: {name}")


def check_cochange(report: dict, truth: dict) -> None:
    _expect(report.get("report_type") == "cochange", "not a cochange report")
    got, c = report["cochange"], truth["cochange"]
    _expect(got["n_pairs"] == c["n"], f"n_pairs {got['n_pairs']} != {c['n']}")
    _close(got["match_rate"], c["matches"] / c["n"], "match_rate")
    _close(got["base_rate"], c["n_j"] / c["n"], "base_rate")
    _close(got["precision"], c["n_ij"] / c["n_i"], "precision")
    _close(got["lift"], c["n"] * c["n_ij"] / (c["n_i"] * c["n_j"]) - 1.0, "lift")


def check_twin(report: dict, truth: dict) -> None:
    _expect(report.get("report_type") == "twin", "not a twin report")
    got, t = report["twin"], truth["twin"]
    _expect(got["n_developer_pairs"] == t["qualifying"],
            f"n_developer_pairs {got['n_developer_pairs']} != {t['qualifying']}")
    _close(got["precision"], t["successes"] / t["qualifying"], "twin precision")


def check_job(reports: list[dict], truth: dict) -> None:
    """Check the reports of one job's CLI calls, in call order."""
    kind = truth["kind"]
    if kind == "analyze":
        _expect(len(reports) == 1, "analyze job makes one report")
        check_analyze(reports[0], truth)
    elif kind == "bootstrap":
        _expect(len(reports) == 1, "bootstrap job makes one report")
        check_bootstrap(reports[0], truth)
    elif kind == "stats":
        _expect(len(reports) == 2, "stats job makes a cochange and a twin report")
        check_cochange(reports[0], truth)
        check_twin(reports[1], truth)
    else:
        raise CheckError(f"unknown truth kind {kind!r}")


# ---------------------------------------------------------------------------
# Reference bootstrap for planted labels and verdicts

SEGMENTS = ((0.0, 1.0), (0.042, 0.84), (0.06, 0.39))  # the CLI's default --segments


def reference_bootstrap(
    labels: list[bool], hits: list[bool], iterations: int, seed: int, coverage: float = 0.95
) -> dict:
    """Bootstrap and sensitivity statistics of ``ccp-miner bootstrap --sensitivity``.

    Written from the estimator's documented method: resample the corpus
    with ``numpy.random.default_rng(seed)``, measure recall and fpr on the
    full corpus (bootstrap) or on pairs of valid resamples (sensitivity).
    """
    import numpy as np

    labels = np.asarray(labels, dtype=bool)
    hits = np.asarray(hits, dtype=bool)
    n = len(labels)
    recall = float((labels & hits).sum() / labels.sum())
    fpr = float((~labels & hits).sum() / (~labels).sum())

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(iterations, n))
    diffs = (hits[idx].mean(axis=1) - fpr) / (recall - fpr) - labels[idx].mean(axis=1)
    del idx
    tail = (1.0 - coverage) / 2.0
    low, high = np.percentile(diffs, [100.0 * tail, 100.0 * (1.0 - tail)], method="lower")

    rng = np.random.default_rng(seed)
    redraws = 0

    def draw() -> tuple:
        nonlocal redraws
        r_out, f_out = np.empty(iterations), np.empty(iterations)
        pending = np.arange(iterations)
        while pending.size:
            sample = rng.integers(0, n, size=(pending.size, n))
            lab, hit = labels[sample], hits[sample]
            pos = lab.sum(axis=1)
            neg = n - pos
            with np.errstate(divide="ignore", invalid="ignore"):
                r = (lab & hit).sum(axis=1) / pos
                f = (~lab & hit).sum(axis=1) / neg
            ok = (pos > 0) & (neg > 0) & (r > f)
            r_out[pending[ok]], f_out[pending[ok]] = r[ok], f[ok]
            redraws += int((~ok).sum())
            pending = pending[~ok]
        return r_out, f_out

    recall_a, fpr_a = draw()
    recall_b, fpr_b = draw()
    segments = []
    for lo, hi in SEGMENTS:
        points = np.array([lo, hi])
        est_a = (points[:, None] - fpr_a) / (recall_a - fpr_a)
        est_b = (points[:, None] - fpr_b) / (recall_b - fpr_b)
        worst = np.abs(est_a - est_b).max(axis=0)
        segments.append(
            {
                "segment": [lo, hi],
                "max_abs_difference": float(worst.max()),
                "p95_abs_difference": float(np.percentile(worst, 95, method="lower")),
            }
        )
    return {
        "iterations": iterations,
        "mean_difference": float(diffs.mean()),
        "interval_low": float(low),
        "interval_high": float(high),
        "redraws": redraws,
        "segments": segments,
    }
