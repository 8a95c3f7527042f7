"""Seeded inputs and planted ground truth for the benchmark workloads.

Each ``make_<workload>`` writes its inputs under ``out_dir`` and returns a job
spec: the CLI calls that make one job, the number of input records, the
number of messages the classifier must see, and the ground truth the report
checks compare against. The same seed gives byte-identical files and specs.
Message verdicts come from ``templates`` and are known by construction.
"""

from __future__ import annotations

import json
import math
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

import templates as T

# Bundled performance constants of the default-1 model (data/performance.cfg).
RECALL = 0.84
FPR = 0.042

REPO_HISTORY_COMMITS = 7_500
CORPUS_RECORDS = 100_000
CORPUS_YEAR = 2020
VALIDATION_MESSAGES = 2_000
VALIDATION_ITERATIONS = 10_000
STATS_ENTITIES = 5_000
STATS_DEV_ROWS = 160_000
STATS_YEARS = tuple(range(2010, 2022))

WORKLOADS = ("repo-history", "corpus-selection", "model-validation", "cross-project-stats")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _hash(rng: random.Random) -> str:
    return "%040x" % rng.getrandbits(160)


def _timestamp(rng: random.Random, year: int) -> str:
    # Stay a day clear of the year's edges so the UTC year is unambiguous.
    start = datetime(year, 1, 2, tzinfo=timezone.utc)
    return (start + timedelta(seconds=rng.randrange(362 * 86_400))).isoformat()


def _split(total: int, weights: list[float]) -> list[int]:
    """Split ``total`` into integer parts proportional to ``weights``."""
    raw = [total * w / sum(weights) for w in weights]
    parts = [int(r) for r in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: parts[i] - raw[i])
    for i in by_remainder[: total - sum(parts)]:
        parts[i] += 1
    return parts


def _subject(rng: random.Random, corrective: bool) -> str:
    pool = T.CORRECTIVE_SUBJECTS if corrective else T.PLAIN_SUBJECTS
    return rng.choice(pool).format(noun=rng.choice(T.NOUNS))


def _body(rng: random.Random, corrective: bool, lines: int) -> list[str]:
    out = []
    for _ in range(lines):
        pool = T.CORRECTIVE_LINES if corrective and rng.random() < 0.3 else T.NEUTRAL_LINES
        out.append(rng.choice(pool).format(noun=rng.choice(T.NOUNS)))
    return out


def _foreign(rng: random.Random) -> str:
    return rng.choice(T.FOREIGN_SUBJECTS).format(noun=rng.choice(T.FOREIGN_NOUNS))


def _lower_percentile(values: list[int], q: float) -> int:
    """numpy's ``percentile(..., method="lower")`` on a list of ints."""
    ordered = sorted(values)
    return ordered[math.floor(q / 100 * (len(ordered) - 1))]


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# repo-history: one long raw `git log`, classifier-bound


def make_repo_history(out_dir: Path, seed: int, commits: int = REPO_HISTORY_COMMITS) -> dict:
    rng = _rng("repo-history", seed)
    repo = "acme/history"
    years = list(range(2012, 2024))
    per_year = _split(commits, [rng.uniform(0.7, 1.3) for _ in years])

    paths = [f"src/pkg{i % 15}/module_{i}.py" for i in range(1700)]
    paths += [f"docs/page_{i}.md" for i in range(150)] + [f"conf/site_{i}.cfg" for i in range(100)]
    listing = "path,size_bytes\n" + "".join(
        f"{p},{rng.randint(200, 60_000)}\n" for p in paths
    )

    authors = []  # (email, first year, last year, weight)
    for i in range(220):
        first = rng.choice(years)
        last = min(years[-1], first + rng.randint(0, 6))
        weight = 30.0 if i < 18 else rng.uniform(0.3, 3.0)
        authors.append((f"dev{i}@example.org", first, last, weight))

    entries = []  # (timestamp, chunk)
    truth_rows = []
    for year, n in zip(years, per_year):
        k = round(n * rng.uniform(0.18, 0.4))
        flags = [True] * k + [False] * (n - k)
        rng.shuffle(flags)
        active = [a for a in authors if a[1] <= year <= a[2]] or authors[:18]
        emails = [a[0] for a in active]
        weights = [a[3] for a in active]
        for corrective in flags:
            parents = _hash(rng)
            if not corrective and rng.random() < 0.03:
                parents += " " + _hash(rng)
                message = T.MERGE_SUBJECT.format(noun=rng.choice(T.NOUNS))
            else:
                body = _body(rng, corrective, rng.randint(2, 8))
                message = _subject(rng, corrective) + "\n\n" + "\n".join(body)
            ts = _timestamp(rng, year)
            files = "\n".join(rng.sample(paths[:1700], rng.randint(1, 6)))
            author = rng.choices(emails, weights)[0]
            chunk = f"\x1e{_hash(rng)}\x1f{author}\x1f{ts}\x1f{parents}\x1f{message}\x1f\n{files}\n"
            entries.append((ts, chunk))
        truth_rows.append({"repo_id": repo, "year": year, "n": n, "k": k})
    entries.sort(reverse=True)
    chunks = [c for _, c in entries]

    # Planted defects the parser must skip: repeated commits and chunks
    # missing a field.
    for _ in range(4):
        chunks.insert(rng.randrange(len(chunks)), rng.choice(chunks))
    for _ in range(3):
        bad = f"\x1e{_hash(rng)}\x1fghost@example.org\x1f{_timestamp(rng, 2015)}\x1fno fields\n"
        chunks.insert(rng.randrange(len(chunks)), bad)

    log = _write(out_dir / "history.gitlog", "".join(chunks))
    head = _write(out_dir / "head.csv", listing)
    return {
        "workload": "repo-history",
        "calls": [["analyze", log, "--input-format", "git", "--repo", repo, "--head-listing", head]],
        "records": len(chunks),
        "classify_records": commits,
        "truth": {
            "kind": "analyze",
            "recall": RECALL,
            "fpr": FPR,
            "skipped": 7,
            "exclusions": {},
            "projects": truth_rows,
            "dominant_language": "py",
        },
    }


# ---------------------------------------------------------------------------
# corpus-selection: many projects, most excluded before classification


def make_corpus_selection(out_dir: Path, seed: int, records: int = CORPUS_RECORDS) -> dict:
    rng = _rng("corpus-selection", seed)
    year = CORPUS_YEAR
    scale = records / 200_000  # project counts below are per 200k records
    lines: list[str] = []
    meta_rows = []
    exclusions: dict[str, str] = {}
    truth_rows = []

    def emit(repo: str, commit: tuple) -> None:
        commit_hash, author, ts, message, files = commit
        lines.append(
            json.dumps(
                {"repo": repo, "hash": commit_hash, "author": author, "ts": ts,
                 "msg": message, "files": files, "merge": False},
                ensure_ascii=False,
            )
        )

    def commit(y: int, message: str, authors: list[str]) -> tuple:
        files = [f"lib/part_{rng.randrange(400)}.py" for _ in range(rng.randint(1, 3))]
        return (_hash(rng), rng.choice(authors), _timestamp(rng, y), message, files)

    def team() -> list[str]:
        base = rng.randrange(100_000)
        return [f"user{base + i}@example.org" for i in range(rng.randint(5, 30))]

    def filler(repo: str, count: int, authors: list[str], years=(year - 2, year - 1)) -> None:
        for _ in range(count):
            emit(repo, commit(rng.choice(years), _subject(rng, rng.random() < 0.3), authors))

    n_upstream = max(2, round(50 * scale))
    foreign = set(rng.sample(range(n_upstream), max(1, n_upstream // 10)))
    upstream_commits = []
    for u in range(n_upstream):
        repo = f"org{u // 2}/proj{u:02d}"
        meta_rows.append((repo, f"org{u // 2}", f"proj{u:02d}", False))
        authors = team()
        n = rng.randint(220, 420)
        if u in foreign:
            k = rng.randint(0, 4)
        else:
            k = round(n * rng.uniform(0.15, 0.4))
        flags = [True] * k + [False] * (n - k)
        rng.shuffle(flags)
        year_commits = []
        for corrective in flags:
            if u in foreign and not corrective:
                message = _foreign(rng)
            else:
                message = _subject(rng, corrective)
            year_commits.append(commit(year, message, authors))
        for c in year_commits:
            emit(repo, c)
        filler(repo, rng.randint(100, 300), authors)
        upstream_commits.append(year_commits)
        row = {"repo_id": repo, "year": year, "n": n, "k": k}
        if u in foreign:
            lengths = [len(c[3]) for c in year_commits]
            row["diagnostics"] = {
                "english_hit_rate": k / n,
                "median_message_chars": _lower_percentile(lengths, 50),
                "p90_message_chars": _lower_percentile(lengths, 90),
            }
        truth_rows.append(row)

    # Forks copy an upstream's year and add a little of their own.
    for i in range(max(1, round(50 * scale))):
        u = rng.randrange(n_upstream)
        repo = f"fork{i}/proj{u:02d}"
        meta_rows.append((repo, f"fork{i}", f"proj{u:02d}", True))
        for c in upstream_commits[u]:
            emit(repo, c)
        filler(repo, rng.randint(10, 40), team(), years=(year,))
        exclusions[repo] = "fork"

    # Clones are not flagged as forks but share most of a larger project's year.
    for i in range(max(1, round(100 * scale))):
        u = rng.randrange(n_upstream)
        source = upstream_commits[u]
        repo = f"mirror{i}/proj{u:02d}-copy{i}"
        meta_rows.append((repo, f"mirror{i}", f"proj{u:02d}-copy{i}", False))
        for c in rng.sample(source, rng.randint(200, len(source) - 10)):
            emit(repo, c)
        exclusions[repo] = "dominated"

    # Same name as an upstream, owned by a single-project owner.
    for i, u in enumerate(rng.sample(range(n_upstream), max(1, round(20 * scale)))):
        repo = f"solo{i}/proj{u:02d}"
        meta_rows.append((repo, f"solo{i}", f"proj{u:02d}", False))
        filler(repo, rng.randint(200, 300), team(), years=(year,))
        exclusions[repo] = "duplicate_name"

    # Small projects fill the corpus up to its size; the planted bad lines
    # below are part of the count.
    planted = 20
    i = 0
    while len(lines) < records - planted:
        room = records - planted - len(lines)
        repo = f"{rng.choice(['org', 'user'])}{rng.randrange(25)}/tool{i}"
        owner, _, name = repo.partition("/")
        meta_rows.append((repo, owner, name, False))
        authors = team()
        in_year = min(room, rng.randint(0, 150))
        filler(repo, in_year, authors, years=(year,))
        filler(repo, min(room - in_year, rng.randint(10, 120)), authors)
        exclusions[repo] = "min_commits"
        i += 1

    for _ in range(planted // 2):
        lines.insert(rng.randrange(len(lines)), rng.choice(lines))
    for j in range(planted - planted // 2):
        broken = '{"repo": "org0/proj00", "hash": "%040x", "msg": "truncated' % j
        lines.insert(rng.randrange(len(lines)), broken)

    corpus = _write(out_dir / "corpus.ndjson", "\n".join(lines) + "\n")
    projects = _write(
        out_dir / "projects.csv",
        "repo_id,owner,name,is_fork\n"
        + "".join(f"{r},{o},{n},{str(f).lower()}\n" for r, o, n, f in meta_rows),
    )
    return {
        "workload": "corpus-selection",
        "calls": [["--year", str(year), "--enforce-selection", "analyze", corpus,
                   "--projects", projects]],
        "records": len(lines),
        "classify_records": sum(r["n"] for r in truth_rows),
        "truth": {
            "kind": "analyze",
            "recall": RECALL,
            "fpr": FPR,
            "skipped": planted,
            "exclusions": exclusions,
            "projects": truth_rows,
            "dominant_language": None,
        },
    }


# ---------------------------------------------------------------------------
# model-validation: bootstrap + sensitivity on a labeled corpus


def make_model_validation(
    out_dir: Path,
    seed: int,
    messages: int = VALIDATION_MESSAGES,
    iterations: int = VALIDATION_ITERATIONS,
) -> dict:
    import checks

    rng = _rng("model-validation", seed)
    positives = round(messages * rng.uniform(0.28, 0.34))
    tp = round(positives * rng.uniform(0.8, 0.88))
    fp = round((messages - positives) * rng.uniform(0.03, 0.06))
    counts = {"tp": tp, "fn": positives - tp, "fp": fp, "tn": messages - positives - fp}
    # (label, classified corrective) per confusion cell
    cells = {"tp": (1, True), "fn": (1, False), "fp": (0, True), "tn": (0, False)}
    items = [cells[name] for name, c in counts.items() for _ in range(c)]
    rng.shuffle(items)
    lines = [f"{label}\t{_subject(rng, corrective)}\n" for label, corrective in items]
    corpus = _write(out_dir / "labeled.tsv", "".join(lines))
    labels = [bool(label) for label, _ in items]
    hits = [corrective for _, corrective in items]
    return {
        "workload": "model-validation",
        "calls": [["bootstrap", corpus, "--sensitivity", "--iterations", str(iterations)]],
        "records": messages,
        "classify_records": messages,
        "truth": {
            "kind": "bootstrap",
            "confusion": counts,
            "expected": checks.reference_bootstrap(labels, hits, iterations, seed=0),
        },
    }


# ---------------------------------------------------------------------------
# cross-project-stats: co-change and twin studies on metric series


def make_cross_project_stats(
    out_dir: Path, seed: int, entities: int = STATS_ENTITIES, dev_rows: int = STATS_DEV_ROWS
) -> dict:
    rng = _rng("cross-project-stats", seed)
    years = STATS_YEARS
    ccp: dict[str, dict[int, float]] = {}
    speed: dict[str, dict[int, float]] = {}
    for e in range(entities):
        name = f"proj{e}"
        c = rng.uniform(0.05, 0.5)
        s = rng.uniform(5.0, 60.0)
        ccp_points, speed_points = {}, {}
        for y in years:
            ccp_points[y], speed_points[y] = c, s
            improve_i = rng.random() < 0.45
            improve_j = rng.random() < (0.6 if improve_i else 0.4)
            c += -rng.uniform(0.005, 0.05) if improve_i else rng.uniform(0.005, 0.05)
            s += rng.uniform(0.5, 4.0) if improve_j else -rng.uniform(0.5, 4.0)
        if rng.random() < 0.1:
            del ccp_points[rng.choice(years)]
        if rng.random() < 0.1:
            del speed_points[rng.choice(years)]
        ccp[name] = ccp_points
        if rng.random() >= 0.05:
            speed[name] = speed_points

    # Co-change events, counted the way the report defines them: lower CCP
    # and higher speed are improvements, ties are impossible by construction.
    n = n_i = n_j = n_ij = matches = 0
    for name, points in ccp.items():
        other = speed.get(name)
        if other is None:
            continue
        for y in points:
            if y + 1 in points and y in other and y + 1 in other:
                imp_i = points[y + 1] - points[y] < 0
                imp_j = other[y + 1] - other[y] > 0
                n += 1
                n_i += imp_i
                n_j += imp_j
                n_ij += imp_i and imp_j
                matches += imp_i == imp_j

    dev: dict[tuple[str, str], dict[int, float]] = {}
    rows = 0
    d = 0
    names = list(ccp)
    while rows < dev_rows:
        projects = rng.sample(names, rng.randint(2, 3))
        first = rng.randint(years[0], years[-1] - 2)
        span = [y for y in years if first <= y <= first + rng.randint(2, 7)]
        skill = rng.uniform(-0.05, 0.05)
        for p in projects:
            if rows >= dev_rows:
                break
            points = {}
            for y in span[: dev_rows - rows]:
                base = ccp[p].get(y, 0.3)
                points[y] = base + skill + rng.uniform(-0.08, 0.08)
            dev[(f"d{d}", p)] = points
            rows += len(points)
        d += 1

    qualifying = successes = 0
    by_dev: dict[str, dict[str, dict[int, float]]] = {}
    for (developer, project), points in dev.items():
        by_dev.setdefault(developer, {})[project] = points
    for projects in by_dev.values():
        ordered = sorted(projects)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                common = set(projects[a]) & set(projects[b]) & set(ccp[a]) & set(ccp[b])
                for y in common:
                    gap = -(ccp[a][y] - ccp[b][y])
                    if gap == 0:
                        continue
                    better, worse = (a, b) if gap > 0 else (b, a)
                    qualifying += 1
                    successes += -(projects[better][y] - projects[worse][y]) > 0

    def series_csv(series: dict[str, dict[int, float]]) -> str:
        return "entity,year,value\n" + "".join(
            f"{e},{y},{v!r}\n" for e, points in series.items() for y, v in points.items()
        )

    ccp_path = _write(out_dir / "ccp.csv", series_csv(ccp))
    speed_path = _write(out_dir / "speed.csv", series_csv(speed))
    dev_path = _write(
        out_dir / "dev.csv",
        "developer,project,year,value\n"
        + "".join(
            f"{dv},{p},{y},{v!r}\n" for (dv, p), points in dev.items() for y, v in points.items()
        ),
    )
    ccp_rows = sum(len(p) for p in ccp.values())
    speed_rows = sum(len(p) for p in speed.values())
    return {
        "workload": "cross-project-stats",
        "calls": [
            ["cochange", "--series-i", ccp_path, "--series-j", speed_path,
             "--sign-i", "-1", "--sign-j", "1"],
            ["twin", "--dev-series", dev_path, "--project-series", ccp_path, "--sign", "-1"],
        ],
        "records": 2 * ccp_rows + speed_rows + rows,
        "classify_records": 0,
        "truth": {
            "kind": "stats",
            "cochange": {"n": n, "n_i": n_i, "n_j": n_j, "n_ij": n_ij, "matches": matches},
            "twin": {"qualifying": qualifying, "successes": successes},
        },
    }


MAKERS = {
    "repo-history": make_repo_history,
    "corpus-selection": make_corpus_selection,
    "model-validation": make_model_validation,
    "cross-project-stats": make_cross_project_stats,
}


def generate(workload: str, out_dir: Path, seed: int, **sizes) -> dict:
    """Write the inputs of ``workload`` into ``out_dir`` and return its job spec."""
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = MAKERS[workload](out_dir, seed, **sizes)
    spec["seed"] = seed
    return spec
