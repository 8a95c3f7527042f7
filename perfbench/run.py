"""ccp-miner benchmark: one seeded workload, checked reports, one JSON line.

    python3 perfbench/run.py --workload repo-history --seed 1 --seconds 25 --trace 0

Run it from the root of a ccp-miner source tree; the program is imported
from ./src, and the metric names and units come from ./BENCHMARK.json.
The run generates the workload's inputs from the seed under
./.perfbench_work, starts fresh processes to time set-up, then one worker
process that runs the job back to back (one client, closed loop) through
``ccp_miner.cli.main`` for the given seconds and checks every report.
The last line of standard output is the result; the lines before it and
standard error are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import spans

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5  # after one discarded probe that may compile bytecode
TIME_LIMIT_S = 175


def _probe_setup(env: dict, src: Path) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "setup"],
        env=env, check=True, capture_output=True, text=True, timeout=60,
    ).stdout.split()
    _require_module(out[1], src)
    return float(out[0])


def _require_module(path: str, src: Path) -> None:
    if not Path(path).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"ccp_miner was imported from {path}, not from {src}")


def layer_metrics(jobs: list[dict], spans_path: str, classify_records: int, names: list[str]) -> dict:
    """Per-layer metrics: medians over the traced jobs of their span totals."""
    traced = [j for j in jobs if j["traced"]]
    untraced = [j["seconds"] for j in jobs if not j["traced"] and not j["warmup"]]
    totals = spans.job_totals(spans.read_spans(spans_path))
    per_job = {}
    for job in traced:
        values = dict(totals[job["index"]])
        values["cli.report_bytes"] = job["report_bytes"]
        messages = values.get("classifier.messages", 0)
        values["classifier.calls_per_record"] = messages / classify_records if classify_records else 0.0
        per_job[job["index"]] = values
    metrics = spans.median_over_jobs(per_job, [n for n in names if n != "trace.overhead_ratio"])
    metrics["trace.overhead_ratio"] = (
        statistics.median(j["seconds"] for j in traced) / statistics.median(untraced) - 1.0
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = time.monotonic()
    root = Path.cwd()
    src = root / "src"
    if not (src / "ccp_miner" / "__init__.py").is_file():
        print("perfbench: no src/ccp_miner here; run from the root of the source tree",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = declared["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env.pop("CCP_MINER_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        spec = gen.generate(args.workload, work, args.seed)
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        setup = [_probe_setup(env, src) for _ in range(SETUP_PROBES + 1)][1:]

        result_path = str(work / "result.json")
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "run", str(spec_path), result_path,
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, check=True, stdout=sys.stderr,
            timeout=TIME_LIMIT_S - (time.monotonic() - began),
        )
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        _require_module(result["module"], src)
        jobs = result["jobs"]

        if args.trace:
            values = layer_metrics(
                jobs, result_path + ".spans", spec["classify_records"],
                [m["name"] for m in section],
            )
        else:
            timed = [j["seconds"] for j in jobs if not j["warmup"]]
            values = {
                "records_per_s": spec["records"] / statistics.median(timed),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": result["peak_rss_kib"] / 1024,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = sum(1 for j in jobs if j["error"])
    timed_count = sum(1 for j in jobs if not j["warmup"])
    print(f"# {args.workload} seed {args.seed}: {len(jobs)} jobs ({timed_count} timed after "
          f"1 warm-up), {spec['records']} records per job, trace {args.trace}")
    print("#   job seconds: " + " ".join(
        f"{j['seconds']:.3f}{'w' if j['warmup'] else 't' if j['traced'] else ''}" for j in jobs))
    metrics = {}
    for m in section:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"#   {m['name']:32s} {values[m['name']]:.6g} {m['unit']}")
    print(f"#   {'job_fail_ratio':32s} {failed / len(jobs):.6g} ratio ({failed}/{len(jobs)})")
    if args.trace:
        job_s = statistics.median(j["seconds"] for j in jobs if j["traced"])
        for name in sorted(n for n in values if n.endswith("_s")):
            print(f"#   share of traced job time  {name:28s} {values[name] / job_s:7.1%}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
