"""Fresh-process side of the benchmark.

    python3 perfbench/worker.py setup
        Import ccp_miner and build cli.RunConfig; print the seconds it took.
    python3 perfbench/worker.py run SPEC RESULT --seconds S --trace 0|1
        Run the job in SPEC back to back through cli.main until S seconds
        have passed, check every report, and write the job timings, the
        peak RSS and (with --trace 1) the spans next to RESULT.

The first job is a warm-up. With --trace 1 the jobs after it alternate
untraced and traced, so one run gives both sides of the tracing overhead.
Only the standard library is imported before the setup clock starts.
"""

import sys
import time


def setup_probe() -> None:
    start = time.perf_counter()
    from ccp_miner import cli

    cli.RunConfig(cli.build_parser().parse_args(["rank", "--ccp", "0.2"]))
    elapsed = time.perf_counter() - start
    print(repr(elapsed), cli.__file__)


def run(spec_path: str, result_path: str, seconds: float, trace: bool) -> None:
    import contextlib
    import gc
    import io
    import json
    import resource

    import checks
    import spans
    from ccp_miner import cli

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = spans.Tracer() if trace else None
    jobs = []
    first_report = None
    deadline = time.perf_counter() + seconds
    while True:
        index = len(jobs)
        traced = trace and index >= 2 and index % 2 == 0
        if traced:
            tracer.job = index
            tracer.install()
        gc.collect()
        outputs, codes, elapsed = [], [], 0.0
        for argv in spec["calls"]:
            buffer = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(list(argv))
            elapsed += time.perf_counter() - start
            codes.append(code)
            outputs.append(buffer.getvalue())
        if traced:
            tracer.uninstall()

        report = "".join(outputs)
        error = None
        if any(codes):
            error = f"exit codes {codes}"
        elif first_report is not None and report != first_report:
            error = "report differs from the first repetition"
        else:
            first_report = report
            try:
                checks.check_job([json.loads(o) for o in outputs], spec["truth"])
            except (checks.CheckError, ValueError, KeyError, TypeError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error:
            print(f"job {index} failed: {error}", file=sys.stderr)
        jobs.append(
            {
                "index": index,
                "seconds": elapsed,
                "warmup": index == 0,
                "traced": traced,
                "report_bytes": len(report.encode()),
                "error": error,
            }
        )
        timed = [j for j in jobs if not j["warmup"]]
        enough = any(not j["traced"] for j in timed) and (
            not trace or any(j["traced"] for j in timed)
        )
        if enough and time.perf_counter() >= deadline:
            break

    if tracer is not None:
        tracer.write(result_path + ".spans")
    result = {
        "jobs": jobs,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": cli.__file__,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        setup_probe()
        return 0
    if len(argv) == 7 and argv[0] == "run" and argv[3] == "--seconds" and argv[5] == "--trace":
        run(argv[1], argv[2], float(argv[4]), argv[6] == "1")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
