"""One workload run in a fresh interpreter; started by run.py.

Measures set-up (importing the package and building the CLI parser), runs
the workload's operations back to back in passes, then checks every report.
Prints one JSON line with the raw measurements.

    python3 bench/child.py --setup-only
    python3 bench/child.py --workload W --seconds S --budget B
    python3 bench/child.py --workload W --seconds 0 --budget B --trace 1 --spans FILE

Passes repeat while the next one is expected to end within --seconds; the
first pass always runs, so --seconds 0 gives exactly one.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


class OpDeadline(BaseException):
    """Raised by the alarm when an operation passes its deadline; a
    BaseException so that the program's own handlers do not swallow it."""


def _alarm(signum, frame):
    raise OpDeadline


def run_op(main, op, limit: float):
    """Run one operation; returns (report text, error or None)."""
    if limit <= 0:
        return "", "not started: the run's time budget was spent"
    out = io.StringIO()
    error = None
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(list(op.argv))
        if rc != 0:
            error = f"exit code {rc}"
    except OpDeadline:
        error = f"passed its deadline of {limit:.1f} s"
    except SystemExit as exc:
        error = f"exit code {exc.code}"
    except Exception as exc:  # noqa: BLE001 - every raise is a counted failure
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return out.getvalue(), error


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--budget", type=float, default=150.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", help="write the traced spans to this file")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    from stiefel_einstein import cli

    cli.build_parser()
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from verify import check_report, recertifier
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload]
    budget_end = _START + args.budget
    signal.signal(signal.SIGALRM, _alarm)
    tracer = None
    call = cli.main
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

        def call(argv):
            return tracer.call("cli.main", cli.main, argv)

    passes = []  # (wall seconds, [(op, report text, error or None)])
    while True:
        results = []
        if tracer:
            tracer.recording = True
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = i
            limit = min(op.deadline_s, budget_end - time.perf_counter())
            results.append((op, *run_op(call, op, limit)))
        wall = time.perf_counter() - t0
        if tracer:
            tracer.recording = False
        passes.append((wall, results))
        walls = [p[0] for p in passes]
        typical = statistics.median(walls)
        if sum(walls) + typical > args.seconds:
            break
        if time.perf_counter() + typical > budget_end:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    recertify = recertifier(cli.main)
    attempted = failed = wrong = 0
    failures: list[str] = []
    found_per_pass = []
    checked = {}  # repeated passes return identical reports; check each once
    for _, results in passes:
        found = 0
        for op, text, error in results:
            attempted += 1
            if error is not None:
                failed += 1
                failures.append(f"{op.blocks}: {error}")
                continue
            if (op, text) not in checked:
                checked[op, text] = check_report(args.workload, op, text, recertify)
            check = checked[op, text]
            found += check.found
            if check.problems:
                failed += 1
                wrong += 1
                failures += check.problems
        found_per_pass.append(found)

    out = {
        "setup_s": setup_s,
        "walls": [p[0] for p in passes],
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "failures": failures[:20],
        "metrics_found": min(found_per_pass),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        from tracing import layer_metrics

        out["layers"] = layer_metrics(tracer.spans)
        out["absent"] = tracer.absent
        out["observe_errors"] = tracer.observe_errors
        if args.spans:
            meta = {"workload": args.workload, "seed": args.seed, "absent": tracer.absent,
                    "observe_errors": tracer.observe_errors}
            tracer.write(args.spans, _START, meta)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
