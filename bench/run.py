"""Benchmark of the exact Einstein-metric pipeline.

    python3 bench/run.py --workload sweep-v4 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads are listed in ``bench/workloads.py``.  Each run starts fresh
interpreters with one BLAS/OpenMP thread each.  With ``--trace 0``: a few
that only import the package and build the CLI parser (set-up time), then
one that runs the workload's operations in passes and checks every report.
With ``--trace 1``: an untraced and a traced interpreter that each run one
pass; the per-layer metrics come from the traced one, and the difference of
the two pass times is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Spans of the traced pass are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from verify import reference_count
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
RUN_BUDGET_S = 170.0  # the whole run ends within 180 s
VERIFY_RESERVE_S = 10.0  # left to a child for checking reports after its passes


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def _run_child(args: list[str], timeout: float) -> dict | None:
    """Run child.py to completion; None if it failed or passed the timeout
    (``subprocess.run`` kills it and waits for it to end)."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"child passed its {timeout:.0f} s timeout", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"child exited {proc.returncode}:\n{proc.stderr[-3000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _workload_run(workload: str, seconds: int, trace: int, budget: float,
                  extra: list[str]) -> dict:
    """One child running the workload; a child that ends without a result
    counts every operation as failed."""
    t0 = time.monotonic()
    res = _run_child(
        ["--workload", workload, "--seconds", str(seconds), "--trace", str(trace),
         "--budget", f"{budget - VERIFY_RESERVE_S:.1f}", *extra],
        timeout=budget,
    )
    if res is not None:
        return res
    n = len(WORKLOADS[workload])
    return {
        "walls": [time.monotonic() - t0], "attempted": n, "failed": n, "wrong": 1,
        "failures": ["child ended without a result"], "metrics_found": 0,
        "peak_rss_mb": 0.0, "layers": {},
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded only: the inputs are fixed shapes")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    start = time.monotonic()
    if not (ROOT / "src" / "stiefel_einstein" / "cli.py").is_file():
        print(f"no package at {ROOT / 'src' / 'stiefel_einstein'}", file=sys.stderr)
        return 2

    def remaining() -> float:
        return RUN_BUDGET_S - (time.monotonic() - start)

    if args.trace:
        base = _workload_run(args.workload, 0, 0, remaining() / 2, [])
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        traced = _workload_run(
            args.workload, 0, 1, remaining(),
            ["--spans", str(spans), "--seed", str(args.seed)],
        )
        runs = [base, traced]
        expected = sum(reference_count(args.workload, op) for op in WORKLOADS[args.workload])
        metrics = {
            name: _metric(value, tracing.unit(name))
            for name, value in sorted(traced.get("layers", {}).items())
        }
        metrics.update({
            "trace.overhead_s": _metric(traced["walls"][0] - base["walls"][0], "s"),
            "trace.hooks_absent": _metric(len(traced.get("absent", [])), "count"),
            "fail_ratio": _metric((base["failed"] + traced["failed"])
                                  / (base["attempted"] + traced["attempted"]), "ratio"),
            "metrics_missing": _metric(
                expected - min(base["metrics_found"], traced["metrics_found"]), "count"),
        })
        for name in traced.get("absent", []):
            print(f"hook absent: {name}", file=sys.stderr)
        if traced.get("observe_errors"):
            print(f"{traced['observe_errors']} hooked calls returned values of an "
                  "unexpected shape; their counters are missing", file=sys.stderr)
    else:
        setups = []
        for _ in range(SETUP_PROBES):
            res = _run_child(["--setup-only"], timeout=60)
            if res is None:
                print("the package could not be imported", file=sys.stderr)
                return 1
            setups.append(res["setup_s"])
        res = _workload_run(args.workload, args.seconds, 0, remaining(), [])
        runs = [res]
        if "setup_s" in res:
            setups.append(res["setup_s"])
        metrics = {
            "wall_s": _metric(statistics.median(res["walls"]), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
            "success_ratio": _metric(1 - res["failed"] / res["attempted"], "ratio"),
            "metrics_found": _metric(res["metrics_found"], "count"),
        }

    for r in runs:
        for line in r["failures"]:
            print(f"failure: {line}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={[len(r['walls']) for r in runs]}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": all(r["wrong"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
