"""Independent checks of each report against the reference data.

Every returned solution is re-certified through the public ``certify``
command at 1e-10 and must match one reference metric of its shape and
classification.  Reference metrics that no solution matches are missing:
that is a completeness count, not a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

from workloads import Op

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())
CERTIFY_TOL = "1e-10"


@dataclass
class Check:
    """Outcome of checking one report."""

    problems: list[str]
    found: int


def reference_count(workload: str, op: Op) -> int:
    return len(REFERENCE[workload]["shapes"][op.blocks])


def recertifier(main):
    """Re-certify a reported solution with the CLI's ``certify`` command;
    returns the classification it certifies as, or None if rejected."""

    def recertify(blocks: str, coords: dict[str, float]) -> str | None:
        spec = ",".join(f"{k}={v!r}" for k, v in sorted(coords.items()))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(["certify", "--blocks", blocks, "--coords", spec,
                       "--tol", CERTIFY_TOL])
        verdict = json.loads(out.getvalue())
        return verdict.get("classification") if rc == 0 and verdict["accepted"] else None

    return recertify


def _sweep_problems(entry: dict, new_x13: list[float]) -> list[str]:
    n = entry["n"]
    problems = []
    xs = sorted(new_x13)
    if not (len(xs) == 2 and 0 < xs[0] < 1 < xs[1] < 2):
        problems.append(f"n={n}: New x13 values {xs} are not 0 < a < 1 < b < 2")
    pos = entry["positivity"]
    if not (pos["h1_at_0"] > 0 and pos["h1_at_1"] < 0 and pos["h1_at_2"] > 0):
        problems.append(f"n={n}: h1 sign pattern broken: {pos}")
    brackets = entry["brackets"]
    if not brackets:
        problems.append(f"n={n}: no bracket report")
    bad = sorted(name for name, b in brackets.items() if b["ok"] is not True)
    if bad:
        problems.append(f"n={n}: brackets not ok: {bad}")
    return problems


def check_report(workload: str, op: Op, text: str, recertify) -> Check:
    """Check one report; ``problems`` lists every disagreement found."""
    ref = REFERENCE[workload]
    expected = ref["shapes"][op.blocks]
    tol = ref["tol"]
    problems: list[str] = []
    try:
        report = json.loads(text)
        if op.n is None:
            entry = None
            solutions = report["solutions"]
        else:
            entries = report["sweep"]
            if len(entries) != 1 or entries[0]["n"] != op.n:
                return Check([f"sweep report does not cover exactly n={op.n}"], 0)
            entry = entries[0]
            solutions = entry["solutions"]
        matched = [False] * len(expected)
        new_x13 = []
        for sol in solutions:
            cls, coords = sol["classification"], sol["coords"]
            if cls == "New":
                new_x13.append(coords["x13"])
            verdict = recertify(op.blocks, coords)
            if verdict != cls:
                problems.append(f"{op.blocks}: {cls} {coords} re-certifies as {verdict}")
            hit = next(
                (
                    i for i, e in enumerate(expected)
                    if not matched[i] and e["classification"] == cls
                    and all(abs(coords[k] - v) <= tol for k, v in e["coords"].items())
                ),
                None,
            )
            if hit is None:
                problems.append(f"{op.blocks}: {cls} {coords} matches no reference metric")
            else:
                matched[hit] = True
        if entry is not None:
            problems += _sweep_problems(entry, new_x13)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Check([f"{op.blocks}: malformed report: {exc!r}"], 0)
    return Check(problems, sum(matched))
