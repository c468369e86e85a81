"""The benchmark's workloads: fixed shapes from the paper, one operation per
solved shape.

Each operation is one in-process call to ``stiefel_einstein.cli.main`` with
default options.  The workload seed never reaches the program: the inputs
are the paper's shapes, so every run solves the same systems.

Why these workloads:

* ``sweep-v4`` is the paper's V4 R^n family through blocks (1,3,n-4),
  n = 6..30: many small systems.  The Groebner probe succeeds, resultants
  are unused, and Newton, certify, Ricci and ``build_system`` carry the time.
* ``solve-232`` is V5 R^7 through (2,3,2).  The probe overflows, and the
  resultant fallback gives an eliminant of degree 120 (square-free 24).
* ``solve-243`` is dominated by the univariate layer (4 positive roots,
  seconds of bisection each) and carries the known completeness defect:
  one certifiable New metric is missed.

The (3,3,2) default solve is not a workload: it does not finish (more than
14 minutes), so it would spend every run's whole deadline.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One call to ``cli.main`` and the shape its report covers."""

    argv: tuple[str, ...]
    blocks: str
    n: int | None
    deadline_s: float


SWEEP_N = range(6, 31)

WORKLOADS: dict[str, list[Op]] = {
    "sweep-v4": [
        Op(
            ("sweep", "--blocks", "1,3,R", "--n", str(n), "--format", "json",
             "--workers", "1"),
            f"1,3,{n - 4}",
            n,
            30.0,
        )
        for n in SWEEP_N
    ],
    "solve-232": [Op(("solve", "--blocks", "2,3,2"), "2,3,2", None, 90.0)],
    "solve-243": [Op(("solve", "--blocks", "2,4,3"), "2,4,3", None, 150.0)],
}
