"""One sha256 over the `solve` JSON reports of every 3-block shape with k2 >= 2,
or over their x13-eliminations; or a dump of those reports, and a comparison
of two dumps.

    PYTHONPATH=src python tools/solve_digest.py 10
    PYTHONPATH=src python tools/solve_digest.py --eliminations 16
    PYTHONPATH=src python tools/solve_digest.py --dump 16 after.json
    PYTHONPATH=src python tools/solve_digest.py --compare before.json after.json

Each report holds the bytes that `stiefel-einstein solve --blocks k1,k2,k3
--format json` writes, made in-process through `cli.main`.  Shapes with
k1, k3 >= 1, k2 >= 2 and k1 + k2 + k3 <= N (84 for N = 10, 165 for N = 12)
are taken in the order (n, k1, k2), and their reports are hashed one after
another; one pass gives the digest of every smaller N too.  Prints the shape
count, the digest and the wall time.

Reference digests, for checking a change to isolation or refinement on
more shapes than the tests pin:

    N = 12: 165 43195b7afaddba073c147137105609297f0f62669a989e67d95435b9dd9ecb7c
    N = 14: 286 c11c37c56a24392104b88969770811e1c9295303221daabc9a0d16e6c369a993

With --eliminations it hashes, in the same order, the text of what
`resultants.eliminate_resultant` returns for x13 on each shape's Einstein
system (see elimination): the check for a change to the resultant kernel.
Reference digest, as computed before the windows took the factors y - 1 and
y + 1 of the last resultant:

    N = 16: 455 abffe10ec0abefdc3740abd5f5fcaea04defc819cd7dc477f38e41e7619c29bf

--dump N PATH prints what N alone prints and also writes PATH, a JSON object
{"k1,k2,k3": the parsed report} over the same shapes.  --compare A B checks
that dump B agrees with dump A wherever a change to root isolation or
refinement must leave a report alone: the same shapes, and in each the same
solutions in the same order with equal fields, except that coordinates may
move by COORD_RTOL relatively, each interval must overlap its old one, and
each residual must stay within solver.CERTIFY_TOL.  It prints every
disagreement, then how many residuals, intervals and printed coordinates
changed, and exits 1 on a disagreement.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from stiefel_einstein.cli import main
from stiefel_einstein.polyalg import eliminate_resultant
from stiefel_einstein.so_algebra import BlockDecomposition
from stiefel_einstein.solver import CERTIFY_TOL, build_system

COORD_RTOL = 1e-11


def shapes(n_max: int) -> list[tuple[int, int, int]]:
    return [(k1, k2, n - k1 - k2) for n in range(4, n_max + 1)
            for k1 in range(1, n - 2) for k2 in range(2, n - k1)]


def report(shape: tuple[int, int, int]) -> str:
    """The text that `solve --blocks k1,k2,k3 --format json` writes."""
    with redirect_stdout(io.StringIO()) as out:
        if main(["solve", "--blocks", ",".join(map(str, shape)), "--format", "json"]):
            raise SystemExit(f"solve failed on {shape}")
    return out.getvalue()


def elimination(shape: tuple[int, int, int]) -> str:
    """The repr of the eliminant and the (var, pivot) list that
    eliminate_resultant returns for x13 on the shape's system, each
    polynomial as its sorted (exponents, coefficient) terms."""
    system = build_system(BlockDecomposition(shape))
    elim, pivots = eliminate_resultant(system.polys, system.variables, "x13")
    return repr((sorted(elim.items()), [(var, sorted(h.items())) for var, h in pivots]))


def digests(n_max: int, text=report) -> dict[int, str]:
    """{m: the sha256 of text (the solve report, or the elimination) of each
    of shapes(m), one after another} for 4 <= m <= n_max, from one pass:
    shapes(m) begins shapes(n_max)."""
    sha, out = hashlib.sha256(), {}
    for shape in shapes(n_max):
        sha.update(text(shape).encode())
        out[sum(shape)] = sha.hexdigest()
    return out


def _overlap(a: list, b: list) -> bool:
    """Whether the half-open intervals a and b, each [[p, q], [r, s]] for
    (p/q, r/s], meet."""
    return max(Fraction(*a[0]), Fraction(*b[0])) < min(Fraction(*a[1]), Fraction(*b[1]))


def compare(old: dict, new: dict) -> tuple[list[str], Counter]:
    """The disagreements of dump new with dump old (see --compare), and the
    count of changed residuals, intervals and coordinates."""
    if old.keys() != new.keys():
        return [f"shapes differ: {sorted(old.keys() ^ new.keys())}"], Counter()
    problems, changed = [], Counter()
    for shape, a in old.items():
        b = new[shape]
        if {**a, "solutions": None} != {**b, "solutions": None}:
            problems.append(f"{shape}: report fields differ")
        if len(a["solutions"]) != len(b["solutions"]):
            problems.append(f"{shape}: {len(a['solutions'])} -> {len(b['solutions'])} solutions")
            continue
        for i, (u, v) in enumerate(zip(a["solutions"], b["solutions"])):
            where = f"{shape} solution {i}"
            if u.keys() != v.keys():
                problems.append(f"{where}: fields {sorted(u)} -> {sorted(v)}")
                continue
            for key in sorted(u):
                x, y = u[key], v[key]
                if key == "coords" and x.keys() == y.keys():
                    changed["coordinates"] += sum(x[c] != y[c] for c in x)
                    problems += [f"{where}: {c} {x[c]} -> {y[c]}" for c in x
                                 if abs(x[c] - y[c]) > COORD_RTOL * abs(x[c])]
                elif key == "intervals" and x.keys() == y.keys():
                    changed["intervals"] += sum(x[c] != y[c] for c in x)
                    problems += [f"{where}: {c} interval {y[c]} misses {x[c]}" for c in x
                                 if not _overlap(x[c], y[c])]
                elif key == "residual" and isinstance(y, float):
                    changed["residuals"] += x != y
                    if not y <= CERTIFY_TOL:
                        problems.append(f"{where}: residual {y} above {CERTIFY_TOL}")
                elif x != y:
                    problems.append(f"{where}: {key} {x} -> {y}")
    return problems, changed


if __name__ == "__main__":
    start, args = time.perf_counter(), sys.argv[1:]
    if args[:1] == ["--compare"] and len(args) == 3:
        old, new = (json.loads(Path(path).read_text()) for path in args[1:])
        problems, changed = compare(old, new)
        for problem in problems:
            print(problem)
        print(f"{len(new)} shapes, {sum(len(r['solutions']) for r in new.values())} solutions,"
              f" {len(problems)} disagreements; changed: {changed['residuals']} residuals,"
              f" {changed['intervals']} intervals, {changed['coordinates']} coordinates")
        raise SystemExit(1 if problems else 0)
    if args[:1] == ["--dump"] and len(args) == 3:
        texts: dict[str, str] = {}
        n_max = int(args[1])
        digest = digests(n_max, lambda s: texts.setdefault(",".join(map(str, s)), report(s)))
        Path(args[2]).write_text(json.dumps({k: json.loads(t) for k, t in texts.items()}))
    elif args[:-1] in ([], ["--eliminations"]) and args:
        n_max = int(args[-1])
        digest = digests(n_max, elimination if len(args) == 2 else report)
    else:
        raise SystemExit("usage: solve_digest.py [--eliminations] N | --dump N PATH"
                         " | --compare A B")
    print(len(shapes(n_max)), digest[n_max], f"{time.perf_counter() - start:.1f} s")
