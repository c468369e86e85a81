"""One sha256 over the `solve` JSON reports of every 3-block shape with k2 >= 2,
or over their x13-eliminations.

    PYTHONPATH=src python tools/solve_digest.py 10
    PYTHONPATH=src python tools/solve_digest.py --eliminations 16

Each report holds the bytes that `stiefel-einstein solve --blocks k1,k2,k3
--format json` writes, made in-process through `cli.main`.  Shapes with
k1, k3 >= 1, k2 >= 2 and k1 + k2 + k3 <= N (84 for N = 10, 165 for N = 12)
are taken in the order (n, k1, k2), and their reports are hashed one after
another; one pass gives the digest of every smaller N too.  Prints the shape
count, the digest and the wall time.

Reference digests, for checking a change to isolation or refinement on
more shapes than the tests pin:

    N = 12: 165 a0f90e79aca911b08acd538268be67cf17aac3c90816ba151ce31d075e46576b
    N = 14: 286 1bb2911cc23b1f76a9f9e47039490a0815a23a79a5c350317b6ea7b9f78a47cb

With --eliminations it hashes, in the same order, the text of what
`resultants.eliminate_resultant` returns for x13 on each shape's Einstein
system (see elimination): the check for a change to the resultant kernel.
Reference digest, as computed before the windows took the factors y - 1 and
y + 1 of the last resultant:

    N = 16: 455 abffe10ec0abefdc3740abd5f5fcaea04defc819cd7dc477f38e41e7619c29bf
"""

from __future__ import annotations

import hashlib
import io
import sys
import time
from contextlib import redirect_stdout

from stiefel_einstein.cli import main
from stiefel_einstein.polyalg import eliminate_resultant
from stiefel_einstein.so_algebra import BlockDecomposition
from stiefel_einstein.solver import build_system


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


if __name__ == "__main__":
    start, flag, n_max = time.perf_counter(), sys.argv[1:-1], int(sys.argv[-1])
    if flag not in ([], ["--eliminations"]):
        raise SystemExit("usage: solve_digest.py [--eliminations] N")
    digest = digests(n_max, elimination if flag else report)[n_max]
    print(len(shapes(n_max)), digest, f"{time.perf_counter() - start:.1f} s")
