"""One sha256 over the `solve` JSON reports of every 3-block shape with k2 >= 2.

    PYTHONPATH=src python tools/solve_digest.py 10

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
"""

from __future__ import annotations

import hashlib
import io
import sys
import time
from contextlib import redirect_stdout

from stiefel_einstein.cli import main


def shapes(n_max: int) -> list[tuple[int, int, int]]:
    return [(k1, k2, n - k1 - k2) for n in range(4, n_max + 1)
            for k1 in range(1, n - 2) for k2 in range(2, n - k1)]


def report(shape: tuple[int, int, int]) -> str:
    """The text that `solve --blocks k1,k2,k3 --format json` writes."""
    with redirect_stdout(io.StringIO()) as out:
        if main(["solve", "--blocks", ",".join(map(str, shape)), "--format", "json"]):
            raise SystemExit(f"solve failed on {shape}")
    return out.getvalue()


def digests(n_max: int) -> dict[int, str]:
    """{m: the sha256 of the solve reports of shapes(m), one after another}
    for 4 <= m <= n_max, from one pass: shapes(m) begins shapes(n_max)."""
    sha, out = hashlib.sha256(), {}
    for shape in shapes(n_max):
        sha.update(report(shape).encode())
        out[sum(shape)] = sha.hexdigest()
    return out


if __name__ == "__main__":
    start, n_max = time.perf_counter(), int(sys.argv[1])
    digest = digests(n_max)[n_max]
    print(len(shapes(n_max)), digest, f"{time.perf_counter() - start:.1f} s")
