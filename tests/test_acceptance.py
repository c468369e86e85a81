"""Acceptance suite: one test per release criterion.

Each test prints a single ``CRITERION k: PASS`` line when it succeeds (run
with ``-s`` or read the captured output); a pytest failure is the FAIL line.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import pytest

from stiefel_einstein.fixtures import (
    h2_coeffs,
    h3_coeffs,
    jensen_x2,
    jensen_x2_142,
    v5r7_232_h1_coeffs,
    v5r7_142_h2_coeffs,
)
from stiefel_einstein.polyalg import (
    alternating_sign_check,
    count_real_roots,
    eliminate_resultant,
)
from stiefel_einstein.ricci import (
    InvariantMetric,
    ricci,
    ricci_general,
    ricci_specialized,
)
from stiefel_einstein.so_algebra import (
    BlockDecomposition,
    Diag,
    OffDiag,
    bracket,
)
from stiefel_einstein.solver import (
    bracket_report,
    build_system,
    groebner_eliminant,
    positivity_report,
    solve,
    sweep,
)
from stiefel_einstein.triples import (
    dims,
    triples_bruteforce,
    triples_closed_form,
)

from helpers import divides, times_x_minus_1, univariate

SWEEP_RANGE = list(range(6, 31))


@pytest.fixture(scope="module")
def sweep_results():
    return sweep(SWEEP_RANGE)


def _report(num: int, detail: str) -> None:
    print(f"CRITERION {num}: PASS — {detail}")


def test_criterion_1_triple_oracle_equivalence():
    start = time.monotonic()
    shapes = 0
    for k1, k2, k3 in itertools.product(range(1, 5), range(1, 5), range(1, 5)):
        if not (k1 <= k2 and 4 <= k1 + k2 + k3 <= 12):
            continue
        d = BlockDecomposition((k1, k2, k3))
        brute = triples_bruteforce(d)
        closed = triples_closed_form(d)
        labels = closed.labels()
        for i, j, k in itertools.product(labels, repeat=3):
            assert brute.value(i, j, k) == closed.value(i, j, k), (k1, k2, k3)
        shapes += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"triple oracle sweep took {elapsed:.1f}s"
    _report(1, f"{shapes} shapes, brute force = closed form, {elapsed:.1f}s")


def test_criterion_2_jensen_certification():
    start = time.monotonic()
    worst = Fraction(0)
    for n in range(6, 21):
        d = BlockDecomposition((1, 3, n - 4))
        for x in jensen_x2(n):
            coords = {
                Diag(2): x, OffDiag(1, 2): x,
                OffDiag(1, 3): Fraction(1), OffDiag(2, 3): Fraction(1),
            }
            res = ricci(InvariantMetric(d, coords)).residual()
            worst = max(worst, res)
    d = BlockDecomposition((1, 4, 2))
    for x in jensen_x2_142():
        coords = {
            Diag(2): x, OffDiag(1, 2): x,
            OffDiag(1, 3): Fraction(1), OffDiag(2, 3): Fraction(1),
        }
        res = ricci(InvariantMetric(d, coords)).residual()
        worst = max(worst, res)
    elapsed = time.monotonic() - start
    assert worst < Fraction(1, 10**12)
    assert elapsed < 1, f"certification took {elapsed:.2f}s"
    _report(2, f"max residual {float(worst):.2e} over n=6..20 and (1,4,2), {elapsed:.2f}s")


def test_criterion_3_v5r7_142_exact_eliminant():
    start = time.monotonic()
    system = build_system(BlockDecomposition((1, 4, 2)))
    # route 1: saturated Groebner eliminant must equal h2 integer-for-integer
    coeffs = groebner_eliminant(system)
    h2 = v5r7_142_h2_coeffs()
    assert len(coeffs) == len(h2)
    ratio = coeffs[-1] / h2[-1]
    assert ratio > 0
    assert all(a == ratio * b for a, b in zip(coeffs, h2))
    # route 2: the unsaturated resultant eliminant contains (x13 - 1) * h2
    raw, _, _ = eliminate_resultant(system.polys, system.variables, "x13")
    raw_coeffs = univariate(raw, system.variables.index("x13"))
    assert divides(times_x_minus_1(h2), raw_coeffs)
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"(1,4,2) elimination took {elapsed:.1f}s"
    _report(3, f"eliminant = (x13-1)*h2 with exact integer match, {elapsed:.1f}s")


def test_criterion_4_v5r7_232_eliminant_divisibility():
    start = time.monotonic()
    system = build_system(BlockDecomposition((2, 3, 2)))
    raw, _, _ = eliminate_resultant(system.polys, system.variables, "x13")
    raw_coeffs = univariate(raw, system.variables.index("x13"))
    assert divides(times_x_minus_1(v5r7_232_h1_coeffs()), raw_coeffs)
    elapsed = time.monotonic() - start
    assert elapsed < 1800, f"(2,3,2) elimination took {elapsed:.1f}s"
    _report(4, f"eliminant divisible by (x13-1)*h1 (degree 22), {elapsed:.1f}s")


def test_criterion_5_new_metric_reproduction():
    sols = solve(build_system(BlockDecomposition((1, 4, 2))))
    new = sorted(
        (s for s in sols if s.classification == "New"),
        key=lambda s: s.coords[OffDiag(1, 3)],
    )
    assert len(new) == 2
    tables = [
        {OffDiag(1, 3): 0.253386, OffDiag(1, 2): 1.01652, Diag(2): 0.245146},
        {OffDiag(1, 3): 1.16137, OffDiag(1, 2): 0.669071, Diag(2): 0.291175},
    ]
    for s, table in zip(new, tables):
        for lbl, want in table.items():
            assert abs(s.coords[lbl] - want) < 1e-5, (lbl, s.coords[lbl], want)
    sols = solve(build_system(BlockDecomposition((2, 3, 2))))
    new = sorted(
        (s for s in sols if s.classification == "New"),
        key=lambda s: s.coords[OffDiag(1, 3)],
    )
    assert len(new) == 2
    tables = [
        {OffDiag(1, 3): 0.350124, OffDiag(1, 2): 1.03223,
         Diag(1): 0.455639, Diag(2): 0.121264},
        {OffDiag(1, 3): 1.13934, OffDiag(1, 2): 0.620201,
         Diag(1): 0.831771, Diag(2): 0.149407},
    ]
    for s, table in zip(new, tables):
        for lbl, want in table.items():
            assert abs(s.coords[lbl] - want) < 1e-5, (lbl, s.coords[lbl], want)
    _report(5, "both new metrics on (1,4,2) and (2,3,2) within 1e-5 of tables")


def test_criterion_6_family_sweep(sweep_results):
    rows = {r.n: r for r in positivity_report(SWEEP_RANGE)}
    for n in SWEEP_RANGE:
        sols = sweep_results[n]
        jensen = [s for s in sols if s.classification == "Jensen"]
        new = [s for s in sols if s.classification == "New"]
        assert len(jensen) == 2, n
        assert all(s.coords[OffDiag(1, 3)] == 1 for s in jensen), n
        assert len(new) == 2, n
        x13s = sorted(s.coords[OffDiag(1, 3)] for s in new)
        assert 0 < x13s[0] < 1 < x13s[1] < 2, (n, x13s)
        assert all(s.residual < 1e-10 for s in new), n
        row = rows[n]
        assert row.h1_at_0 > 0 and row.h1_at_1 < 0 and row.h1_at_2 > 0, n
    _report(6, f"n=6..30: 2 Jensen + 2 new certified solutions, h1 signs hold")


def test_criterion_7_asymptotic_brackets(sweep_results):
    checked = 0
    for n in SWEEP_RANGE:
        report = bracket_report(n, sweep_results[n])
        for name, entry in report.items():
            assert entry["ok"], (n, name, entry)
            if entry["lo"] is not None or entry["hi"] is not None:
                checked += 1
    assert checked > 0
    _report(7, f"{checked} applicable bracket checks hold over n=6..30")


def test_criterion_8_alternating_sign_certificates():
    for n in range(6, 51):
        assert alternating_sign_check(h2_coeffs(n)), n
        assert alternating_sign_check(h3_coeffs(n)), n
    _report(8, "h2 and h3 alternate in sign for every n=6..50")


def test_criterion_9_property_suites():
    import random
    from itertools import combinations

    # Jacobi identity for n <= 8
    for n in range(4, 9):
        blocks = (1, 3, n - 4) if n > 4 else (1, 2, 1)
        basis = BlockDecomposition(blocks).basis()
        for x, y, z in combinations(basis, 3):
            total: dict = {}
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                inner = bracket(b, c)
                if inner is None:
                    continue
                s, e = inner
                outer = bracket(a, e)
                if outer is None:
                    continue
                t, f = outer
                total[f] = total.get(f, 0) + s * t
            assert all(v == 0 for v in total.values())
    # antisymmetry
    basis = BlockDecomposition((2, 3, 2)).basis()
    for x, y in combinations(basis, 2):
        xy, yx = bracket(x, y), bracket(y, x)
        assert (xy is None) == (yx is None)
        if xy is not None:
            assert yx == (-xy[0], xy[1])
    # scaling covariance and specialized-vs-general on random rational metrics
    rng = random.Random(2026)
    for blocks in ((1, 3, 2), (1, 4, 3), (2, 3, 2), (3, 4, 2)):
        d = BlockDecomposition(blocks)
        table = triples_closed_form(d)
        for _ in range(50):
            coeffs = {
                lbl: Fraction(rng.randint(1, 30), rng.randint(1, 30))
                for lbl in dims(d)
            }
            metric = InvariantMetric(d, coeffs)
            rg = ricci_general(table, metric).values
            assert rg == ricci_specialized(d, metric).values
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            rt = ricci_general(table, metric.scaled(t)).values
            assert all(rt[lbl] == rg[lbl] / t for lbl in rg)
    # Sturm exactness on constructed polynomials with known root counts
    def poly_from_roots(roots):
        coeffs = [Fraction(1)]
        for r in roots:
            coeffs = [Fraction(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        return coeffs

    rng = random.Random(7)
    for _ in range(25):
        roots = sorted(
            {Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(5)}
        )
        p = poly_from_roots(roots)
        assert count_real_roots(p) == len(roots)
        lo = roots[0] - 1
        for r in roots:
            assert count_real_roots(p, lo=lo, hi=r) == roots.index(r) + 1
    _report(9, "Jacobi, antisymmetry, scaling, dual-route Ricci, Sturm counts")
