"""Einstein system construction, elimination, certification, and solving."""

from __future__ import annotations

import hashlib
import importlib
import json
import math
from collections import Counter
from fractions import Fraction

import pytest

from stiefel_einstein import cli, solver
from stiefel_einstein.errors import DomainError, UnsupportedShapeError
from stiefel_einstein.fixtures import h1_coeffs, jensen_x2, jensen_x2_142
from stiefel_einstein.polyalg import isolate_real_roots
from stiefel_einstein.ricci import InvariantMetric, ricci, ricci_general
from stiefel_einstein.so_algebra import BlockDecomposition, Diag, ModuleLabel, OffDiag
from stiefel_einstein.solver import (
    EinsteinSolution,
    Rejection,
    _eliminate,
    bracket_report,
    build_system,
    certify,
    groebner_eliminant,
    jensen_points,
    jensen_quadratic,
    positivity_report,
    solve,
    solve_v4,
    sweep,
)
from stiefel_einstein.triples import dims, triples_closed_form

from helpers import assert_isolates, divides, tool, traced_solve


def _proportional(p: dict, q: dict) -> bool:
    """p == c * q for some nonzero rational c, both keyed by the exponents
    of one variable tuple."""
    return set(p) == set(q) and len({Fraction(p[m], q[m]) for m in p}) == 1


# every shape the solver accepts with n <= 9: 56 of them
SHAPES_UP_TO_9 = [(k1, k2, k3) for k1 in range(1, 10) for k2 in range(2, 10)
                  for k3 in range(1, 10) if k1 + k2 + k3 <= 9]
SHAPE_IDS = ["".join(map(str, b)) for b in SHAPES_UP_TO_9]


# frozen reference systems (blocks fixed, normalization x23 = 1); monomials
# keyed by exponents of the system's variable tuple
def _reference_system_k1_eq_1(n: int):
    # variables (x2, x12, x13)
    f1 = {
        (1, 3, 0): -(n - 4), (2, 2, 1): n - 4, (1, 1, 2): n - 4,
        (1, 1, 1): -2 * (n - 2), (1, 1, 0): n - 4, (0, 2, 1): 1, (2, 0, 1): 3,
    }
    f2 = {
        (0, 3, 0): n - 3, (0, 2, 1): -2 * (n - 2), (0, 1, 2): -(n - 5),
        (0, 1, 1): 2 * (n - 2), (0, 1, 0): 3 - n, (1, 2, 1): 2, (1, 0, 1): -2,
    }
    f3 = {
        (0, 1, 1): n - 2, (0, 1, 0): -(n - 2), (0, 2, 0): 1,
        (1, 1, 1): -1, (0, 0, 2): -2, (0, 0, 0): 2,
    }
    return [f1, f2, f3]


def _reference_system_232():
    # variables (x1, x2, x12, x13), n = 7
    g1 = {
        (1, 1, 2, 0): 2, (1, 1, 0, 2): 3, (0, 2, 2, 2): -2,
        (0, 0, 2, 2): -1, (0, 2, 0, 2): -2,
    }
    g2 = {
        (1, 1, 0, 1): 1, (0, 1, 3, 0): -2, (0, 2, 2, 1): 2, (0, 0, 2, 1): 1,
        (0, 1, 1, 2): 2, (0, 1, 1, 1): -10, (0, 1, 1, 0): 2, (0, 2, 0, 1): 4,
    }
    g3 = {
        (1, 0, 0, 1): -1, (0, 0, 3, 0): 4, (0, 1, 2, 1): 2, (0, 0, 2, 1): -10,
        (0, 0, 1, 1): 10, (0, 0, 1, 0): -4, (0, 1, 0, 1): -2,
    }
    g4 = {
        (1, 0, 1, 0): 1, (0, 0, 2, 1): 1, (0, 1, 1, 2): -2, (0, 0, 1, 2): 10,
        (0, 0, 1, 1): -10, (0, 0, 0, 3): -5, (0, 0, 0, 1): 5,
    }
    return [g1, g2, g3, g4]


def _systems_match(polys, refs):
    assert len(polys) == len(refs)
    used = set()
    for p in polys:
        hit = None
        for i, r in enumerate(refs):
            if i not in used and _proportional(p, r):
                hit = i
                break
        assert hit is not None, f"no reference matches {p}"
        used.add(hit)


@pytest.mark.parametrize("n", [6, 9, 13])
def test_build_system_matches_reference_family(n):
    system = build_system(BlockDecomposition((1, 3, n - 4)))
    assert system.variables == ("x2", "x12", "x13")
    _systems_match(system.polys, _reference_system_k1_eq_1(n))


def test_build_system_matches_reference_142():
    # (1, 4, 2) is the n = 7 member of the k1 = 1 closed form with k2 = 4;
    # the fixed reference instance differs only by overall scaling
    system = build_system(BlockDecomposition((1, 4, 2)))
    assert system.variables == ("x2", "x12", "x13")
    refs = [
        {
            (1, 3, 0): -1, (2, 2, 1): 1, (0, 2, 1): 1, (1, 1, 2): 1,
            (1, 1, 1): -5, (1, 1, 0): 1, (2, 0, 1): 2,
        },
        {
            (0, 3, 0): 3, (1, 2, 1): 3, (0, 2, 1): -10, (0, 1, 2): -1,
            (0, 1, 1): 10, (0, 1, 0): -3, (1, 0, 1): -3,
        },
        {
            (0, 2, 0): 3, (1, 1, 1): -3, (0, 1, 1): 10, (0, 1, 0): -10,
            (0, 0, 2): -5, (0, 0, 0): 5,
        },
    ]
    _systems_match(system.polys, refs)


def test_build_system_matches_reference_232():
    system = build_system(BlockDecomposition((2, 3, 2)))
    assert system.variables == ("x1", "x2", "x12", "x13")
    _systems_match(system.polys, _reference_system_232())


def _numerator(f) -> dict:
    """The numerator of f, an element of a sympy rational function field over
    ZZ, as an integer polynomial keyed by exponent tuples ({} when f = 0):
    its content and monomial factor stripped, its lex-leading coefficient
    positive."""
    if not f:
        return {}
    _, num = f.numer.primitive()
    if num.LC < 0:
        num = -num
    low = [min(e) for e in zip(*num.monoms())]
    return {tuple(e - l for e, l in zip(m, low)): int(c) for m, c in num.terms()}


def _symbolic_system(decomp):
    """build_system's polynomials by symbolic Ricci over sympy's field of
    rational functions in the coordinates: the numerators of the chain
    differences."""
    sympy = pytest.importorskip("sympy")
    free = solver._free_labels(decomp)
    variables = tuple(f"x{l.name}" for l in free)
    field, *gens = sympy.field(variables, sympy.ZZ)
    coeffs = dict(zip(free, gens))
    coeffs[OffDiag(2, 3)] = field.one
    r = ricci(InvariantMetric(decomp, coeffs)).values
    labels = [Diag(1), Diag(2)] if Diag(1) in coeffs else [Diag(2)]
    labels += [OffDiag(1, 2), OffDiag(2, 3), OffDiag(1, 3)]
    return variables, [_numerator(r[a] - r[b]) for a, b in zip(labels, labels[1:])]


@pytest.mark.parametrize("blocks", SHAPES_UP_TO_9, ids=SHAPE_IDS)
def test_build_system_matches_symbolic_ricci(blocks):
    system = build_system(BlockDecomposition(blocks))
    assert (system.variables, system.polys) == _symbolic_system(system.decomp)


def test_build_system_rejects_unsupported_shapes():
    with pytest.raises(UnsupportedShapeError):
        build_system(BlockDecomposition((2, 1, 3)))


def test_jensen_quadratic_values():
    assert jensen_quadratic(BlockDecomposition((1, 3, 2))) == [
        Fraction(2), Fraction(-8), Fraction(5)
    ]
    assert jensen_quadratic(BlockDecomposition((1, 4, 2))) == [
        Fraction(3), Fraction(-10), Fraction(6)
    ]
    for n in (7, 10, 15):
        got = jensen_quadratic(BlockDecomposition((1, 3, n - 4)))
        want = [Fraction(2), Fraction(-2 * (n - 2)), Fraction(n - 1)]
        # content-normalized, so compare up to a common rational scale
        ratio = got[-1] / want[-1]
        assert ratio > 0 and [c * ratio for c in want] == got, n


def test_jensen_points_match_closed_form():
    pts = jensen_points(BlockDecomposition((1, 3, 2)))
    assert len(pts) == 2
    lo, hi = jensen_x2(6)
    assert pts[0][Diag(2)] == lo
    assert pts[1][Diag(2)] == hi
    for p in pts:
        assert p[OffDiag(1, 3)] == 1
        assert p[OffDiag(2, 3)] == 1
        assert p[Diag(2)] == p[OffDiag(1, 2)]


# (1, 4, 2), then every shape with k2 = 1 and n <= 10: build_system needs
# k2 >= 2, the Jensen points do not
JENSEN_POINT_SHAPES = [(1, 4, 2)] + [(k1, 1, n - 1 - k1) for n in range(4, 11)
                                     for k1 in range(1, n - 1)]


def test_jensen_points_certify_as_jensen():
    for blocks in JENSEN_POINT_SHAPES:
        d = BlockDecomposition(blocks)
        points = jensen_points(d)
        if blocks[:2] == (1, 1):  # the one root of a linear numerator, exact
            assert [p[OffDiag(1, 2)] for p in points] == [Fraction(2 * (d.n - 2), d.n - 1)]
        else:
            assert len(points) == 2, d
        for point in points:
            result = certify(point, d)
            assert isinstance(result, EinsteinSolution), (d, result)
            assert result.classification == "Jensen"
            assert result.residual < 1e-12


def test_certify_rejects_nonpositive():
    d = BlockDecomposition((1, 3, 2))
    coords = {lbl: Fraction(1) for lbl in dims(d)}
    coords[Diag(2)] = Fraction(-1)
    result = certify(coords, d)
    assert isinstance(result, Rejection)
    assert "nonpositive" in result.reason


def test_certify_rejects_non_einstein():
    d = BlockDecomposition((1, 3, 2))
    coords = {lbl: Fraction(1) for lbl in dims(d)}
    result = certify(coords, d)
    assert isinstance(result, Rejection)
    assert "residual" in result.reason


def test_certify_rejects_zero_lambda():
    # the Ricci components sum to exactly 0 here; the residual divides by it
    d = BlockDecomposition((1, 3, 2))
    coords = {Diag(2): Fraction(1, 2), OffDiag(1, 2): Fraction(1, 4),
              OffDiag(1, 3): Fraction(1, 4), OffDiag(2, 3): Fraction(1)}
    result = certify(coords, d, tol=float("inf"))
    assert isinstance(result, Rejection)
    assert result.reason == "Ricci mean lambda = 0 is not positive"


def test_substituting_jensen_form_recovers_quadratic():
    # with x2 = x12 = t and x13 = x23 = 1 every system polynomial becomes a
    # univariate multiple of the classical quadratic (or vanishes)
    for n in (6, 8, 12, 20):
        system = build_system(BlockDecomposition((1, 3, n - 4)))
        quad = jensen_quadratic(system.decomp)
        i2 = system.variables.index("x2")
        i12 = system.variables.index("x12")
        i13 = system.variables.index("x13")
        for p in system.polys:
            sub = [0] * (max(m[i2] + m[i12] for m in p) + 1)
            for m, c in p.items():
                sub[m[i2] + m[i12]] += c
            if not any(sub):
                continue
            assert divides(quad, sub), (n, p)


# the first five keep their test ids; then every other shape with n <= 9
JENSEN_SHAPES = [(1, 3, 2), (2, 2, 3), (2, 3, 2), (3, 3, 2), (1, 8, 2)]
JENSEN_SHAPES += [b for b in SHAPES_UP_TO_9 if b not in JENSEN_SHAPES]


@pytest.mark.parametrize("blocks", JENSEN_SHAPES)
def test_jensen_ansatz_leaves_only_r12_minus_r13(blocks):
    # symbolic Ricci over sympy's rational functions is the oracle for the
    # integer Laurent form; (2, 2, k3): k1 + k2 = 4, where so(4) is not simple
    sympy = pytest.importorskip("sympy")
    d = BlockDecomposition(blocks)
    field, x = sympy.field("x", sympy.ZZ)
    coeffs = {l: x if 3 not in l.blocks else field.one for l in dims(d)}
    r = ricci(InvariantMetric(d, coeffs)).values
    labels = sorted(r)
    diffs = {(a, b): _numerator(r[a] - r[b]) for a, b in zip(labels, labels[1:])}
    assert [k for k, v in diffs.items() if v] == [(OffDiag(1, 2), OffDiag(1, 3))]
    quad = {(e,): c for e, c in enumerate(jensen_quadratic(d))}
    assert quad == diffs[OffDiag(1, 2), OffDiag(1, 3)]


# every shape the solver accepts with n <= 8: 35 of them
SMALL_SHAPES = [b for b in SHAPES_UP_TO_9 if sum(b) <= 8]


@pytest.mark.parametrize("blocks", SMALL_SHAPES,
                         ids=["".join(map(str, b)) for b in SMALL_SHAPES])
def test_every_shape_up_to_n8_solves(blocks):
    # the CLI solve exits 0, so no DegenerateSystemError from the elimination
    # or the Jensen quadratic; every positive root of the quadratic certifies
    # as a Jensen metric; each isolation in that solve, of the eliminant and
    # of every lift pivot, gives halving-tree cells that the two-PRS count
    # finds one root in each, as many as it finds in all
    run = traced_solve(blocks)
    quad = jensen_quadratic(BlockDecomposition(blocks))
    jensen = [s for s in run.solutions if s.classification == "Jensen"]
    assert len(jensen) == len(isolate_real_roots(quad, lo=Fraction(0)))
    assert run.isolations
    for args, kwargs, ivs in run.isolations:
        assert_isolates(ivs, *args, **kwargs)


@pytest.mark.parametrize("blocks", SMALL_SHAPES,
                         ids=["".join(map(str, b)) for b in SMALL_SHAPES])
def test_scaled_solutions_certify_alike(blocks):
    # the Ricci components scale by 1/t when the metric scales by t, so a
    # reported solution scaled by t certifies with the same residual and
    # classification and with lambda / t
    for sol in traced_solve(blocks).solutions:
        coords = {l: Fraction(c) for l, c in sol.coords.items()}
        base = certify(coords, sol.decomp)
        assert base.classification == sol.classification
        for t in (Fraction(2), Fraction(1, 3)):
            scaled = certify({l: c * t for l, c in coords.items()}, sol.decomp)
            assert scaled.classification == base.classification
            assert scaled.residual == base.residual
            assert scaled.lam == pytest.approx(base.lam / t, rel=1e-15)


def test_close_x12_roots_on_243_match_the_oracle():
    # one x12 pivot of the (2,4,3) lift has two roots near 1.10819418755439,
    # less than 1e-15 apart
    near = Fraction("1.10819418755439")
    close = [c for c in traced_solve((2, 4, 3)).isolations
             if sum(abs(iv.lo - near) < 1e-12 for iv in c[2]) == 2]
    assert len(close) == 1
    args, kwargs, ivs = close[0]
    first, second = (iv for iv in ivs if abs(iv.lo - near) < 1e-12)
    assert second.hi - first.lo < Fraction(1, 10**15)
    assert_isolates(ivs, *args, **kwargs)


def test_groebner_eliminant_proportional_to_h1():
    system = build_system(BlockDecomposition((1, 3, 2)))
    coeffs = groebner_eliminant(system)
    h1 = h1_coeffs(6)
    assert len(coeffs) == len(h1)
    ratio = coeffs[-1] / h1[-1]
    assert all(a == ratio * b for a, b in zip(coeffs, h1))


@pytest.mark.parametrize("n", [6, 9, 13])
def test_resultant_eliminant_divisible_by_h1(n):
    # the eliminant solve uses may carry extraneous factors (spurious roots
    # are rejected later by certification) but must contain h1 exactly
    system = build_system(BlockDecomposition((1, 3, n - 4)))
    eliminant, _, _ = _eliminate(system)
    assert divides(h1_coeffs(n), eliminant)


@pytest.mark.parametrize("blocks", [(1, 3, 2), (2, 3, 2), (2, 4, 3), (3, 3, 2)])
def test_eliminant_has_no_root_at_one(blocks):
    # every (x13 - 1) factor is divided out, so solve skips no root near 1
    eliminant, _, _ = _eliminate(build_system(BlockDecomposition(blocks)))
    assert sum(eliminant) != 0
    assert all(type(c) is int for c in eliminant)


# sha256 of the repr of _eliminate's coefficients and its (var, variables,
# sorted (monomial, Fraction coefficient) terms) pivots, as computed when the
# resultant still worked modulo several 61-bit primes with a modular inverse
# per Euclid step
ELIMINATION_SHA256 = {
    (2, 3, 2): "e1e35e2142193b2417d8697381ae8cb7c87caa8a6876ecf6322343c5666be3e3",
    (2, 4, 3): "48ed0a7de5e76e6826a04e2fcda06d52ec0122ef8229655aa0bfa25c385cd3ef",
    (3, 3, 2): "4935090df8a21c88263ece93809d069b22643d12b108626f139991c4e0604d29",
    # the three-variable route, as computed when every resultant was still
    # taken modulo a prime, linear pivots included
    (1, 3, 2): "b93ff8342bab5c8c0d64709d4c7667c2268b02ecdeb393f9845ea937dd7ba282",
    (1, 4, 2): "26d457bd858c814053bfb5b3db6fe47ba77903a8936d4225a62a629c92ae9893",
    (1, 3, 26): "debec2f1249523d8d99092736cf291e36a6591dce26bfda71e44110032f189e5",
}


@pytest.mark.parametrize("blocks", ELIMINATION_SHA256, ids=lambda b: "".join(map(str, b)))
def test_elimination_is_pinned(blocks):
    system = build_system(BlockDecomposition(blocks))
    text = _elimination_text(system, _eliminate(system))
    assert hashlib.sha256(text.encode()).hexdigest() == ELIMINATION_SHA256[blocks]


def _elimination_text(system, elimination) -> str:
    coeffs, pivots, _ = elimination
    return repr((coeffs, [
        (var, system.variables, sorted((m, Fraction(c)) for m, c in pivot.items()))
        for var, pivot in pivots
    ]))


# one sha256 over the texts of test_elimination_is_pinned for the 35 shapes of
# SMALL_SHAPES, one after another, as computed when the system, the
# eliminant and the pivots were still Fraction polynomials
SMALL_ELIMINATIONS_SHA256 = "c90bd91366e210602923bfe5a34d4ea224f7ffd717f6c36626038c20d3b4ca8d"


def test_eliminations_of_every_shape_up_to_n8_are_pinned():
    sha = hashlib.sha256()
    for blocks in SMALL_SHAPES:
        run = traced_solve(blocks)
        sha.update(_elimination_text(run.system, run.elimination).encode())
    assert sha.hexdigest() == SMALL_ELIMINATIONS_SHA256


def test_lift_points_have_short_denominators(monkeypatch):
    # each level is seeded with the simplest rational in an interval of
    # width LIFT_WIDTH, not its midpoint, whose denominator grows with the
    # leading coefficients of the pivots (thousands of bits on (2,4,3)); in
    # the branch search and the one-candidate lift alike
    points = []

    def recording(lift):
        def recorded(*args):
            for p in lift(*args):
                points.append(p)
                yield p

        return recorded

    for name in ("_lift", "_candidate"):
        monkeypatch.setattr(solver, name, recording(getattr(solver, name)))
    sols = solve(build_system(BlockDecomposition((2, 4, 3))))
    assert len(sols) == 4 and points
    for p in points:
        assert all(c.denominator <= 2 * 10**20 for c in p.values()), p


def test_lift_substitution_matches_fraction_subs(monkeypatch):
    # at every point the lift visits, the integer substitution is the
    # Fraction one, term by term, times a positive rational
    calls = []

    def recording(pivot, at, point):
        coeffs = univariate_at(pivot, at, point)
        calls.append((pivot, at, point, coeffs))
        return coeffs

    univariate_at = solver._univariate_at
    monkeypatch.setattr(solver, "_univariate_at", recording)
    for blocks in ((2, 3, 2), (2, 4, 3), (3, 3, 2)):
        solve(build_system(BlockDecomposition(blocks)))
    assert len(calls) > 20
    for pivot, at, point, coeffs in calls:
        exact = [Fraction(0)] * (max(m[at] for m in pivot) + 1)
        for m, c in pivot.items():
            assert all(e == 0 or j == at or j in point for j, e in enumerate(m))
            exact[m[at]] += c * math.prod(x ** m[j] for j, x in point.items())
        while exact and not exact[-1]:
            exact.pop()
        assert all(type(c) is int for c in coeffs)
        assert exact and not any(coeffs[len(exact):])
        ratio = next(Fraction(c) / e for c, e in zip(coeffs, exact) if e)
        assert ratio > 0
        assert coeffs[: len(exact)] == [ratio * e for e in exact]


def _routes(monkeypatch) -> dict[str, list]:
    """Record, for each solve after the call, the x13 root (a float) of
    each candidate with the points it yields, and of each branch search."""
    routes: dict[str, list] = {"candidate": [], "branch": []}
    candidate, lift = solver._candidate, solver._lift

    def recorded_candidate(pivots, partner, point):
        points = list(candidate(pivots, partner, point))
        routes["candidate"].append((float(*point.values()), points))
        yield from points

    def recorded_lift(pivots, point):
        if len(point) == 1:  # not a step of the search's own recursion
            routes["branch"].append(float(*point.values()))
        yield from lift(pivots, point)

    monkeypatch.setattr(solver, "_candidate", recorded_candidate)
    monkeypatch.setattr(solver, "_lift", recorded_lift)
    return routes


def test_243_lifts_its_simple_roots_through_one_candidate(monkeypatch):
    # the two roots of Q_6 = 7x^2 - 18x + 7, (9 -+ 4 sqrt 2) / 7, are
    # repeated eliminant roots and take the branch search; the two New
    # metrics come from one candidate each, as the traced CLI solve found them
    want = traced_solve((2, 4, 3)).solutions
    routes = _routes(monkeypatch)
    sols = solve(build_system(BlockDecomposition((2, 4, 3))))
    assert routes["branch"] == pytest.approx([(9 - 4 * 2**0.5) / 7, (9 + 4 * 2**0.5) / 7])
    assert [x for x, _ in routes["candidate"]] == pytest.approx([0.444626, 1.107417], abs=1e-6)
    assert all(len(points) == 1 for _, points in routes["candidate"])
    assert [s.to_json() for s in sols] == [s.to_json() for s in want]
    assert len(sols) == 4


def test_failed_candidate_falls_back_to_the_branch_search(monkeypatch):
    # at x13 ~ 0.7607 on (7,3,4) the last pivot has x12 roots near 0.51077,
    # 0.64991, 1.25601 and 1.25614, and 0.64991 is the common root with its
    # partner; Newton sent to 0.51077 instead gives a candidate that certify
    # rejects, and the branch search finds the metric
    want = traced_solve((7, 3, 4)).solutions
    newton = solver._newton

    def wrong_root(p, x):
        root = newton(p, x)
        return newton(p, 0.5) if root is not None and abs(root - 0.64991) < 1e-5 else root

    monkeypatch.setattr(solver, "_newton", wrong_root)
    routes = _routes(monkeypatch)
    sols = solve(build_system(BlockDecomposition((7, 3, 4))))
    ((x13, (point,)),) = [(x, p) for x, p in routes["candidate"] if abs(x - 0.7607) < 1e-4]
    assert abs(point[2] - Fraction(0.51077)) < 1e-5  # column 2 is x12
    # 3/4 and 4/3 are the roots of Q_5 = 12x^2 - 25x + 12
    assert routes["branch"] == pytest.approx([0.75, x13, 4 / 3])
    # the branch search's x12 is another rational within LIFT_WIDTH, so only
    # the residual of that solution may move
    problems, changed = tool("solve_digest").compare(
        *({"7,3,4": {"solutions": [s.to_json() for s in run]}} for run in (want, sols)))
    assert problems == [] and set(+changed) <= {"residuals"}
    assert len(sols) == 8


def test_simple_roots_are_told_by_one_descartes_count():
    # (x - 2)^2 (x - 3)(x + 1): 2 is a double root, 3 a simple one, and a
    # lead that vanishes at 3 sends that root to the branch search too
    f = [-12, 4, 9, -6, 1]
    roots = isolate_real_roots(f, lo=Fraction(0))
    assert len(roots) == 2 and roots[0].hi < 3 <= roots[1].hi
    assert solver._simple_roots(f, roots, []) == [False, True]
    assert solver._simple_roots(f, roots, [[-3, 1]]) == [False, False]
    assert solver._simple_roots(f, roots, [[7]]) == [False, True]
    assert solver._simple_roots(f, [], [[-3, 1]]) == []


def test_solve_computes_jensen_points_once(monkeypatch):
    # solve computes the Jensen points once, for the x13 = 1 branch, and
    # certify classifies by the ansatz, with no call at all
    calls = []

    def counting(decomp, *args):
        calls.append(decomp)
        return jensen(decomp, *args)

    jensen = solver.jensen_points
    monkeypatch.setattr(solver, "jensen_points", counting)
    sols = solve(build_system(BlockDecomposition((1, 3, 2))))
    assert [s.classification for s in sols].count("Jensen") == 2
    assert len(calls) == 1

    def refuse(decomp, *args):
        raise AssertionError("certify computed the Jensen points")

    monkeypatch.setattr(solver, "jensen_points", refuse)
    point = next(s for s in sols if s.classification == "Jensen")
    assert certify(point.coords, point.decomp).classification == "Jensen"


@pytest.mark.parametrize("blocks", [(1, 3, 2), (2, 3, 2), (3, 3, 2)])
def test_certificate_matches_fraction_ricci_on_solve_candidates(monkeypatch, blocks):
    # every candidate solve certifies, the float x13 included: the integer
    # lambda and residual equal ricci_general's, and so do their floats
    calls = []

    def recording(coords, decomp, *args):
        result = check(coords, decomp, *args)
        calls.append((coords, result))
        return result

    check = solver.certify
    monkeypatch.setattr(solver, "certify", recording)
    d = BlockDecomposition(blocks)
    solve(build_system(d))
    assert any(isinstance(c[OffDiag(1, 3)], float) for c, _ in calls)
    for coords, result in calls:
        exact = {l: Fraction(c) for l, c in coords.items()}
        comp = ricci_general(triples_closed_form(d), InvariantMetric(d, exact))
        lam, residual = solver._lambda_and_residual(d, exact)
        assert (lam, residual) == (comp.einstein_constant_candidate, comp.residual())
        if isinstance(result, EinsteinSolution):
            assert (result.lam, result.residual) == (float(lam), float(residual))


def test_solve_uses_no_ricci_term_loop(monkeypatch):
    # the system, the Jensen quadratic and the certificates all come from
    # TripleTable.laurent
    d = BlockDecomposition((2, 3, 2))
    want = [s.to_json() for s in solve(build_system(d))]

    def forbidden(*args, **kwargs):
        raise AssertionError("solve evaluated the Ricci term loop")

    ricci_module = importlib.import_module("stiefel_einstein.ricci")
    for name in ("ricci", "ricci_general"):
        monkeypatch.setattr(ricci_module, name, forbidden)
        monkeypatch.setattr(solver, name, forbidden, raising=False)
    assert [s.to_json() for s in solve(build_system(d))] == want


# sha256 of CLI reports, whose intervals and residuals come from isolation on
# the halving tree of (0, B], B the power-of-two root bound, and whose
# residuals come from the one-candidate lift at every simple eliminant root
REPORT_SHA256 = {
    ("sweep", "--blocks", "1,3,R", "--n", "6..30", "--format", "json"):
        "d939c9192574349aa53291e5de56c31a5fee215244a59b2fa9638570e899c088",
    ("solve", "--blocks", "2,4,3"):
        "a8ca597787823fffd627b2153efb122c3f3ea22de5f44e9fb3de0dd547dd1820",
    ("solve", "--blocks", "2,3,2"):
        "9a28f6758a04e2a2f8831f44f3f0883dbbe9a0ef423aa5abc1744ae6fe811707",
    ("solve", "--blocks", "3,3,2"):
        "63fa8c0e59032e0d4a0fb3c3be127d707f46c0da61c4906331f26ccaff445610",
    # the branch search at every root offered certify seven candidates here
    # that failed; one candidate per root offers none
    ("solve", "--blocks", "3,6,1"):
        "83fc661e469921db97078e8b55100886da90a050ddfe90a72f33c60ddeb01a54",
    ("solve", "--blocks", "1,4,2"):
        "c1e4b15b0f2dd86d2d036ca4352854ef4c9a2591bc2bd733e30d5080ecfcd1af",
}


@pytest.mark.parametrize(
    "argv", REPORT_SHA256,
    ids=["sweep", "solve243", "solve232", "solve332", "solve361", "solve142"],
)
def test_reports_are_pinned(tmp_path, argv):
    path = tmp_path / "report.json"
    assert cli.main([*argv, "--output", str(path)]) == cli.EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_SHA256[argv]


# tools/solve_digest.py N: one sha256 over the solve --format json reports of
# every shape with n <= N, 35 for N = 8 and 84 for N = 10
SOLVE_DIGEST = {
    8: "495188153ccb8783f61a73141f306d2cfea4c14cbe4a1fd767abe0144eaf66cf",
    10: "2990a7a201a1871f1b8d5ebc1cb2b66beac72b36970028aa00d9e8b32f9f91e1",
}


@pytest.mark.parametrize("n_max", SOLVE_DIGEST)
def test_reports_of_every_shape_up_to_n_are_pinned(n_max):
    sha = hashlib.sha256()
    for shape in tool("solve_digest").shapes(n_max):
        sha.update(traced_solve(shape).report.encode())
    assert sha.hexdigest() == SOLVE_DIGEST[n_max]


def _mutated(dump: dict, mutate) -> dict:
    """A deep copy of the dump, with mutate applied to the first h-branch
    solution of (2,3,2)."""
    new = json.loads(json.dumps(dump))
    mutate(next(s for s in new["2,3,2"]["solutions"] if s["branch"] == "h"))
    return new


def _set_x13_interval(sol: dict, lo: Fraction, hi: Fraction) -> None:
    sol["intervals"]["x13"] = [[lo.numerator, lo.denominator], [hi.numerator, hi.denominator]]


def _x13_interval(sol: dict) -> tuple[Fraction, Fraction]:
    return tuple(Fraction(*end) for end in sol["intervals"]["x13"])


def _moved_past(sol: dict) -> None:  # (hi, 2 hi - lo] misses (lo, hi]
    lo, hi = _x13_interval(sol)
    _set_x13_interval(sol, hi, 2 * hi - lo)


@pytest.mark.parametrize("mutate, problem", [
    (lambda s: s["coords"].update(x13=s["coords"]["x13"] * (1 + 1e-10)), "x13 "),
    (_moved_past, "misses"),
    (lambda s: s.update(residual=2 * solver.CERTIFY_TOL), "residual"),
    (lambda s: s.update(classification="Jensen"), "classification"),
    (lambda s: s.update({"lambda": s["lambda"] * (1 + 1e-12)}), "lambda"),
    (lambda s: s.update(branch="jensen"), "branch"),
], ids=["coordinate", "interval", "residual", "classification", "lambda", "branch"])
def test_report_comparison_flags_each_disagreement(mutate, problem):
    compare = tool("solve_digest").compare
    old = {",".join(map(str, s)): json.loads(traced_solve(s).report)
           for s in ((2, 3, 2), (1, 4, 2))}
    assert compare(old, old) == ([], Counter())
    problems, _ = compare(old, _mutated(old, mutate))
    assert len(problems) == 1 and problem in problems[0]
    assert compare(old, {"2,3,2": old["2,3,2"]})[0] == ["shapes differ: ['1,4,2']"]


def test_report_comparison_counts_what_isolation_may_move():
    old = {"2,3,2": json.loads(traced_solve((2, 3, 2)).report)}

    def moved(sol):  # a narrower interval, a new residual, a last digit
        lo, hi = _x13_interval(sol)
        _set_x13_interval(sol, lo, (lo + hi) / 2)
        sol["residual"] = solver.CERTIFY_TOL
        sol["coords"]["x13"] *= 1 + 1e-12

    problems, changed = tool("solve_digest").compare(old, _mutated(old, moved))
    assert problems == [] and changed == {"residuals": 1, "intervals": 1, "coordinates": 1}
    dropped = {"2,3,2": {**old["2,3,2"], "solutions": old["2,3,2"]["solutions"][1:]}}
    assert tool("solve_digest").compare(old, dropped)[0] == ["2,3,2: 4 -> 3 solutions"]


def _swap_blocks(coords: dict) -> dict:
    """The image of a solution on (k1, k2, k3) on (k2, k1, k3): so(k1) and
    so(k2) trade places, as do m13 and m23, in the gauge x23 = 1 again."""
    t = coords[OffDiag(1, 3)]
    image = {Diag(1): coords[Diag(2)], Diag(2): coords[Diag(1)],
             OffDiag(1, 2): coords[OffDiag(1, 2)], OffDiag(1, 3): coords[OffDiag(2, 3)],
             OffDiag(2, 3): t}
    return {lbl: x / t for lbl, x in image.items()}


def test_block_swap_maps_solutions_onto_solutions():
    # every shape with k1, k2 >= 2 and n <= 9 (35): swapping the first two
    # blocks is an isometry, so each solution's image certifies on the swapped
    # shape and is one of its reported solutions, of the same kind
    shapes = [b for b in SHAPES_UP_TO_9 if b[0] >= 2]
    sols = {b: traced_solve(b).solutions for b in shapes}
    for (k1, k2, k3), found in sols.items():
        swapped = sols[(k2, k1, k3)]
        assert len(found) == len(swapped), (k1, k2, k3)
        for s in found:
            image = _swap_blocks(s.coords)
            cert = certify(image, BlockDecomposition((k2, k1, k3)))
            assert isinstance(cert, EinsteinSolution), (k1, k2, k3, cert)
            assert cert.classification == s.classification
            near = [r for r in swapped
                    if all(abs(r.coords[lbl] - x) <= 1e-9 for lbl, x in image.items())]
            assert len(near) == 1, (k1, k2, k3, s.coords)
            assert near[0].classification == s.classification


def test_warm_solve_builds_no_module_label(capsys, monkeypatch):
    # Diag and OffDiag return one shared label per argument; a (2,3,2) solve
    # once built 83 labels, warm or not
    argv = ["solve", "--blocks", "2,3,2"]
    assert cli.main(argv) == cli.EXIT_OK
    built = []
    check = ModuleLabel.__post_init__
    monkeypatch.setattr(ModuleLabel, "__post_init__",
                        lambda self: built.append(self) or check(self))
    assert cli.main(argv) == cli.EXIT_OK
    assert built == []


def test_eliminant_positive_roots_match_sympy():
    # monomial factors are stripped from every resultant, so the (2,3,2)
    # eliminant does not vanish at x13 = 0 (its constant term is
    # 5733089280000); sympy's isolating intervals count its positive roots
    sympy = pytest.importorskip("sympy")
    eliminant, _, _ = _eliminate(build_system(BlockDecomposition((2, 3, 2))))
    x = sympy.Symbol("x")
    poly = sympy.Poly(eliminant[::-1], x)
    positive = sum(1 for (_, hi), _ in poly.intervals() if hi > 0)
    assert positive == 2
    assert len(isolate_real_roots(eliminant, lo=Fraction(0))) == positive


@pytest.mark.parametrize(
    "blocks, new_x13",
    [
        ((1, 3, 2), [0.316954, 1.133845]),
        ((1, 4, 2), [0.253386, 1.161367]),
        # the lift must not miss the New metric at x13 ~ 1.107417
        ((2, 4, 3), [0.444626, 1.107417]),
        ((3, 3, 2), [0.381453, 0.641696, 0.875734, 1.141899, 1.558371, 2.621555]),
    ],
    ids=["132", "142", "243", "332"],
)
def test_solve_132_full_catalog(blocks, new_x13):
    sols = solve(build_system(BlockDecomposition(blocks)))
    jensen = [s for s in sols if s.classification == "Jensen"]
    new = [s for s in sols if s.classification == "New"]
    assert len(jensen) == 2 and len(new) == len(new_x13)
    for s in sols:
        assert s.residual < 1e-10
        assert all(c > 0 for c in s.coords.values())
        # round-trip: the reported coordinates re-certify
        back = certify(
            {l: Fraction(c).limit_denominator(10**12) for l, c in s.coords.items()},
            s.decomp,
            tol=1e-6,
        )
        assert isinstance(back, EinsteinSolution)
    # new solutions carry exact x13 isolating intervals
    for s in new:
        lo, hi = s.intervals["x13"]
        assert lo < Fraction(s.coords[OffDiag(1, 3)]) <= hi
    assert [s.coords[OffDiag(1, 3)] for s in new] == pytest.approx(new_x13, abs=1e-6)


def test_solve_v4_equals_sweep():
    direct = solve_v4(7)
    swept = sweep([7])[7]
    assert [s.to_json() for s in direct] == [s.to_json() for s in swept]


def test_positivity_report_row():
    (row,) = positivity_report([8])
    assert row.h1_at_0 > 0
    assert row.h1_at_1 < 0
    assert row.h1_at_2 > 0
    assert row.h2_alternating and row.h3_alternating
    # h1 has one root in each of (0, 1] and (1, 2], so those are the brackets
    for row in positivity_report(list(range(6, 61))):
        assert row.alpha13 == (0, 1) and row.beta13 == (1, 2), row.n
    with pytest.raises(DomainError):
        positivity_report([5])


def test_bracket_report_checks_out_at_n9():
    sols = solve_v4(9)
    report = bracket_report(9, sols)
    assert set(report) == {
        "alpha13", "beta13", "alpha12", "beta12", "alpha2", "beta2"
    }
    assert all(entry["ok"] for entry in report.values())
    # alpha2/beta2 bounds only apply from n = 16; at n = 9 they are vacuous
    assert report["alpha2"]["lo"] is None
    # the alpha12 lower bound is never certified
    assert report["alpha12"]["lo"] is None


def test_jensen_point_residual_is_tiny_exact():
    # 50-digit rational Jensen points give residuals around 1e-50
    d = BlockDecomposition((1, 3, 4))
    for point in jensen_points(d):
        comp = ricci(InvariantMetric(d, point))
        assert comp.residual() < Fraction(1, 10**40)
