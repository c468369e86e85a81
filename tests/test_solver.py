"""Einstein system construction, elimination, certification, and solving."""

from __future__ import annotations

from fractions import Fraction

import pytest

from stiefel_einstein import solver
from stiefel_einstein.errors import DomainError, UnsupportedShapeError
from stiefel_einstein.fixtures import h1_coeffs, jensen_x2, jensen_x2_142
from stiefel_einstein.polyalg import RationalPoly, isolate_real_roots
from stiefel_einstein.ricci import InvariantMetric, ricci
from stiefel_einstein.so_algebra import BlockDecomposition, Diag, OffDiag
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
from stiefel_einstein.triples import dims

from helpers import divides


def _poly(variables, terms):
    return RationalPoly(variables, {m: Fraction(c) for m, c in terms.items()})


def _proportional(p: RationalPoly, q: RationalPoly) -> bool:
    """p == c * q for some nonzero rational c."""
    if p.vars != q.vars:
        q = q.reorder(p.vars)
    if set(p.terms) != set(q.terms):
        return False
    ratios = {p.terms[m] / q.terms[m] for m in p.terms}
    return len(ratios) == 1


# frozen reference systems (blocks fixed, normalization x23 = 1); monomials
# keyed by exponents of the system's variable tuple
def _reference_system_k1_eq_1(n: int):
    # variables (x2, x12, x13)
    V = ("x2", "x12", "x13")
    f1 = _poly(V, {
        (1, 3, 0): -(n - 4), (2, 2, 1): n - 4, (1, 1, 2): n - 4,
        (1, 1, 1): -2 * (n - 2), (1, 1, 0): n - 4, (0, 2, 1): 1, (2, 0, 1): 3,
    })
    f2 = _poly(V, {
        (0, 3, 0): n - 3, (0, 2, 1): -2 * (n - 2), (0, 1, 2): -(n - 5),
        (0, 1, 1): 2 * (n - 2), (0, 1, 0): 3 - n, (1, 2, 1): 2, (1, 0, 1): -2,
    })
    f3 = _poly(V, {
        (0, 1, 1): n - 2, (0, 1, 0): -(n - 2), (0, 2, 0): 1,
        (1, 1, 1): -1, (0, 0, 2): -2, (0, 0, 0): 2,
    })
    return [f1, f2, f3]


def _reference_system_232():
    # variables (x1, x2, x12, x13), n = 7
    V = ("x1", "x2", "x12", "x13")
    g1 = _poly(V, {
        (1, 1, 2, 0): 2, (1, 1, 0, 2): 3, (0, 2, 2, 2): -2,
        (0, 0, 2, 2): -1, (0, 2, 0, 2): -2,
    })
    g2 = _poly(V, {
        (1, 1, 0, 1): 1, (0, 1, 3, 0): -2, (0, 2, 2, 1): 2, (0, 0, 2, 1): 1,
        (0, 1, 1, 2): 2, (0, 1, 1, 1): -10, (0, 1, 1, 0): 2, (0, 2, 0, 1): 4,
    })
    g3 = _poly(V, {
        (1, 0, 0, 1): -1, (0, 0, 3, 0): 4, (0, 1, 2, 1): 2, (0, 0, 2, 1): -10,
        (0, 0, 1, 1): 10, (0, 0, 1, 0): -4, (0, 1, 0, 1): -2,
    })
    g4 = _poly(V, {
        (1, 0, 1, 0): 1, (0, 0, 2, 1): 1, (0, 1, 1, 2): -2, (0, 0, 1, 2): 10,
        (0, 0, 1, 1): -10, (0, 0, 0, 3): -5, (0, 0, 0, 1): 5,
    })
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
    V = ("x2", "x12", "x13")
    refs = [
        _poly(V, {
            (1, 3, 0): -1, (2, 2, 1): 1, (0, 2, 1): 1, (1, 1, 2): 1,
            (1, 1, 1): -5, (1, 1, 0): 1, (2, 0, 1): 2,
        }),
        _poly(V, {
            (0, 3, 0): 3, (1, 2, 1): 3, (0, 2, 1): -10, (0, 1, 2): -1,
            (0, 1, 1): 10, (0, 1, 0): -3, (1, 0, 1): -3,
        }),
        _poly(V, {
            (0, 2, 0): 3, (1, 1, 1): -3, (0, 1, 1): 10, (0, 1, 0): -10,
            (0, 0, 2): -5, (0, 0, 0): 5,
        }),
    ]
    _systems_match(system.polys, refs)


def test_build_system_matches_reference_232():
    system = build_system(BlockDecomposition((2, 3, 2)))
    assert system.variables == ("x1", "x2", "x12", "x13")
    _systems_match(system.polys, _reference_system_232())


def test_build_system_rejects_unsupported_shapes():
    with pytest.raises(UnsupportedShapeError):
        build_system(BlockDecomposition((3, 3)))
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


def test_jensen_points_certify_as_jensen():
    d = BlockDecomposition((1, 4, 2))
    for point in jensen_points(d):
        result = certify(point, d)
        assert isinstance(result, EinsteinSolution)
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


def test_substituting_jensen_form_recovers_quadratic():
    # with x2 = x12 = t and x13 = x23 = 1 every system polynomial becomes a
    # univariate multiple of the classical quadratic (or vanishes)
    for n in (6, 8, 12, 20):
        system = build_system(BlockDecomposition((1, 3, n - 4)))
        quad = RationalPoly(
            ("t",), {(e,): c for e, c in enumerate(jensen_quadratic(system.decomp))}
        )
        i2 = system.variables.index("x2")
        i12 = system.variables.index("x12")
        i13 = system.variables.index("x13")
        for p in system.polys:
            terms: dict[tuple[int, ...], Fraction] = {}
            for m, c in p.terms.items():
                key = (m[i2] + m[i12],)
                terms[key] = terms.get(key, Fraction(0)) + c
            sub = RationalPoly(("t",), {m: c for m, c in terms.items() if c})
            if sub.is_zero():
                continue
            assert quad.divides(sub), (n, p)


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
    eliminant, _ = _eliminate(system)
    assert divides(h1_coeffs(n), eliminant)


@pytest.mark.parametrize("blocks", [(1, 3, 2), (2, 3, 2), (2, 4, 3), (3, 3, 2)])
def test_eliminant_has_no_root_at_one(blocks):
    # every (x13 - 1) factor is divided out, so solve skips no root near 1
    eliminant, _ = _eliminate(build_system(BlockDecomposition(blocks)))
    assert sum(eliminant) != 0
    assert all(type(c) is int for c in eliminant)


def test_lift_points_have_short_denominators(monkeypatch):
    # each level is seeded with the simplest rational in an interval of
    # width LIFT_WIDTH, not its midpoint, whose denominator grows with the
    # leading coefficients of the pivots (thousands of bits on (2,4,3))
    points = []

    def recording_lift(pivots, point):
        for p in lift(pivots, point):
            points.append(p)
            yield p

    lift = solver._lift
    monkeypatch.setattr(solver, "_lift", recording_lift)
    sols = solve(build_system(BlockDecomposition((2, 4, 3))))
    assert len(sols) == 4 and points
    for p in points:
        assert all(c.denominator <= 2 * 10**20 for c in p.values()), p


def test_solve_computes_jensen_points_once(monkeypatch):
    # classification of the certified Jensen candidates reuses solve's points
    calls = []

    def counting(decomp, *args):
        calls.append(decomp)
        return jensen(decomp, *args)

    jensen = solver.jensen_points
    monkeypatch.setattr(solver, "jensen_points", counting)
    sols = solve(build_system(BlockDecomposition((1, 3, 2))))
    assert [s.classification for s in sols].count("Jensen") == 2
    assert len(calls) == 1


def test_eliminant_positive_roots_match_sympy():
    # monomial factors are stripped from every resultant, so the (2,3,2)
    # eliminant does not vanish at x13 = 0 (its constant term is
    # 5733089280000); sympy's isolating intervals count its positive roots
    sympy = pytest.importorskip("sympy")
    eliminant, _ = _eliminate(build_system(BlockDecomposition((2, 3, 2))))
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
    assert row.alpha13 is not None and row.beta13 is not None
    assert 0 <= row.alpha13[0] < row.alpha13[1] <= 1
    assert 1 <= row.beta13[0] < row.beta13[1] <= 2
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
