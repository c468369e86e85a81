"""Exact polynomial arithmetic, elimination, and Sturm root isolation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from stiefel_einstein.errors import (
    DegenerateSystemError,
    EliminationOverflowError,
)
from stiefel_einstein.polyalg import (
    IsolatingInterval,
    alternating_sign_check,
    bisect_to_width,
    count_real_roots,
    eliminate_resultant,
    isolate_real_roots,
    resultant,
    squarefree_part,
)
from stiefel_einstein.polyalg import groebner, resultants, sturm
from stiefel_einstein.polyalg.groebner import buchberger, saturation_generators
from stiefel_einstein.so_algebra import BlockDecomposition
from stiefel_einstein.solver import _eliminate, _univariate, _univariate_at, build_system
from helpers import halving_oracle, int_poly, squarefree_oracle, sympy_expr, univariate

V = ("x", "y")


def P(text: str) -> dict:
    """The integer polynomial in x and y that text spells."""
    return int_poly(text, V)


# -- integer polynomials -----------------------------------------------------

def test_poly_arithmetic():
    # _addmul, out + a b in place: the product behind the closed-form
    # resultant and the saturation
    assert resultants._addmul({}, P("x + y"), P("x + y")) == P("x**2 + 2*x*y + y**2")
    out = resultants._addmul(P("-y**2 + 1"), P("x + y"), P("x - y"))
    assert {m: c for m, c in out.items() if c} == P("x**2 - 2*y**2 + 1")


def test_primitive_and_content():
    # content, sign and monomial factor go
    assert resultants._primitive(P("6*x**2 + 9*y")) == P("2*x**2 + 3*y")
    assert resultants._primitive(P("-3*x - 2")) == P("3*x + 2")
    assert resultants._primitive(P("2*x**3*y + 4*x*y**2")) == P("x**2 + 2*y")


def test_cleared_shifts_only_negative_variables():
    # negative exponents, as in the Laurent numerators of the system, shift
    # up to 0; a variable whose least exponent is already 0 stays put
    # x^-2 + x y^2 -> 1 + x^3 y^2: x shifts by 2, y not at all
    assert resultants._primitive({(-2, 0): 1, (1, 2): 1}) == P("x**3*y**2 + 1")
    assert resultants._primitive(P("x + y")) == P("x + y")
    # x^-2 y + x y^2 -> 1 + x^3 y: the monomial factor y goes as well
    assert resultants._primitive({(-2, 1): 1, (1, 2): 1}) == P("x**3*y + 1")


def test_eval_and_subs():
    # x^2 y - 2y + 3 at y = 1 is x^2 + 1; at y = 1/2 it is (x^2 + 4) / 2,
    # returned times the denominator 2
    p = P("x**2*y - 2*y + 3")
    assert _univariate_at(p, 0, {1: Fraction(1)}) == [1, 0, 1]
    assert _univariate_at(p, 0, {1: Fraction(1, 2)}) == [4, 0, 1]


def test_univariate_coeff_roundtrip():
    p = P("3*x**4 - x + 7")
    coeffs = _univariate(p, 0)
    assert coeffs == [7, -1, 0, 0, 3]
    assert {(e, 0): c for e, c in enumerate(coeffs) if c} == p
    assert _univariate({}, 0) == []


# -- resultants --------------------------------------------------------------

def test_resultant_known_value():
    # res_x(x^2 - 1, x - 2) = (2)^2 - 1 = 3
    assert resultant(P("x**2 - 1"), P("x - 2"), 0, "x") == {(0, 0): 3}


def test_resultant_detects_common_root():
    assert resultant(P("(x - y)*(x + 1)"), P("(x - y)*(x - 3)"), 0, "x") == {}


def test_resultant_of_quadratics():
    # res_x(x^2 + y, x^2 - y) = (2y)^2
    assert resultant(P("x**2 + y"), P("x**2 - y"), 0, "x") == P("4*y**2")


def test_eliminate_resultant_circle_line():
    elim, _ = eliminate_resultant([P("x**2 + y**2 - 4"), P("x - y")], V, "y")
    coeffs = univariate(elim, 1)
    # roots must be y = +-sqrt(2)
    w = Fraction(1, 10**9)
    roots = [
        float(bisect_to_width(iv, w).midpoint())
        for iv in isolate_real_roots(coeffs)
    ]
    assert roots == pytest.approx([-(2**0.5), 2**0.5], abs=1e-6)


def test_eliminate_resultant_shared_factor_is_degenerate():
    # Res_x vanishes identically: a typed error, not a stripped factor that
    # would drop every solution on x = y
    with pytest.raises(DegenerateSystemError, match="'x'"):
        eliminate_resultant([P("(x - y)*(x + 1)"), P("(x - y)*(x - 3)")], V, "y")


def test_eliminate_resultant_returns_least_degree_constraint():
    # both generators are free of x, so both survive as constraints on y;
    # the eliminant is the one of least degree, not their gcd y - 1: its
    # extra root 3 is for back-substitution to reject
    cubic = P("(y - 1)*(y - 2)*(y - 4)")
    elim, pivots = eliminate_resultant([cubic, P("(y - 1)*(y - 3)")], V, "y")
    assert elim == P("(y - 1)*(y - 3)") and pivots == []


# -- Groebner bases ----------------------------------------------------------

def test_buchberger_simple_lex():
    # <x^2 + y^2 - 1, x - y>: eliminant 2y^2 - 1
    basis = buchberger([P("x**2 + y**2 - 1"), P("x - y")])
    assert [g for g in basis if not any(m[0] for m in g)] == [P("2*y**2 - 1")]


def test_buchberger_is_deterministic():
    gens = [P("x**2*y - 1"), P("x*y**2 - x")]
    b1 = buchberger(gens)
    b2 = buchberger(list(gens))
    assert b1 == b2


def test_buchberger_reduces_members():
    # inter-reduced: each member is its own normal form modulo the others
    sympy = pytest.importorskip("sympy")
    basis = buchberger([P("x**2 - y"), P("x*y - 1")])
    assert len(basis) > 1
    for g in basis:
        others = [sympy_expr(h, V) for h in basis if h is not g]
        _, remainder = sympy.reduced(sympy_expr(g, V), others, *sympy.symbols(V), order="lex")
        assert sympy.expand(remainder - sympy_expr(g, V)) == 0


def test_buchberger_pair_cap(monkeypatch):
    gens = [P("x**3*y - x"), P("x*y**3 - y"), P("x**2 + y**2 - 1")]
    monkeypatch.setattr(groebner, "DEFAULT_PAIR_CAP", 1)
    with pytest.raises(EliminationOverflowError):
        buchberger(gens)


def test_saturation_generators():
    # the new variable z comes first: (z, x, y)
    out = saturation_generators([P("x - y")], [P("x")])
    assert out == [int_poly("x - y", ("z", "x", "y")), int_poly("z*x - 1", ("z", "x", "y"))]


def test_groebner_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(42)
    sx, sy = sympy.symbols(V)
    for _ in range(8):
        gens = []
        for _ in range(2):
            terms = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-5, 5) for _ in range(3)}
            p = {m: c for m, c in terms.items() if c}
            if p:
                gens.append(p)
        if len(gens) < 2:
            continue
        mine = buchberger(gens)
        ref = sympy.groebner([sympy_expr(g, V) for g in gens], sx, sy, order="lex")
        mine_set = sorted(str(sympy_expr(g, V)) for g in mine)  # content-normalized
        ref_set = []  # primitive parts with a positive lex leading coefficient
        for p in ref.exprs:
            _, prim = sympy.primitive(sympy.expand(p))
            if sympy.Poly(prim, sx, sy).LC() < 0:
                prim = -prim
            ref_set.append(str(sympy.expand(prim)))
        ref_set.sort()
        assert mine_set == ref_set


# -- Sturm -------------------------------------------------------------------

def F(*ints):
    return [Fraction(i) for i in ints]


def test_count_real_roots():
    # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    p = F(-6, 11, -6, 1)
    assert count_real_roots(p) == 3
    assert count_real_roots(p, lo=Fraction(1), hi=Fraction(2)) == 1  # (1, 2]
    assert count_real_roots(p, lo=Fraction(0), hi=Fraction(1)) == 1  # root at b kept
    assert count_real_roots(p, lo=Fraction(1), hi=Fraction(3, 2)) == 0  # root at a dropped


def test_count_handles_multiple_roots():
    # (x-1)^2 (x+2): distinct roots are counted once
    p = F(2, -3, 0, 1)
    assert count_real_roots(p) == 2


def test_isolate_real_roots_exact():
    p = F(-6, 11, -6, 1)
    ivs = isolate_real_roots(p)
    assert len(ivs) == 3
    roots = [1, 2, 3]
    for iv, r in zip(ivs, roots):
        assert iv.lo < r <= iv.hi


def test_isolation_respects_window():
    p = F(-6, 11, -6, 1)
    ivs = isolate_real_roots(p, lo=Fraction(3, 2), hi=Fraction(5, 2))
    assert len(ivs) == 1
    assert ivs[0].lo < 2 <= ivs[0].hi


def test_bisect_to_width():
    p = F(-2, 0, 1)  # x^2 - 2
    (neg, pos) = isolate_real_roots(p)
    w = Fraction(1, 10**12)
    iv = bisect_to_width(pos, w)
    assert iv.width() <= w
    assert float(iv.midpoint()) == pytest.approx(2**0.5, abs=1e-10)


@pytest.mark.parametrize("width", [Fraction(-1), Fraction(0), 0, -1])
def test_bisect_to_width_rejects_a_nonpositive_width(width):
    # no refinement meets a width <= 0: it raises, naming the width
    iv = IsolatingInterval(Fraction(0), Fraction(3), (-2, 0, 1))
    with pytest.raises(ValueError, match=f"width must be positive, got {width}"):
        bisect_to_width(iv, width)


def test_bisect_to_width_on_exact_roots():
    w = Fraction(1, 8)
    # x(x - 1) on (0, 2]: lo is a root outside the interval, and the first
    # midpoint lands on the root inside it
    f = F(0, -1, 1)
    iv = bisect_to_width(IsolatingInterval(Fraction(0), Fraction(2), tuple(f)), w)
    assert (iv.lo, iv.hi) == (Fraction(7, 8), Fraction(1))
    assert count_real_roots(f, iv.lo, iv.hi) == 1
    # 16x^2 - 9 on (0, 3]: the second midpoint lands on the root 3/4
    f = [-9, 0, 16]
    iv = bisect_to_width(IsolatingInterval(Fraction(0), Fraction(3), tuple(f)), w)
    assert (iv.lo, iv.hi) == (Fraction(21, 32), Fraction(3, 4))
    assert count_real_roots(f, iv.lo, iv.hi) == 1


def _evaluations(monkeypatch) -> list:
    """The integer points at which sturm evaluates a polynomial from now on."""
    points = []
    horner = sturm._horner

    def counted(desc, n):
        points.append(n)
        return horner(desc, n)

    monkeypatch.setattr(sturm, "_horner", counted)
    return points


def test_refinement_edge_cases_match_halving(monkeypatch):
    cases = [
        ([0, -1, 1], 0, Fraction(3, 2)),  # lo is a root, f'(lo) < 0
        ([0, 2, -3, 1], 1, Fraction(5, 2)),  # lo is a root, f'(lo) < 0, root 2
        ([0, 2, -3, 1], 0, Fraction(3, 2)),  # lo is a root, f'(lo) > 0, root 1
        ([-9, 0, 16], Fraction(1, 2), Fraction(3, 4)),  # hi is a root
        ([-9, 0, 16], Fraction(1, 3), Fraction(3, 4)),  # hi is a root, off-grid lo
        ([-3, 8], 0, 1),  # degree 1, the root on a grid point
        ([-3, 8], Fraction(1, 3), Fraction(3, 8)),  # degree 1, the root at hi
        ([5, -7], 0, 1),  # degree 1, the root off the grid
    ]
    for f, lo, hi in cases:
        iv = IsolatingInterval(Fraction(lo), Fraction(hi), tuple(f))
        assert count_real_roots(f, iv.lo, iv.hi) == 1
        for width in (Fraction(1, 10**9), Fraction(1, 3), iv.width() / 2):
            assert bisect_to_width(iv, width) == halving_oracle(iv, width), (f, width)
    # a width already met returns the interval unevaluated; so does degree 1
    points = _evaluations(monkeypatch)
    iv = IsolatingInterval(Fraction(1), Fraction(2), (-2, 0, 1))
    for width in (Fraction(1), Fraction(2)):
        assert bisect_to_width(iv, width) == iv
    iv = IsolatingInterval(Fraction(0), Fraction(1), (5, -7))
    assert bisect_to_width(iv, Fraction(1, 10**20)).hi - Fraction(5, 7) < 10**-20
    assert points == []


def test_refinement_evaluation_counts(monkeypatch):
    width = Fraction(1, 10**20)
    points = _evaluations(monkeypatch)
    (_, sqrt2) = isolate_real_roots([-2, 0, 1])
    points.clear()
    iv = bisect_to_width(sqrt2, width)
    assert len(points) <= 20
    points.clear()
    assert halving_oracle(sqrt2, width) == iv
    assert len(points) >= 67
    # two roots 10^-30 apart, refined from intervals of width 1e-30 and about 1
    a = Fraction(7, 5)
    b = a + Fraction(1, 10**30)
    f = (int(a * b * 25 * 10**30), int(-(a + b) * 25 * 10**30), 25 * 10**30)
    ivs = isolate_real_roots(list(f)) + [
        IsolatingInterval(Fraction(0), (a + b) / 2, f),
        IsolatingInterval((a + b) / 2, Fraction(3), f),
    ]
    for iv in ivs:
        for width in (Fraction(1, 10**35), Fraction(1, 10**50)):
            points.clear()
            refined = bisect_to_width(iv, width)
            qir = len(points)
            points.clear()
            assert halving_oracle(iv, width) == refined
            assert qir <= 2 * len(points)


def test_proth_primes_have_their_form_and_bit_length():
    sympy = pytest.importorskip("sympy")
    for bits in (64, 256, 1024):
        p = resultants._proth_prime(bits)
        e = ((p - 1) & (1 - p)).bit_length() - 1  # p = k 2^e + 1, k odd
        assert p.bit_length() == bits and (p - 1) >> e < 2**e
        assert sympy.isprime(p)
        # the least such prime: every smaller odd k gives a composite
        k = (p - 1) >> e
        assert not any(sympy.isprime((j << e) + 1) for j in range((1 << e - 1) + 1, k, 2))


@pytest.mark.parametrize("bits, k", [(64, 37), (256, 95), (1024, 37)])
def test_least_proth_prime_of_each_size(bits, k):
    # p = (2^(e-1) + k) 2^e + 1 with e = bits / 2
    e = bits // 2
    assert resultants._proth_prime(bits) == ((1 << e - 1) + k << e) + 1


def test_squarefree_part():
    # (x-1)^3 (x+1) -> (x-1)(x+1) up to constant
    p = F(-1, 2, 0, -2, 1)
    sf = squarefree_part(p)
    assert len(sf) == 3
    quad = [c / sf[-1] for c in sf]
    assert quad == F(-1, 0, 1)


def test_count_real_roots_on_an_empty_interval():
    # (lo, hi] is empty when lo >= hi; x^2 - 2 has roots at -sqrt2, sqrt2
    f = [-2, 0, 1]
    assert count_real_roots(f, Fraction(2), Fraction(-2)) == 0
    assert count_real_roots(f, Fraction(1), Fraction(1)) == 0
    assert count_real_roots(f, Fraction(-2), Fraction(2)) == 2


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's result."""
    results, inner = [], getattr(module, name)

    def counted(*args):
        results.append(inner(*args))
        return results[-1]

    monkeypatch.setattr(module, name, counted)
    return results


def test_isolation_runs_no_prs_on_eliminants(monkeypatch):
    # the heuristic gcd gives the square-free part and Descartes' rule the
    # cells, so the eliminants take no pseudo-remainder
    prems = _counted(monkeypatch, sturm, "_prem")
    for blocks in ((2, 3, 2), (2, 4, 3)):
        eliminant, _ = _eliminate(build_system(BlockDecomposition(blocks)))
        assert isolate_real_roots(eliminant, lo=Fraction(0))
    assert prems == []


def test_heuristic_gcd_retries_after_a_failed_division(monkeypatch):
    # (x^2 - 3x + 1)^2: the first evaluation point gives a candidate that
    # does not divide, a later one gives the gcd x^2 - 3x + 1
    quotients = _counted(monkeypatch, sturm, "_quotient")
    prems = _counted(monkeypatch, sturm, "_prem")
    p = [1, -6, 11, -6, 1]
    assert squarefree_part(p) == [1, -3, 1] == squarefree_oracle(p)
    assert None in quotients and quotients[-1] is not None
    assert prems == []


@pytest.mark.parametrize("blocks", [(2, 3, 2), (2, 4, 3)])
def test_prs_fallback_matches_the_heuristic_gcd(monkeypatch, blocks):
    eliminant, _ = _eliminate(build_system(BlockDecomposition(blocks)))
    heuristic = squarefree_part(eliminant)
    monkeypatch.setattr(sturm, "_gcdheu", lambda f, g: None)
    prems = _counted(monkeypatch, sturm, "_prem")
    assert squarefree_part(eliminant) == heuristic
    assert prems


def test_isolation_is_not_bounded_by_the_recursion_limit():
    # a complex pair 10^-500 from 1/3, and two real roots 10^-400 apart, each
    # take more than a thousand bisection levels
    e = 10**1000
    assert isolate_real_roots([e + 1, -6 * e, 9 * e]) == []
    e = 10**400
    roots = [Fraction(1, 3), Fraction(1, 3) + Fraction(1, e)]
    ivs = isolate_real_roots([e + 3, -6 * e - 9, 9 * e])  # (3x - 1)(3e x - e - 3)
    assert len(ivs) == 2 and all(iv.lo < r <= iv.hi for iv, r in zip(ivs, roots))


def test_alternating_sign_check():
    assert alternating_sign_check(F(1, -3, 2))
    assert alternating_sign_check(F(5, 0, 2))  # zero coefficients allowed
    assert not alternating_sign_check(F(1, 3, 2))
    assert not alternating_sign_check([])


def test_squarefree_part_is_primitive_integer():
    # 3/4 (x - 1)^2 (2x + 1) and its negative -> 2x^2 - x - 1
    p = [Fraction(3, 4) * c for c in (1, 0, -3, 2)]
    for q in (p, [-c for c in p]):
        sf = squarefree_part(q)
        assert sf == [-1, -1, 2]
        assert all(type(c) is int for c in sf)


def test_isolation_is_scale_invariant():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    p = (x - 1) ** 2 * (x - 2) * (x + sympy.Rational(1, 3)) * (3 * x - 7)
    p = [Fraction(c) for c in reversed(sympy.Poly(p, x).all_coeffs())]
    ivs = isolate_real_roots(p)
    assert len(ivs) == 4
    assert ivs == isolate_real_roots([-Fraction(7, 3) * c for c in p])
    assert all(type(c) is int for iv in ivs for c in iv.coeffs)
