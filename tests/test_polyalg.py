"""Exact polynomial arithmetic, elimination, and Sturm root isolation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from stiefel_einstein.errors import (
    DivisibilityError,
    DomainError,
    EliminationOverflowError,
)
from stiefel_einstein.polyalg import (
    IsolatingInterval,
    RationalPoly,
    alternating_sign_check,
    bisect_to_width,
    buchberger,
    count_real_roots,
    eliminate_resultant,
    isolate_real_roots,
    poly_gcd,
    reduce_poly,
    resultant,
    s_polynomial,
    saturation_generators,
    squarefree_part,
    sturm_chain,
)

V = ("x", "y")


def P(expr_terms: dict) -> RationalPoly:
    return RationalPoly(V, {m: Fraction(c) for m, c in expr_terms.items()})


X = RationalPoly.var(V, "x")
Y = RationalPoly.var(V, "y")


# -- arithmetic --------------------------------------------------------------

def test_poly_arithmetic():
    p = (X + Y) ** 2
    assert p == X**2 + 2 * X * Y + Y**2
    assert (p - p).is_zero()
    assert (X * Y).degree("x") == 1
    assert ((X + 1) * (X - 1)) == X**2 - 1


def test_exact_div_and_error():
    p = (X**2 - Y**2).exact_div(X - Y)
    assert p == X + Y
    with pytest.raises(DivisibilityError):
        (X**2 + 1).exact_div(X - Y)


def test_div_by_scalar():
    p = (2 * X + 4 * Y) / 2
    assert p == X + 2 * Y
    assert (X / Fraction(1, 3)) == 3 * X
    assert 6 / (3 * X**0) == RationalPoly.const(V, 2)


def test_div_by_term_gives_negative_exponents():
    p = (X + Y**2) / (2 * X**2 * Y)
    assert p.terms == {(-1, -1): Fraction(1, 2), (-2, 1): Fraction(1, 2)}
    assert (1 / X).terms == {(-1, 0): Fraction(1)}
    assert (p * (2 * X**2 * Y)) == X + Y**2


def test_div_by_multi_term_is_domain_error():
    with pytest.raises(DomainError):
        X / (X + Y)
    with pytest.raises(DomainError):
        1 / (X + 1)


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        X / 0
    with pytest.raises(ZeroDivisionError):
        X / RationalPoly.zero(V)


def test_cleared_shifts_only_negative_variables():
    p = RationalPoly(V, {(-2, 1): Fraction(1), (1, 2): Fraction(1)})
    # x^-2 y + x y^2 -> y + x^3 y^2: x shifts by 2, y (minimum 1) not at all
    assert p.cleared() == Y + X**3 * Y**2
    assert (X + Y).cleared() == X + Y
    assert RationalPoly.zero(V).cleared().is_zero()


def test_primitive_and_content():
    p = 6 * X**2 + 9 * Y
    assert p.content() == 3
    assert p.primitive() == 2 * X**2 + 3 * Y
    q = Fraction(1, 2) * X + Fraction(1, 3)
    assert q.primitive() == 3 * X + 2


def test_eval_and_subs():
    p = X**2 * Y - 2 * Y + 3
    q = p.subs({"y": Fraction(1)})
    assert q == X**2 + 1


def test_univariate_coeff_roundtrip():
    p = 3 * X**4 - X + 7
    coeffs = p.univariate_coeffs("x")
    assert coeffs == [Fraction(7), Fraction(-1), Fraction(0), Fraction(0), Fraction(3)]
    back = sum(c * X**e for e, c in enumerate(coeffs))
    assert back == p


# -- gcd and resultants ------------------------------------------------------

def test_poly_gcd_univariate():
    f = (X - 1) ** 2 * (X + 2)
    g = (X - 1) * (X + 3)
    assert poly_gcd(f, g).primitive() == (X - 1).primitive()


def test_poly_gcd_multivariate():
    common = X * Y - 1
    f = common * (X + Y)
    g = common * (X - 2 * Y + 1)
    got = poly_gcd(f, g).primitive()
    assert got == common or got == -common


def test_resultant_known_value():
    # res_x(x^2 - 1, x - 2) = (2)^2 - 1 = 3
    f = X**2 - 1
    g = X - 2
    r = resultant(f, g, "x")
    assert r == RationalPoly.const(V, 3)


def test_resultant_detects_common_root():
    f = (X - Y) * (X + 1)
    g = (X - Y) * (X - 3)
    assert resultant(f, g, "x").is_zero()


def test_resultant_of_quadratics():
    # res_x(x^2 + y, x^2 - y) = (2y)^2
    f = X**2 + Y
    g = X**2 - Y
    r = resultant(f, g, "x")
    assert r == 4 * Y**2 or r == (4 * Y**2) * Fraction(1)


def test_eliminate_resultant_circle_line():
    circle = X**2 + Y**2 - 4
    line = X - Y
    elim, _ = eliminate_resultant([circle, line], "y")
    coeffs = elim.reorder(("y",)).univariate_coeffs("y")
    # roots must be y = +-sqrt(2)
    w = Fraction(1, 10**9)
    roots = [
        float(bisect_to_width(iv, w).midpoint())
        for iv in isolate_real_roots(coeffs)
    ]
    assert roots == pytest.approx([-(2**0.5), 2**0.5], abs=1e-6)


# -- Groebner bases ----------------------------------------------------------

def test_buchberger_simple_lex():
    # <x^2 + y^2 - 1, x - y>: eliminant 2y^2 - 1
    basis = buchberger([X**2 + Y**2 - 1, X - Y])
    univ = [g for g in basis if g.variables_used() <= {"y"}]
    assert len(univ) == 1
    assert univ[0].monic() == (Y**2 - Fraction(1, 2)).monic()


def test_buchberger_is_deterministic():
    gens = [X**2 * Y - 1, X * Y**2 - X]
    b1 = buchberger(gens)
    b2 = buchberger(list(gens))
    assert b1 == b2


def test_buchberger_reduces_members():
    basis = buchberger([X**2 - Y, X * Y - 1])
    for g in basis:
        others = [h for h in basis if h is not g]
        assert reduce_poly(g, others) == g  # inter-reduced


def test_buchberger_pair_cap():
    gens = [X**3 * Y - X, X * Y**3 - Y, X**2 + Y**2 - 1]
    with pytest.raises(EliminationOverflowError):
        buchberger(gens, max_pair_reductions=1)


def test_s_polynomial():
    s = s_polynomial(X**2 + Y, X * Y + 1)
    # S = y(x^2 + y) - x(xy + 1) = y^2 - x
    assert s.monic() == (Y**2 - X).monic()


def test_saturation_generators():
    out = saturation_generators([X - Y], [X])
    assert out[0].vars == ("z", "x", "y")
    z = RationalPoly.var(("z", "x", "y"), "z")
    xs = RationalPoly.var(("z", "x", "y"), "x")
    assert out[-1] == z * xs - 1


def test_groebner_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(42)
    sx, sy = sympy.symbols("x y")
    for _ in range(8):
        gens = []
        for _ in range(2):
            terms = {
                (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-5, 5))
                for _ in range(3)
            }
            p = RationalPoly(V, {m: c for m, c in terms.items() if c})
            if not p.is_zero():
                gens.append(p)
        if len(gens) < 2:
            continue
        mine = buchberger(gens)
        s_gens = [
            sum(
                sympy.Rational(c) * sx**m[0] * sy**m[1]
                for m, c in g.terms.items()
            )
            for g in gens
        ]
        ref = sympy.groebner(s_gens, sx, sy, order="lex")
        mine_set = sorted(
            str(sympy.expand(sum(
                sympy.Rational(c) * sx**m[0] * sy**m[1]
                for m, c in g.monic().terms.items()
            )))
            for g in mine
        )
        ref_set = sorted(
            str(sympy.Poly(p, sx, sy).monic().as_expr()) for p in ref.exprs
        )
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


def test_squarefree_part():
    # (x-1)^3 (x+1) -> (x-1)(x+1) up to constant
    p = F(-1, 2, 0, -2, 1)
    sf = squarefree_part(p)
    assert len(sf) == 3
    quad = [c / sf[-1] for c in sf]
    assert quad == F(-1, 0, 1)


def test_sturm_chain_shape():
    chain = sturm_chain(F(-2, 0, 1))
    assert len(chain) >= 2
    assert chain[1] == F(0, 2)


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
    p = ((X - 1) ** 2 * (X - 2) * (X + Fraction(1, 3)) * (3 * X - 7)).univariate_coeffs("x")
    ivs = isolate_real_roots(p)
    assert len(ivs) == 4
    assert ivs == isolate_real_roots([-Fraction(7, 3) * c for c in p])
    assert all(type(c) is int for iv in ivs for c in iv.coeffs)
