"""The modular resultant against the Sylvester determinant, and its budget.

The oracle is the determinant of sympy's Sylvester matrix, which is the
definition of the resultant.  sympy.resultant agrees with it except when
deg p < deg q with both degrees odd: there it returns Res(q, p), e.g. 1 for
Res_x(x + 1, x^3), whose Sylvester determinant is -1.
"""

from __future__ import annotations

import math
from unittest.mock import patch

import pytest

from stiefel_einstein.errors import EliminationOverflowError
from stiefel_einstein.polyalg import eliminate_resultant, resultant, resultants
from stiefel_einstein.so_algebra import BlockDecomposition
from stiefel_einstein.solver import build_system

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.subresultants_qq_zz import sylvester  # noqa: E402

from helpers import (  # noqa: E402
    divides, int_poly, sympy_expr, tool, traced_solve, univariate, window_oracle,
)

V = ("x", "y", "z")
X, Y, Z = sympy.symbols(V)
# the prime that a Goldstein-Graham bound below 2^62 picks
P64 = resultants._proth_prime(64)


def P(expr) -> dict:
    """The integer polynomial in x, y and z that the sympy expression spells."""
    return int_poly(expr, V)


def _matches_sylvester(p, q) -> bool:
    """Whether Res_x(p, q), for sympy expressions p and q with integer
    coefficients, is the determinant of their Sylvester matrix over Z[y, z]."""
    want = DomainMatrix.from_Matrix(sylvester(p, q, X)).convert_to(sympy.ZZ[Y, Z]).det()
    return sympy.expand(sympy_expr(resultant(P(p), P(q), 0, "x"), V) - want.as_expr()) == 0


CASES = {
    # the kernel takes integer polynomials that need not be primitive
    "content": (12 * X**2 + 18 * X * Y - 16, 15 * X**2 - 21 * Y**2 * X + 7),
    "three_variables": (X**2 * Y + Z * X - 1, X**3 - Y * Z + Z**2 * X),
    "shared_factor": ((X - Y * Z) * (X + 1), (X - Y * Z) * (X**2 - 3)),
    # the leading coefficient y vanishes at y = 0, the first point tried
    "lc_vanishes_at_a_point": (Y * X**2 + X + 1, X**2 - Y),
    # deg p < deg q, both odd: Res(p, q) = -Res(q, p)
    "odd_degrees_swapped": (X**3 + Y, X**5 - 2 * Y * X + 5),
    "constant_in_var": (Y**2 + 1, X**2 + Y),
    # no other variable: the Euclid's denominator is divided out mod the prime
    "univariate": (2 * X**3 + X + 1, 3 * X**2 - 2),
    # against an operand of degree 0 the bound leaves out the other operand:
    # it picks P64, at which the other lead vanishes; Res is the constant
    # cubed, in either order
    "lead_vanishes_against_degree_0": (P64 * X**3 + X + Y, Y**2 + 3),
    "degree_0_against_vanishing_lead": (Y**2 + 3, P64 * X**3 + X + Y),
    # the windows, y in [4, 5] and z in [2, 5], are the result's exponent ranges
    "window_above_zero": (Y * X**2 + Z * Y**2, Z * X**2 - Y * Z**2 * X + Y * Z),
}


@pytest.mark.parametrize("p, q", CASES.values(), ids=CASES.keys())
def test_resultant_matches_sylvester_determinant(p, q):
    assert _matches_sylvester(p, q)


def test_resultant_sign_and_zero():
    assert resultant(P(X + Y), P(X**3 - 2 * Y * X + 5), 0, "x") == P(-(Y**3) + 2 * Y**2 + 5)
    assert resultant(P(X**3 - 2 * Y * X + 5), P(X + Y), 0, "x") == P(Y**3 - 2 * Y**2 - 5)
    assert resultant(*map(P, CASES["shared_factor"]), 0, "x") == {}


def test_resultant_without_permutation_is_zero_before_evaluating(monkeypatch):
    # the four Sylvester rows of Res_x(x^2, x^2) put their only nonzero
    # entries in the first two columns, so no permutation avoids the zero
    # entries; in the second pair no row reaches the last two columns
    def evaluate(*args):
        raise AssertionError("evaluation started")

    monkeypatch.setattr(resultants, "_res_mod", evaluate)
    assert resultant(P(X**2), P(X**2), 0, "x") == {}
    assert resultant(P(X**2 * Y), P(X**3 + X**2 * Z), 0, "x") == {}


# the leading coefficient vanishes at y = 3, inside the first run y = 2 .. 6,
# and in the trivariate case also at z = 2, the first point of every run in z
RESTART_CASES = {
    "bivariate": ((Y - 3) * X**2 + X + Y, X**2 - Y * X + 2),
    "trivariate": ((Y - 3) * (Z - 2) * X**2 + Z * X + Y, X**2 - Y * Z * X + Z + 2),
}


@pytest.mark.parametrize("p, q", RESTART_CASES.values(), ids=RESTART_CASES.keys())
def test_run_restarts_after_a_vanishing_leading_coefficient(p, q, monkeypatch):
    skipped = []

    def recording_run(*args):
        s = run(*args)
        skipped.append(s > 2)
        return s

    run = resultants._run
    monkeypatch.setattr(resultants, "_run", recording_run)
    assert _matches_sylvester(p, q)
    assert any(skipped)


def test_generators_eliminate_as_their_primitive_parts():
    # elimination strips each generator's content, sign and monomial factor
    circle, line = X**2 + Y**2 - 4, X - Y
    want = eliminate_resultant([P(circle), P(line)], V, "y")
    for scaled in ([3 * circle, 2 * line], [-3 * circle, -2 * line], [Y * circle, X * Z * line]):
        assert eliminate_resultant(list(map(P, scaled)), V, "y") == want
    # Res_x(yx + 1, x^2 - 2) = 1 - 2y^2 leads with -2: the strip negates it
    elim = eliminate_resultant([P(3 * (X**2 - 2)), P(-5 * (Y * X + 1))], V, "y")
    assert elim[:2] == (P(2 * Y**2 - 1), [("x", P(Y * X + 1))])
    # the eliminant is the resultant of the pivot with x^2 - 2, its partner
    assert elim[2] == P(X**2 - 2)


def _shifted(terms: dict, a: int, b: int) -> dict:
    """terms times y^a z^b."""
    return {(m[0], m[1] + a, m[2] + b): c for m, c in terms.items()}


_small_bivariate = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.just(0)),
    st.integers(-9, 9).filter(bool),
    min_size=1,
    max_size=5,
).map(lambda terms: sympy_expr(terms, V))


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(_small_bivariate, _small_bivariate)
def test_resultant_matches_sylvester_on_random_bivariates(p, q):
    assert _matches_sylvester(p, q)


# a monomial factor in y and z lifts the lower ends of their windows
_small_trivariate = st.builds(
    lambda terms, a, b: sympy_expr(_shifted(terms, a, b), V),
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        st.integers(-9, 9).filter(bool),
        min_size=2,
        max_size=4,
    ),
    st.integers(0, 2),
    st.integers(0, 2),
)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(_small_trivariate, _small_trivariate)
def test_resultant_matches_sylvester_on_random_trivariates(p, q):
    assert _matches_sylvester(p, q)


# a polynomial of exactly the given degree in x, with integer coefficients
# in y and z and a monomial factor in y and z
_integer = st.integers(-36, 36).filter(bool)
_exponent = st.integers(0, 2)


def _of_degree_in_x(d: int):
    return st.builds(
        lambda lead, terms, a, b: sympy_expr(_shifted({**terms, lead[0]: lead[1]}, a, b), V),
        st.tuples(st.tuples(st.just(d), _exponent, _exponent), _integer),
        st.dictionaries(st.tuples(st.integers(0, d), _exponent, _exponent), _integer,
                        max_size=3),
        _exponent,
        _exponent,
    )


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_of_degree_in_x(1), st.integers(0, 4).flatmap(_of_degree_in_x), st.booleans())
def test_closed_form_matches_sylvester(linear, other, linear_second):
    p, q = (other, linear) if linear_second else (linear, other)
    assert _matches_sylvester(p, q)


def test_linear_operand_never_evaluates(monkeypatch):
    def evaluate(*args):
        raise AssertionError("evaluation started")

    monkeypatch.setattr(resultants, "_res_mod", evaluate)
    cases = [
        (Y * X + Z, X**3 - Y * Z * X + 5),  # deg q odd
        (X**4 - Y * X**2 + Z, 2 * Z * X - 3 * Y),  # only q linear
        (X**3 + Y * X - Z, 2 * Z * X - 3 * Y),  # only q linear, deg p odd
        (Y * X - 1, Z**2 + Y),  # q constant in x
        (X - Y * Z, X + 2 * Z),  # both linear
        (X + Y, X**3 - 2 * Y * X + 5),  # deg p < deg q, both odd
        ((2**1023 + 1) * X**2 + X + Y, X - Y),  # a 1024-bit coefficient
        (Y * X**2 + Z * Y**2, Z * X - Y * Z**2 + Y * Z),
        (X, X),  # no permutation avoids the zero entries
        (X * Y, X**2 + X * Z),
    ]
    for p, q in cases:
        assert _matches_sylvester(p, q)
    assert resultant(P((X - Y) * (X + 1)), P((X - Y) * Z), 0, "x") == {}


def _sylvester_mod(a: list[int], b: list[int], p: int) -> int:
    x = sympy.Symbol("x")
    poly_a, poly_b = (sympy.Poly(c[::-1], x).as_expr() for c in (a, b))
    return int(DomainMatrix.from_Matrix(sylvester(poly_a, poly_b, x)).convert_to(
        sympy.ZZ).det()) % p


def _res_batch(pairs: list[tuple[list[int], list[int]]], p: int) -> list[int]:
    """Res of each pair mod p, by one batched Euclid over pairs of shared degrees."""
    a, b = ([list(column) for column in zip(*side)] for side in zip(*pairs))
    nums, dens = resultants._res_batch(a, b, p)
    return [u * pow(v, -1, p) % p for u, v in zip(nums, dens)]


UNIVARIATE_CASES = {
    "deg_a_below_deg_b": ([2, 1], [1, 1, 0, 3]),
    # x + 1 divides x^2 + 3x + 2: the first remainder is zero
    "zero_remainder": ([2, 3, 1], [1, 1]),
    # degrees 4, 3, 1, 0: the second step divides x^3 + x + 5 by x + 2
    "degree_drop": ([17, 9, 1, 3, 1], [5, 1, 0, 1]),
    "degree_drop_with_leads": ([17, 9, 1, 3, 7], [5, 1, 0, 2]),
    "constants": ([4], [9]),
    "negative_residues": ([P64 - 2, 5, P64 - 3], [1, P64 - 1]),
    # the division steps go in pairs: an even degree gap m - n adds one
    # step, and gaps of 2 and more take more than one pass
    "gap_0": ([3, 1, 2], [5, 7, 4]),
    "gap_1": ([3, 1, 2, 6], [5, 7, 4]),
    "gap_2": ([1, 2, 3, 4, 5], [6, 7, 8]),
    "gap_3": ([1, 0, 2, 0, 3, 5], [2, 1, 3]),
    "gap_5": ([4, 1, 0, 2, 9, 3, 7], [2, 5]),
    "constant_a": ([5], [1, 2, 3]),
    "constant_b": ([1, 2, 3, 4], [7]),
}


@pytest.mark.parametrize("a, b", UNIVARIATE_CASES.values(), ids=UNIVARIATE_CASES.keys())
def test_univariate_resultant_matches_sylvester_mod_p(a, b):
    assert _res_batch([(a, b)], P64) == [_sylvester_mod(a, b, P64)]


# small coefficients make remainders drop degree or vanish; residues do not
_coefficient = st.one_of(st.integers(0, 3), st.integers(0, P64 - 1))
_univariate_mod_p = st.builds(
    lambda low, lead: low + [lead],
    st.lists(_coefficient, max_size=6),
    st.integers(1, P64 - 1),
)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_univariate_mod_p, _univariate_mod_p)
def test_univariate_resultant_matches_sylvester_on_random_lists(a, b):
    assert _res_batch([(a, b)], P64) == [_sylvester_mod(a, b, P64)]


# degrees 4 and 3 in each pair; the first remainder has degree 2, degree 1
# (the degree_drop case above), or vanishes: x^3 + x + 1 divides the first
DIVERGING = [
    ([1, 2, 3, 4, 5], [6, 7, 8, 9]),
    ([17, 9, 1, 3, 1], [5, 1, 0, 1]),
    ([2, 3, 1, 2, 1], [1, 1, 0, 1]),
]


@pytest.mark.parametrize("pairs", [
    DIVERGING, DIVERGING[::-1], DIVERGING[1:] + DIVERGING[:1] * 2, DIVERGING[2:],
], ids=["three_degrees", "reversed", "repeated", "one_zero"])
def test_batched_euclid_splits_where_remainder_degrees_diverge(pairs):
    assert _res_batch(pairs, P64) == [_sylvester_mod(a, b, P64) for a, b in pairs]


@st.composite
def _batches(draw):
    """Pairs of ascending lists mod P64 sharing their degrees, leads nonzero;
    small coefficients make remainder degrees differ between pairs."""
    m, n, size = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(1, 5))
    lead = st.one_of(st.integers(1, 3), st.integers(1, P64 - 1))

    def poly(d):
        return draw(st.lists(_coefficient, min_size=d, max_size=d)) + [draw(lead)]

    return [(poly(m), poly(n)) for _ in range(size)]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_batches())
def test_batched_euclid_matches_sylvester_on_random_batches(pairs):
    assert _res_batch(pairs, P64) == [_sylvester_mod(a, b, P64) for a, b in pairs]


def _sparse(others: int):
    """An integer polynomial keyed (exponents of the other variables, exponent
    of x), as resultants._windows takes it, of positive degree in x."""
    return st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * others, st.integers(0, 3)),
        st.integers(-9, 9).filter(bool),
        min_size=2,
        max_size=6,
    ).filter(lambda h: max(m[-1] for m in h) > 0)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.integers(1, 2).flatmap(lambda k: st.tuples(_sparse(k), _sparse(k))))
def test_newton_windows_lie_in_the_assignment_windows_and_hold_the_determinant(pair):
    f, g = pair
    df, dg = (max(m[-1] for m in h) for h in pair)
    windows, oracle = resultants._windows(f, g, df, dg), window_oracle(f, g, df, dg)
    others, x = sympy.symbols(f"y:{len(next(iter(f))) - 1}"), sympy.Symbol("x")
    f_expr, g_expr = (sympy.Add(*(
        c * x**m[-1] * sympy.Mul(*(y**e for y, e in zip(others, m))) for m, c in h.items()
    )) for h in pair)
    # the determinant over Z[others], as a polynomial keyed by exponent tuples
    det = DomainMatrix.from_Matrix(sylvester(f_expr, g_expr, x)).convert_to(
        sympy.ZZ[others]).det()
    assert (windows is None) == (oracle is None)
    if windows is None:
        assert not det
        return
    assert all(olo <= lo <= hi <= ohi for (lo, hi, _, _), (olo, ohi) in zip(windows, oracle))
    for exponents in det.monoms() if det else ():
        assert all(lo <= e <= hi for e, (lo, hi, _, _) in zip(exponents, windows))


def _holds(window: tuple[int, int, int, int], r: dict) -> bool:
    """Whether r, keyed (y-exponent, 0), has its y-exponents in [lo, hi] and
    is divided by (y - 1)^up (y + 1)^down, by sympy's remainder."""
    lo, hi, up, down = window
    coeffs = univariate(r, 0)
    factor = sympy.Poly((Y - 1)**up * (Y + 1)**down, Y).all_coeffs()[::-1]
    return (len(coeffs) - 1 <= hi and not any(coeffs[:lo])
            and divides([int(c) for c in factor], coeffs))


def test_windows_tighten_the_assignment_windows_on_every_shape_up_to_n8():
    refined = 0
    for blocks in tool("solve_digest").shapes(8):
        # one modular resultant per shape, in x12 with x13 left
        ((args, _, got),) = traced_solve(blocks).windows
        ((olo, ohi),), ((lo, hi, up, down),) = window_oracle(*args), got
        assert hi == ohi and olo <= lo
        if ohi - olo + 1 < resultants.REFINE_POINTS:
            assert (lo, up, down) == (olo, 0, 0)
            continue
        # the window holds the resultant interpolated on [olo, ohi]
        refined += 1
        with patch.object(resultants, "REFINE_POINTS", math.inf):
            assert _holds(got[0], resultant(*args[:2], 1, "x"))
    assert refined == 10


def test_windows_hold_every_exponent_of_the_232_resultants(monkeypatch):
    # five of the six resultants have a pivot linear in the eliminated
    # variable and take the closed form, which needs no windows
    calls, resultant_calls = [], []

    def recording_windows(*args):
        calls.append(windows(*args))
        return calls[-1]

    def checked_resultant(f, g, i, var):
        resultant_calls.append(var)
        before = len(calls)
        r = res(f, g, i, var)
        if len(calls) == before:
            return r
        # windows cover the other variables that f or g uses, in order
        used = {j for h in (f, g) for m in h for j, e in enumerate(m) if e}
        others = [j for j in sorted(used) if j != i]
        assert len(others) == len(calls[-1])
        for j, (lo, hi, _, _) in zip(others, calls[-1]):
            assert lo <= min(m[j] for m in r) and max(m[j] for m in r) <= hi
        return r

    windows, res = resultants._windows, resultants.resultant
    monkeypatch.setattr(resultants, "_windows", recording_windows)
    monkeypatch.setattr(resultants, "resultant", checked_resultant)
    system = build_system(BlockDecomposition((2, 3, 2)))
    resultants.eliminate_resultant(system.polys, system.variables, "x13")
    assert len(resultant_calls) == 6 and len(calls) == 1
    # the last step, in x12, interpolates x13 (the only other variable left)
    # over 96 - 28 - 8 - 4 + 1 = 57 points (81 from the orders at x13 = 0 of
    # the coefficients alone, 161 from the row-sum degree bound); the result
    # has x13-degree 80 and orders 40, 10 and 8 at x13 = 0, 1 and -1
    assert calls[-1] == [(28, 96, 8, 4)]


@st.composite
def _meeting(draw):
    """f and g that meet in (x - s)^2 at y = 0, f with a factor (y - t)^k:
    f = (y - t)^k ((x - s)^2 (a + b y) + y u), g = (x - s)^2 (c + d y) + y v,
    a and c nonzero, u and v of degree at most 2 and 3 in x and 1 in y."""
    s, t = (draw(st.sampled_from((1, -1))) for _ in range(2))
    k = draw(st.integers(1, 2))
    a, c = draw(_integer), draw(_integer)
    b, d = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))

    def small(dx):
        return sympy_expr(draw(st.dictionaries(
            st.tuples(st.integers(0, dx), st.integers(0, 1), st.just(0)),
            st.integers(-5, 5).filter(bool), max_size=4)), V)

    return ((Y - t)**k * ((X - s)**2 * (a + b * Y) + Y * small(2)),
            (X - s)**2 * (c + d * Y) + Y * small(3))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_meeting())
def test_refined_windows_take_fewer_points_and_match_sylvester(pair):
    # the cut-off only weighs the bounds' cost: at 0 every window is refined
    def recording(*args):
        calls.append((args, windows(*args)))
        return calls[-1][1]

    calls, windows = [], resultants._windows
    with patch.object(resultants, "REFINE_POINTS", 0), \
            patch.object(resultants, "_windows", recording):
        r = resultant(*map(P, pair), 0, "x")
    # the Sylvester determinant over Z[y]
    det = DomainMatrix.from_Matrix(sylvester(*pair, X)).convert_to(sympy.ZZ[Y]).det()
    assert sympy.expand(sympy_expr(r, V) - det.as_expr()) == 0
    ((args, got),) = calls
    with patch.object(resultants, "REFINE_POINTS", math.inf):
        ((plo, phi, _, _),) = windows(*args)
    if got is not None:  # None: the operands share a factor, and Res is 0
        # the roots of f at x = s raise lo; (y - t)^k gives up or down
        ((lo, hi, up, down),) = got
        assert lo > plo and up + down > 0 and hi == phi
        assert hi - lo - up - down < phi - plo


# Res is 0: x - 1 or x + 1 divides both, or the factor x + y - 1 they share
# leaves bounds at y = 0, 1 and -1 that add up past the degree bound
SHARED = {
    "x_minus_1": ((X - 1) * (X**2 + Y), (X - 1) * (X**2 - Y + 2)),
    "x_plus_1": ((X + 1) * (Y * X**2 + 1), (X + 1)**2 * (X - Y)),
    "past_the_degree": (X * (Y + 1) * (X + Y - 1), (X - 1) * (Y - 1) * (Y + 1)**2 * (X + Y - 1)),
}


@pytest.mark.parametrize("p, q", SHARED.values(), ids=SHARED.keys())
def test_refined_windows_find_a_zero_resultant_before_evaluating(p, q, monkeypatch):
    assert _matches_sylvester(p, q)

    def evaluate(*args):
        raise AssertionError("evaluation started")

    monkeypatch.setattr(resultants, "REFINE_POINTS", 0)
    monkeypatch.setattr(resultants, "_res_mod", evaluate)
    assert resultant(P(p), P(q), 0, "x") == {}


def test_resultant_budget_refuses_before_evaluating(monkeypatch):
    def evaluate(*args):
        raise AssertionError("evaluation started")

    monkeypatch.setattr(resultants, "_res_mod", evaluate)
    p = X**30 + 10**90 * Y**200 * X + Z**150
    q = X**25 - 7**120 * Y**100 * Z**200 + 1
    with pytest.raises(EliminationOverflowError, match="budget"):
        resultant(P(p), P(q), 0, "x")
