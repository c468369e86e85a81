"""Hypothesis properties of the Sturm layer's square-free parts, root
bound, root counts, isolation, interval points and refinement, and where
the isolation walk's two-root step runs."""

from __future__ import annotations

import math
from fractions import Fraction
from unittest import mock

import pytest

from stiefel_einstein import solver
from stiefel_einstein.polyalg import (
    IsolatingInterval,
    bisect_to_width,
    count_real_roots,
    descartes_bound,
    isolate_real_roots,
    squarefree_part,
    sturm,
)
from stiefel_einstein.polyalg.sturm import root_bound
from stiefel_einstein.so_algebra import BlockDecomposition
from helpers import (
    assert_isolates,
    count_oracle,
    halving_oracle,
    roots_below,
    simplest_oracle,
    squarefree_oracle,
)

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

# hi is itself a candidate, so the result's denominator is at most 1000 and
# the brute force below covers every smaller one
_rationals = st.builds(Fraction, st.integers(1, 10**5), st.integers(1, 1000))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_rationals, _rationals)
def test_simplest_has_least_denominator(a, b):
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    x = IsolatingInterval(lo, hi, (0, 1)).simplest()
    assert lo < x <= hi
    # no smaller denominator has a multiple in (lo, hi]
    for q in range(1, x.denominator):
        assert Fraction(math.floor(lo * q) + 1, q) > hi


def test_simplest_examples():
    def simplest(lo, hi):
        return IsolatingInterval(Fraction(lo), Fraction(hi), (0, 1)).simplest()

    assert simplest(0, 10) == 1  # the least of several integers
    assert simplest(1, Fraction(3, 2)) == Fraction(3, 2)  # lo is excluded
    assert simplest(0, Fraction(1, 10**30)) == Fraction(1, 10**30)
    assert simplest(Fraction(-7, 3), Fraction(-9, 4)) == Fraction(-9, 4)
    pi_bracket = (Fraction(314159, 10**5), Fraction(314160, 10**5))
    assert simplest(*pi_bracket) == Fraction(355, 113)


_signed = st.one_of(
    st.integers(-50, 50).map(Fraction),
    st.builds(Fraction, st.integers(-(10**5), 10**5), st.integers(1, 1000)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_signed, _signed, st.integers(0, 30))
def test_simplest_matches_the_fraction_walk(a, b, e):
    # the integer walk against the Fraction one, on negative and integer
    # endpoints, and on intervals down to width 10^-30 above a
    for lo, hi in ((a, b), (b, a), (a, a + Fraction(1, 10**e))):
        if lo < hi:
            assert IsolatingInterval(lo, hi, (0, 1)).simplest() == simplest_oracle(lo, hi)


def _times(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


# a linear factor d x - n with its root n/d, or a quadratic a x^2 + b x + c,
# each with a multiplicity
_linear = st.tuples(st.integers(-6, 6), st.integers(1, 4)).map(
    lambda r: ([-r[0], r[1]], Fraction(r[0], r[1]))
)
_quadratic = st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 3)).map(
    lambda c: (list(c), None)
)
_factors = st.lists(
    st.tuples(st.one_of(_linear, _quadratic), st.integers(1, 3)), min_size=1, max_size=4
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_factors, _signed)
@example(  # (x - 1)^3 (x + 2) (x^2 - 2)^2
    [(([-1, 1], Fraction(1)), 3), (([2, 1], Fraction(-2)), 1), (([-2, 0, 1], None), 2)],
    Fraction(0),
)
def test_one_prs_matches_the_two_prs_oracle(factors, point):
    # endpoints: +-infinity, every rational root (simple and multiple ones)
    # and a free point
    p, ends = [1], [None, point]
    for (coeffs, root), mult in factors:
        for _ in range(mult):
            p = _times(p, coeffs)
        if root is not None:
            ends.append(root)
    sf = squarefree_part(p)
    assert sf == squarefree_oracle(p)
    assert_isolates(isolate_real_roots(p), p)
    for lo in ends:
        for hi in ends:
            if lo is not None and hi is not None and lo >= hi:
                continue
            assert count_real_roots(p, lo, hi) == count_oracle(p, lo, hi), (lo, hi)
            assert_isolates(isolate_real_roots(p, lo, hi), p, lo, hi)



@settings(derandomize=True, max_examples=100, deadline=None)
@given(_factors, _signed, _signed)
def test_descartes_bound_covers_every_root_in_the_cell(factors, a, b):
    # at least the distinct roots in (lo, hi], up to 2, so 0 proves none;
    # the ends take every rational root, simple and multiple, and two
    # free points
    p, ends = [1], [a, b]
    for (coeffs, root), mult in factors:
        for _ in range(mult):
            p = _times(p, coeffs)
        if root is not None:
            ends.append(root)
    for lo in ends:
        for hi in ends:
            if lo < hi:
                assert min(count_oracle(p, lo, hi), 2) <= descartes_bound(p, lo, hi) <= 2


def _pair_steps():
    """A list that gets the result of every call of the two-root step, and
    the patch that records them."""
    results, step = [], sturm._pair

    def recorded(q, *args):
        results.append(step(q, *args))
        return results[-1]

    return results, mock.patch.object(sturm, "_pair", recorded)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_factors, st.integers(-6, 6), st.integers(1, 6), st.integers(12, 120),
       st.booleans())
def test_tight_pairs_match_the_two_prs_oracle(factors, k, r, e, real):
    # roots a and a + 2^-e, or a +- i 2^-e, times g; a = (7k + r) / 7 keeps
    # every root of g at least about 2^-12 away from a
    a = Fraction(7 * k + r, 7)
    n = a.numerator
    if real:
        p = _times([-n, 7], [-(n << e) - 7, 7 << e])
    else:
        p = _times([-(n << e), 7 << e], [-(n << e), 7 << e])
        p[0] += 49
    for (coeffs, _), mult in factors:
        for _ in range(mult):
            p = _times(p, coeffs)
    ends = [None, a - 1, a, a + 1]
    results, patch = _pair_steps()
    with patch:
        for lo in ends:
            for hi in ends:
                if lo is None or hi is None or lo < hi:
                    assert_isolates(isolate_real_roots(p, lo, hi), p, lo, hi)
    if real and e >= 24:
        assert any(cut is not None for cut in results)


def test_tight_x12_pairs_on_243_take_few_descartes_tests():
    # at the two eliminant roots on 7x^2 - 18x + 7 the x12 pivot has two real
    # roots about 2e-21 apart, which halving alone parts in 145 and 157 tests
    counts, where = {}, [None]
    univariate_at, descartes = solver._univariate_at, sturm._descartes
    system = solver.build_system(BlockDecomposition((2, 4, 3)))
    x12, x13 = map(system.variables.index, ("x12", "x13"))  # pivot columns

    def recorded_univariate_at(pivot, at, point):
        where[0] = (at, point[x13])
        return univariate_at(pivot, at, point)

    def counted_descartes(q, *args):
        counts[where[0]] = counts.get(where[0], 0) + 1
        return descartes(q, *args)

    with (mock.patch.object(solver, "_univariate_at", recorded_univariate_at),
          mock.patch.object(sturm, "_descartes", counted_descartes)):
        solver.solve(system)
    on_pair = [n for key, n in counts.items() if key and key[0] == x12
               and abs(7 * key[1] ** 2 - 18 * key[1] + 7) < 1e-9]
    assert len(on_pair) == 2 and max(on_pair) <= 40


def test_two_root_step_parts_no_pair_on_232_or_the_sweep():
    # (2,3,2) never reaches the step; on the sweep a few eliminant cells over
    # a complex pair reach it (n = 17..28), and the two-end check refuses each
    results, patch = _pair_steps()
    with patch:
        solver.solve(solver.build_system(BlockDecomposition((2, 3, 2))))
        assert results == []
        solver.sweep(list(range(6, 31)))
    assert not any(results)


# linear and quadratic factors with coefficients up to 2^200; the first has a
# multiplicity up to 12, as (x13 + 1)^12 in the eliminants, the others up to 3
_big = st.lists(st.integers(-(2**200), 2**200), min_size=2, max_size=3).filter(
    lambda c: c[-1]
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.tuples(_big, st.integers(1, 12)),
       st.lists(st.tuples(_big, st.integers(1, 3)), max_size=2))
def test_heuristic_squarefree_part_matches_the_prs_oracle(first, rest):
    p = [1]
    for coeffs, mult in [first, *rest]:
        for _ in range(mult):
            p = _times(p, coeffs)
    assert squarefree_part(p) == squarefree_oracle(p)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(st.integers(-(2**200), 2**200), _signed),
       st.one_of(st.integers(-(2**200), 2**200), _signed).filter(bool))
def test_linear_squarefree_part_takes_no_gcd(a, b):
    # a primitive linear list with a positive lead is its own square-free part
    with mock.patch.object(sturm, "_gcdheu", side_effect=AssertionError("gcd taken")):
        assert squarefree_part([a, b]) == squarefree_oracle([a, b])


# degree 1 to 12: coefficients of 1 to 300 bits, of either sign, each after a
# run of up to 3 zeros
_bound_coeffs = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from([0, 3, 40, 150, 299]),
              st.integers(0, 2**299), st.booleans()),
    min_size=1, max_size=8,
).map(lambda runs: [x for zeros, b, m, neg in runs
                    for x in [0] * zeros + [(-1) ** neg * ((1 << b) | m % (1 << b))]]
      ).filter(lambda c: 1 <= len(c) - 1 <= 12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_bound_coeffs)
@example([-(2**300) + 1, 1])  # the root 2^300 - 1 lies 1 below B = 2^300
@example([-2 * (2**299 - 1) ** 2, -(2**299 - 1), 1])  # Fujiwara's bound: a root, 2^300 - 2
def test_root_bound_is_a_power_of_two_above_every_root(c):
    bound = root_bound(c)
    assert (bound.numerator * bound.denominator).bit_count() == 1
    assert roots_below(c, bound)


def test_root_bound_edge_cases():
    for k in (0, 1, 40, 300):
        assert root_bound([-(2**k), 1]) == 2 ** (k + 1)  # x - 2^k
        assert root_bound([2**k, -1]) == 2 ** (k + 1)  # a negative lead
        # the oracle refuses a bound that a real or complex root reaches
        assert not roots_below([-(2**k), 1], Fraction(2**k))
        assert not roots_below([4**k, 0, 1], Fraction(2**k))  # roots +-2^k i
        assert roots_below([4**k, 0, 1], Fraction(2**k + 1))
    assert root_bound([0, 1]) == 1  # x: no coefficient below the lead
    assert root_bound([-1, 2**40]) == Fraction(1, 2**39)  # root 2^-40, B < 1


# the roots 8/16 .. 16/16 are 1 and midpoints of the halving of (0, 1]:
# 1/2, then 9/16 .. 15/16 four halvings deeper
_GRID = [1]
for _i in range(9):
    _GRID = _times(_GRID, [-(8 + _i), 16])


@pytest.mark.parametrize("p", [_GRID, _times(_GRID, [-21, 20])],
                         ids=["grid_roots", "grid_roots_and_a_root_past_hi"])
def test_roots_on_midpoints_end_their_cells(p):
    # a root on a midpoint is the hi of the left cell, and refinement keeps it
    ivs = isolate_real_roots(p, lo=Fraction(0), hi=Fraction(1))
    assert len(ivs) == 9
    assert_isolates(ivs, p, Fraction(0), Fraction(1))
    for iv in ivs:
        assert sum(c * iv.hi**i for i, c in enumerate(p)) == 0
        assert count_real_roots(p, iv.lo, iv.hi) == 1
        assert bisect_to_width(iv, Fraction(1, 10**20)).hi == iv.hi


_widths = st.builds(lambda p, e: Fraction(p, 10**e), st.integers(1, 9), st.integers(0, 30))
_coeffs = st.lists(st.integers(-30, 30), min_size=2, max_size=7).filter(lambda c: c[-1])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_coeffs, _widths)
def test_refinement_matches_halving(coeffs, width):
    for iv in isolate_real_roots(squarefree_part(coeffs)):
        assert bisect_to_width(iv, width) == halving_oracle(iv, width)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(_rationals, min_size=1, max_size=3, unique=True),
    st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(lambda c: c[-1]),
    st.integers(0, 60),
    st.integers(0, 2**60),
    st.fractions(0, 1).filter(lambda u: u < 1),
)
def test_refinement_matches_halving_with_roots_on_the_grid(roots, cofactor, levels,
                                                           k, u):
    # a rational root r is grid point k of (lo, hi] at the halving level that
    # width asks for, 1 <= k <= 2^levels (k = 2^levels puts r at hi)
    f = cofactor
    for r in roots:
        f = _times(f, [-r.numerator, r.denominator])
    f = squarefree_part(f)
    r = roots[0]
    iv = next(iv for iv in isolate_real_roots(f) if iv.lo < r <= iv.hi)
    cells = 2**levels
    k = 1 + k % cells
    step = (r - iv.lo) / cells
    if iv.hi > r:
        step = min(step, (iv.hi - r) / cells)
    else:  # r is the hi of its isolating interval, and stays hi
        k = cells
    grid = IsolatingInterval(r - k * step, r + (cells - k) * step, iv.coeffs)
    width = step * (1 + u)
    assert bisect_to_width(grid, width) == halving_oracle(grid, width)
