"""Golden closed-form data: eliminant factors, classical points, brackets."""

from __future__ import annotations

from fractions import Fraction

import pytest

from stiefel_einstein.errors import DomainError
from stiefel_einstein.fixtures import (
    V5R7_232_H1_DESC,
    V5R7_142_H2_DESC,
    alpha2_bounds,
    alpha12_bounds,
    alpha13_bounds,
    beta2_bounds,
    beta12_bounds,
    beta13_bounds,
    h1_coeffs,
    h2_coeffs,
    h3_coeffs,
    jensen_x2,
    jensen_x2_142,
    sqrt_fraction,
    v5r7_232_h1_coeffs,
    v5r7_142_h2_coeffs,
    verify_golden,
)
from stiefel_einstein.polyalg import alternating_sign_check, count_real_roots

from helpers import times_x_minus_1


def _eval(coeffs, x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def test_h1_values_at_n6():
    h1 = h1_coeffs(6)
    assert len(h1) == 11
    assert _eval(h1, Fraction(0)) == 7552125
    assert _eval(h1, Fraction(1)) == -222400


def test_h1_sign_pattern_all_n():
    for n in range(6, 51):
        h1 = h1_coeffs(n)
        assert _eval(h1, Fraction(0)) > 0, n
        assert _eval(h1, Fraction(1)) < 0, n
        assert _eval(h1, Fraction(2)) > 0, n
        # hence exactly the two certified roots in (0, 2) modulo parity;
        # Sturm confirms the count is exactly two
        assert count_real_roots(h1, lo=Fraction(0), hi=Fraction(2)) == 2, n


def test_h2_h3_alternating_signs():
    for n in range(6, 51):
        assert alternating_sign_check(h2_coeffs(n)), n
        assert alternating_sign_check(h3_coeffs(n)), n


def test_h_requires_n_at_least_6():
    for fn in (h1_coeffs, h2_coeffs, h3_coeffs):
        with pytest.raises(DomainError):
            fn(5)


def test_reference_integer_vectors():
    assert len(V5R7_232_H1_DESC) == 23  # degree 22
    assert len(V5R7_142_H2_DESC) == 11  # degree 10
    assert V5R7_232_H1_DESC[0] == 688046498713728
    assert V5R7_232_H1_DESC[-1] == 5733089280000
    assert V5R7_142_H2_DESC[0] == 78808464
    assert V5R7_142_H2_DESC[-1] == 5668704
    assert v5r7_232_h1_coeffs()[0] == 5733089280000
    assert v5r7_142_h2_coeffs()[-1] == 78808464


def test_142_vector_roots_all_positive():
    # blocks (1, 4, 2) sit outside the (1, 3, n-4) family, so the degree-10
    # vector is independent data; it still has all roots positive
    coeffs = v5r7_142_h2_coeffs()
    assert count_real_roots(coeffs, hi=Fraction(0)) == 0


def test_times_x_minus_1():
    # (x - 1)(x + 2) = x^2 + x - 2
    out = times_x_minus_1([Fraction(2), Fraction(1)])
    assert out == [Fraction(-2), Fraction(1), Fraction(1)]


def test_sqrt_fraction_precision():
    s = sqrt_fraction(Fraction(2), digits=40)
    err = abs(s * s - 2)
    assert err < Fraction(1, 10**39)
    with pytest.raises(DomainError):
        sqrt_fraction(Fraction(-1))


def test_jensen_x2_roots_satisfy_quadratic():
    for n in (6, 9, 20):
        for r in jensen_x2(n):
            # (n-1) x^2 - 2(n-2) x + 2, evaluated at the 50-digit root
            val = (n - 1) * r * r - 2 * (n - 2) * r + 2
            assert abs(val) < Fraction(1, 10**45)
    lo, hi = jensen_x2(6)
    assert float(lo) == pytest.approx((4 - 6**0.5) / 5, abs=1e-12)
    assert float(hi) == pytest.approx((4 + 6**0.5) / 5, abs=1e-12)


def test_jensen_x2_142():
    lo, hi = jensen_x2_142()
    assert float(lo) == pytest.approx((5 - 7**0.5) / 6, abs=1e-12)
    assert float(hi) == pytest.approx((5 + 7**0.5) / 6, abs=1e-12)
    for r in (lo, hi):
        assert abs(6 * r * r - 10 * r + 3) < Fraction(1, 10**45)


def test_bracket_bounds_are_ordered():
    for n in range(9, 31):
        lo, hi = alpha13_bounds(n)
        assert 0 < lo < hi < 1
        lo, hi = beta13_bounds(n)
        assert 1 < lo < hi < 2
    for n in range(7, 31):
        lo, hi = alpha12_bounds(n)
        assert lo is None and 0 < hi < 2
        lo, hi = beta12_bounds(n)
        assert 0 < lo < hi
    for n in range(16, 31):
        lo, hi = alpha2_bounds(n)
        assert 0 < lo < hi
        lo, hi = beta2_bounds(n)
        assert 0 < lo < hi


def test_golden_fixture_file_matches_code():
    assert verify_golden() == []
