"""Hypothesis properties of the Sturm layer's interval points."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from stiefel_einstein.polyalg import IsolatingInterval

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

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
