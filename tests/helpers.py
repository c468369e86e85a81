"""Coefficient-list helpers shared by the test modules, and the halving
loop that root refinement must agree with."""

from __future__ import annotations

from fractions import Fraction

import pytest

from stiefel_einstein.polyalg import IsolatingInterval
from stiefel_einstein.polyalg.sturm import _derivative, _sign_at


def times_x_minus_1(coeffs: list[Fraction]) -> list[Fraction]:
    """Ascending coefficients of (x - 1) * p from those of p."""
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] -= c
        out[i + 1] += c
    return out


def divides(d: list, p: list) -> bool:
    """Whether the ascending coefficient list d divides p over Q, by the
    remainder of sympy's Poly.rem."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    return sympy.Poly(p[::-1], x).rem(sympy.Poly(d[::-1], x)).is_zero


def halving_oracle(iv: IsolatingInterval, width: Fraction) -> IsolatingInterval:
    """The isolating interval iv halved until hi - lo <= width: each step
    evaluates f = iv.coeffs once at the midpoint and keeps the half where f
    changes sign.  Just right of lo the sign is that of f(lo), or of f'(lo)
    when lo is itself a root; a midpoint on the root becomes hi."""
    f = iv.coeffs
    lo, hi = iv.lo, iv.hi
    positive = (_sign_at(f, lo) or _sign_at(_derivative(f), lo)) > 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        value = _sign_at(f, mid)
        if value == 0 or (value > 0) != positive:
            hi = mid
        else:
            lo = mid
    return IsolatingInterval(lo, hi, iv.coeffs)
