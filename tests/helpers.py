"""Coefficient-list helpers shared by the test modules."""

from __future__ import annotations

from fractions import Fraction

import pytest


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
