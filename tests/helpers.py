"""Coefficient-list helpers shared by the test modules."""

from __future__ import annotations

from fractions import Fraction


def times_x_minus_1(coeffs: list[Fraction]) -> list[Fraction]:
    """Ascending coefficients of (x - 1) * p from those of p."""
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] -= c
        out[i + 1] += c
    return out
