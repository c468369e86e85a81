"""Exact polynomial algebra: elimination by resultants and, in the groebner
module (imported on first use), Gröbner bases on integer polynomials keyed
by exponent tuples (resultants.Poly), and real-root isolation on primitive
integer coefficient lists (sturm.ZCoeffs)."""

from .resultants import eliminate_resultant, resultant
from .sturm import (
    IsolatingInterval,
    alternating_sign_check,
    bisect_to_width,
    count_real_roots,
    isolate_real_roots,
    squarefree_part,
)

__all__ = [
    "eliminate_resultant",
    "resultant",
    "IsolatingInterval",
    "alternating_sign_check",
    "bisect_to_width",
    "count_real_roots",
    "isolate_real_roots",
    "squarefree_part",
]

