"""Exact multivariate polynomial arithmetic, elimination, and root isolation."""

from .poly import RationalPoly
from .groebner import buchberger, reduce_poly, s_polynomial, saturation_generators
from .resultants import eliminate_resultant, poly_gcd, resultant
from .sturm import (
    IsolatingInterval,
    alternating_sign_check,
    bisect_to_width,
    count_real_roots,
    isolate_real_roots,
    squarefree_part,
    sturm_chain,
)

__all__ = [
    "RationalPoly",
    "buchberger",
    "reduce_poly",
    "s_polynomial",
    "saturation_generators",
    "eliminate_resultant",
    "poly_gcd",
    "resultant",
    "IsolatingInterval",
    "alternating_sign_check",
    "bisect_to_width",
    "count_real_roots",
    "isolate_real_roots",
    "squarefree_part",
    "sturm_chain",
]
