"""Exact polynomial algebra: elimination by resultants and Gröbner bases on
integer polynomials keyed by exponent tuples (resultants.Poly), and real-root
isolation on primitive integer coefficient lists (sturm.ZCoeffs)."""

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
    "buchberger",
    "saturation_generators",
    "eliminate_resultant",
    "resultant",
    "IsolatingInterval",
    "alternating_sign_check",
    "bisect_to_width",
    "count_real_roots",
    "isolate_real_roots",
    "squarefree_part",
]


def __getattr__(name: str):  # PEP 562: the Gröbner code loads on first use
    if name in ("buchberger", "saturation_generators"):
        from . import groebner

        return getattr(groebner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
