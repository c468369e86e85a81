"""Exact multivariate polynomial arithmetic, elimination, and root isolation."""

from .poly import RationalPoly
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
    "RationalPoly",
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
