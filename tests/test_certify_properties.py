"""The integer certificate kernel against the Fraction Ricci oracle.

certify evaluates the Ricci mean lambda and the residual in integers from
TripleTable.laurent; ricci_general, the term loop over Fractions, is the
oracle.  Coordinates are drawn from rationals between 1/1000 and 1000, a
range in which lambda takes both signs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from stiefel_einstein import solver
from stiefel_einstein.ricci import InvariantMetric, ricci_general
from stiefel_einstein.so_algebra import BlockDecomposition
from stiefel_einstein.solver import EinsteinSolution, Rejection, certify
from stiefel_einstein.triples import dims, triples_closed_form

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

SHAPES = [(1, 3, 2), (1, 2, 1), (2, 2, 3), (2, 3, 2), (3, 3, 2), (4, 2, 1)]

_coordinate = st.one_of(
    st.sampled_from([Fraction(1, 1000), Fraction(1, 10), Fraction(1), Fraction(10),
                     Fraction(1000)]),
    st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000),
)


@st.composite
def _points(draw):
    d = BlockDecomposition(draw(st.sampled_from(SHAPES)))
    return d, {lbl: draw(_coordinate) for lbl in dims(d)}


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_points())
def test_exact_lambda_and_residual_match_fraction_ricci(point):
    d, coords = point
    comp = ricci_general(triples_closed_form(d), InvariantMetric(d, coords))
    lam, residual = solver._lambda_and_residual(d, coords)
    assert lam == comp.einstein_constant_candidate
    assert residual == comp.residual()  # both None when lambda <= 0


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_points(), st.sampled_from([0.0, 1e-10, 1.0, 1e6, math.inf]))
def test_accepted_points_have_positive_lambda(point, tol):
    d, coords = point
    result = certify(coords, d, tol=tol)
    comp = ricci_general(triples_closed_form(d), InvariantMetric(d, coords))
    if isinstance(result, EinsteinSolution):
        assert result.lam > 0 and result.residual >= 0
    if comp.einstein_constant_candidate <= 0:
        assert isinstance(result, Rejection) and "lambda" in result.reason
    elif tol == math.inf:
        assert isinstance(result, EinsteinSolution)
