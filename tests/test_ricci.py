"""Ricci components: general formula vs specialized closed forms."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from stiefel_einstein.errors import DomainError, UnsupportedShapeError
from stiefel_einstein.ricci import (
    InvariantMetric,
    ricci,
    ricci_general,
    ricci_specialized,
)
from stiefel_einstein.so_algebra import BlockDecomposition, Diag, OffDiag
from stiefel_einstein.triples import (
    TripleTable,
    dims,
    triples_bruteforce,
    triples_closed_form,
)


def _random_metric(decomp, rng):
    coeffs = {
        lbl: Fraction(rng.randint(1, 40), rng.randint(1, 40))
        for lbl in dims(decomp)
    }
    return InvariantMetric(decomp, coeffs)


def test_metric_validation():
    d = BlockDecomposition((1, 3, 2))
    with pytest.raises(DomainError):
        InvariantMetric(d, {Diag(2): Fraction(1)})  # missing modules
    full = {lbl: Fraction(1) for lbl in dims(d)}
    bad = dict(full)
    bad[Diag(2)] = Fraction(-1)
    with pytest.raises(DomainError):
        InvariantMetric(d, bad)
    bad[Diag(2)] = Fraction(0)
    with pytest.raises(DomainError):
        InvariantMetric(d, bad)


def test_all_ones_142_components():
    d = BlockDecomposition((1, 4, 2))
    metric = InvariantMetric(d, {lbl: Fraction(1) for lbl in dims(d)})
    r = ricci(metric).values
    # biinvariant metric on the homogeneous space: r_i = 1/4 + corrections
    assert r[Diag(2)] == Fraction(1, 4)
    assert r[OffDiag(1, 2)] == Fraction(1, 4)
    assert r[OffDiag(2, 3)] == Fraction(3, 10)
    assert r[OffDiag(1, 3)] == Fraction(3, 10)


@pytest.mark.parametrize("blocks", [(1, 3, 2), (1, 4, 2), (1, 3, 5)])
def test_specialized_matches_general_k1_equals_1(blocks):
    d = BlockDecomposition(blocks)
    table = triples_closed_form(d)
    rng = random.Random(7)
    for _ in range(50):
        metric = _random_metric(d, rng)
        rg = ricci_general(table, metric).values
        rs = ricci_specialized(d, metric).values
        assert rg == rs


@pytest.mark.parametrize("blocks", [(2, 3, 2), (2, 2, 3), (3, 4, 2)])
def test_specialized_matches_general_k1_geq_2(blocks):
    d = BlockDecomposition(blocks)
    table = triples_closed_form(d)
    rng = random.Random(11)
    for _ in range(50):
        metric = _random_metric(d, rng)
        rg = ricci_general(table, metric).values
        rs = ricci_specialized(d, metric).values
        assert rg == rs


def test_general_accepts_bruteforce_table():
    d = BlockDecomposition((2, 3, 2))
    metric = _random_metric(d, random.Random(3))
    rb = ricci_general(triples_bruteforce(d), metric).values
    rc = ricci_general(triples_closed_form(d), metric).values
    assert rb == rc


def test_scaling_covariance():
    # r(t * x) = r(x) / t for every module
    d = BlockDecomposition((2, 3, 2))
    rng = random.Random(5)
    table = triples_closed_form(d)
    for _ in range(10):
        metric = _random_metric(d, rng)
        t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        r1 = ricci_general(table, metric).values
        r2 = ricci_general(table, metric.scaled(t)).values
        for lbl in r1:
            assert r2[lbl] == r1[lbl] / t


def test_residual_zero_for_einstein_metric():
    # the all-ones metric is not Einstein on (1,4,2); residual is positive
    d = BlockDecomposition((1, 4, 2))
    metric = InvariantMetric(d, {lbl: Fraction(1) for lbl in dims(d)})
    comp = ricci(metric)
    assert comp.residual() > 0
    assert comp.einstein_constant_candidate == Fraction(11, 40)


def test_specialized_rejects_bad_shapes():
    d = BlockDecomposition((2, 1, 3))
    with pytest.raises(UnsupportedShapeError):
        ricci_specialized(
            d, InvariantMetric(d, {lbl: Fraction(1) for lbl in dims(d)})
        )


def test_table_metric_mismatch():
    d1 = BlockDecomposition((1, 3, 2))
    d2 = BlockDecomposition((1, 4, 2))
    table = triples_closed_form(d1)
    metric = InvariantMetric(d2, {lbl: Fraction(1) for lbl in dims(d2)})
    with pytest.raises(DomainError):
        ricci_general(table, metric)


def test_float_metric_route():
    d = BlockDecomposition((1, 3, 2))
    exact = _random_metric(d, random.Random(9))
    floats = InvariantMetric(d, {l: float(c) for l, c in exact.coeffs.items()})
    re_ = ricci(exact).values
    rf = ricci(floats).values
    for lbl in re_:
        assert rf[lbl] == pytest.approx(float(re_[lbl]), rel=1e-12)


def test_float_ricci_is_unchanged(monkeypatch):
    # the reprs the per-call table lookups gave; the term lists must keep
    # every float operation, and ricci must not look up triples per call
    d = BlockDecomposition((2, 3, 2))
    triples_closed_form(d).terms
    monkeypatch.setattr(TripleTable, "value", None)
    metric = InvariantMetric(d, {Diag(1): 0.37, Diag(2): 1.3, OffDiag(1, 2): 0.731,
                                 OffDiag(1, 3): 1.1, OffDiag(2, 3): 1.0})
    got = {l.name: repr(v) for l, v in ricci(metric).values.items()}
    assert got == {
        "1": "0.13444088259212383",
        "2": "0.41174276594632864",
        "12": "0.19770561831625244",
        "13": "0.3787486122259782",
        "23": "0.2774292998383286",
    }


def test_closed_form_table_is_built_once():
    d = BlockDecomposition((2, 3, 2))
    assert triples_closed_form(d) is triples_closed_form(BlockDecomposition((2, 3, 2)))
