"""Structure-constant triple tables: brute force vs closed form."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from stiefel_einstein.errors import DomainError
from stiefel_einstein.so_algebra import BlockDecomposition, Diag, OffDiag
from stiefel_einstein.triples import (
    TripleTable,
    dims,
    triple_key,
    triples_bruteforce,
    triples_closed_form,
)


def test_dims_values():
    d = dims(BlockDecomposition((2, 3, 2)))
    assert d == {
        Diag(1): 1,
        Diag(2): 3,
        OffDiag(1, 2): 6,
        OffDiag(1, 3): 4,
        OffDiag(2, 3): 6,
    }
    d1 = dims(BlockDecomposition((1, 3, 2)))
    assert Diag(1) not in d1
    assert d1[Diag(2)] == 3


def test_triple_key_is_order_free():
    a, b, c = Diag(2), OffDiag(1, 2), OffDiag(1, 3)
    keys = {triple_key(*perm) for perm in ((a, b, c), (c, a, b), (b, c, a))}
    assert len(keys) == 1


def test_closed_form_values_132():
    t = triples_closed_form(BlockDecomposition((1, 3, 2)))
    # [2;22] = k2(k2-1)(k2-2)/(2(n-2)) = 3*2*1/8
    assert t.value(Diag(2), Diag(2), Diag(2)) == Fraction(3, 4)
    # [2;(12)(12)] = k2*k1*(k2-1)/(2(n-2)) = 3*1*2/8
    assert t.value(Diag(2), OffDiag(1, 2), OffDiag(1, 2)) == Fraction(3, 4)
    # [(12);(13)(23)] = k1 k2 k3/(2(n-2)) = 6/8
    assert t.value(OffDiag(1, 2), OffDiag(1, 3), OffDiag(2, 3)) == Fraction(3, 4)
    # [2;(23)(23)] = k2 k3 (k2-1)/(2(n-2)) = 3*2*2/8
    assert t.value(Diag(2), OffDiag(2, 3), OffDiag(2, 3)) == Fraction(3, 2)


def test_closed_form_value_133():
    t = triples_closed_form(BlockDecomposition((1, 3, 3)))
    # [2;(23)(23)] = k2 k3 (k2-1)/(2(n-2)) = 3*3*2/10
    assert t.value(Diag(2), OffDiag(2, 3), OffDiag(2, 3)) == Fraction(9, 5)
    # [2;(12)(12)] = k2 k1 (k2-1)/(2(n-2)) = 3*1*2/10; confirmed by the
    # brute-force oracle below
    assert t.value(Diag(2), OffDiag(1, 2), OffDiag(1, 2)) == Fraction(3, 5)


@pytest.mark.parametrize(
    "blocks",
    [
        (1, 2, 1), (1, 2, 2), (1, 3, 2), (1, 3, 3), (1, 4, 2),
        (2, 2, 2), (2, 3, 2), (2, 3, 3), (3, 3, 2), (2, 4, 3),
        (3, 4, 4), (4, 4, 4),
    ],
)
def test_bruteforce_matches_closed_form(blocks):
    d = BlockDecomposition(blocks)
    brute = triples_bruteforce(d)
    closed = triples_closed_form(d)
    labels = closed.labels()
    assert brute.labels() == labels
    for i, j, k in product(labels, repeat=3):
        assert brute.value(i, j, k) == closed.value(i, j, k), (blocks, i, j, k)


def test_table_rejects_inadmissible_shape():
    d = BlockDecomposition((1, 3, 2))
    bad = {triple_key(Diag(2), Diag(2), OffDiag(1, 2)): Fraction(1)}
    with pytest.raises(DomainError):
        TripleTable(d, bad)


def test_table_rejects_negative_value():
    d = BlockDecomposition((1, 3, 2))
    bad = {triple_key(Diag(2), Diag(2), Diag(2)): Fraction(-1)}
    with pytest.raises(DomainError):
        TripleTable(d, bad)


@pytest.mark.parametrize("blocks, expected", [
    ((1, 3, 2), {Diag(2): 3, OffDiag(1, 2): 3, OffDiag(1, 3): 2, OffDiag(2, 3): 6}),
    ((2, 3, 2), {Diag(1): 1, Diag(2): 3, OffDiag(1, 2): 6, OffDiag(1, 3): 4,
                 OffDiag(2, 3): 6}),
], ids=["132", "232"])
def test_dims_fill_so_n_less_the_isotropy(blocks, expected):
    # labels in order, Diag(1) only when k1 >= 2, and so(n) less so(k3)
    d = dims(BlockDecomposition(blocks))
    assert list(d.items()) == list(expected.items())
    n, k3 = sum(blocks), blocks[2]
    assert sum(d.values()) == n * (n - 1) // 2 - k3 * (k3 - 1) // 2


def test_to_json_roundtrip_shape():
    t = triples_closed_form(BlockDecomposition((2, 3, 2)))
    data = t.to_json()
    assert data["blocks"] == [2, 3, 2]
    assert data["dims"]["12"] == 6
    assert all(rec["den"] > 0 for rec in data["triples"])
    # six nonzero shapes for k1 = 2: [1;11] vanishes since k1 - 2 = 0
    assert len(data["triples"]) == 6
