"""Unit tests for the orthogonal Lie algebra layer."""

from __future__ import annotations

from itertools import combinations

import pytest

from stiefel_einstein.errors import DomainError, InvalidElementError
from stiefel_einstein.so_algebra import (
    ISOTROPY,
    BasisElement,
    BlockDecomposition,
    Diag,
    OffDiag,
    bracket,
    module_of,
)


def test_basis_element_requires_ordered_indices():
    e = BasisElement(1, 3)
    assert (e.a, e.b) == (1, 3)
    with pytest.raises(InvalidElementError):
        BasisElement(2, 2)
    with pytest.raises(InvalidElementError):
        BasisElement(3, 1)


def test_decomposition_basics():
    d = BlockDecomposition((1, 3, 2))
    assert d.n == 6
    assert len(d.basis()) == d.n * (d.n - 1) // 2
    assert d.block_of(1) == 1
    assert d.block_of(2) == 2
    assert d.block_of(6) == 3


def test_decomposition_validation():
    with pytest.raises(DomainError):
        BlockDecomposition((1, 2))  # n = 3 too small
    with pytest.raises(DomainError):
        BlockDecomposition((0, 3, 2))
    with pytest.raises(DomainError):
        BlockDecomposition((3, 3))  # two blocks


def test_bracket_shared_index():
    # [e_12, e_23] = e_13
    s, e = bracket(BasisElement(1, 2), BasisElement(2, 3))
    assert (s, e) == (1, BasisElement(1, 3))


def test_bracket_disjoint_is_zero():
    assert bracket(BasisElement(1, 2), BasisElement(3, 4)) is None


def test_bracket_same_element_is_zero():
    assert bracket(BasisElement(1, 2), BasisElement(1, 2)) is None


def test_bracket_antisymmetry_exhaustive():
    d = BlockDecomposition((2, 3, 2))
    basis = d.basis()
    for x, y in combinations(basis, 2):
        xy = bracket(x, y)
        yx = bracket(y, x)
        if xy is None:
            assert yx is None
        else:
            assert yx == (-xy[0], xy[1])


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_jacobi_identity(n):
    blocks = (1, 3, n - 4) if n > 4 else (1, 2, 1)
    d = BlockDecomposition(blocks)
    basis = d.basis()
    for x, y, z in combinations(basis, 3):
        total: dict[BasisElement, int] = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            inner = bracket(b, c)
            if inner is None:
                continue
            s, e = inner
            outer = bracket(a, e)
            if outer is None:
                continue
            t, f = outer
            total[f] = total.get(f, 0) + s * t
        assert all(v == 0 for v in total.values()), (x, y, z, total)


def test_module_of_classification():
    d = BlockDecomposition((1, 3, 2))
    assert module_of(d, BasisElement(2, 3)) == Diag(2)
    assert module_of(d, BasisElement(1, 2)) == OffDiag(1, 2)
    assert module_of(d, BasisElement(1, 5)) == OffDiag(1, 3)
    assert module_of(d, BasisElement(2, 6)) == OffDiag(2, 3)
    assert module_of(d, BasisElement(5, 6)) is ISOTROPY


def test_labels_sortable_and_named():
    assert Diag(2).name == "2"
    assert OffDiag(1, 3).name == "13"
    assert sorted([OffDiag(1, 3), Diag(2)]) == [Diag(2), OffDiag(1, 3)]
