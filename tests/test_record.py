"""The value records: construction, immutability, equality, hashing,
ordering, reprs and pickling, one case per record type."""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from stiefel_einstein.polyalg import IsolatingInterval
from stiefel_einstein.record import replace
from stiefel_einstein.ricci import InvariantMetric, RicciComponents
from stiefel_einstein.so_algebra import (
    BasisElement,
    BlockDecomposition,
    Diag,
    ModuleLabel,
    OffDiag,
)
from stiefel_einstein.solver import (
    EinsteinSolution,
    EinsteinSystem,
    PositivityRow,
    Rejection,
    build_system,
    positivity_report,
)
from stiefel_einstein.triples import TripleTable, dims, triples_closed_form

SHAPES = (BlockDecomposition((1, 3, 2)), BlockDecomposition((2, 3, 2)))


def _metric(k: int) -> InvariantMetric:
    labels = dims(SHAPES[0])
    return InvariantMetric(SHAPES[0], {l: Fraction(1 + k, i + 1) for i, l in enumerate(labels)})


def _table(k: int) -> TripleTable:
    return TripleTable(SHAPES[k], dict(triples_closed_form(SHAPES[k]).entries))


def _solution(k: int) -> EinsteinSolution:
    coords = {OffDiag(1, 3): 1.5}
    return EinsteinSolution(SHAPES[0], coords, 0.25 + k, 0.0, classification="Jensen")


# (record type, make(k): equal for equal k, field to assign, hashable)
CASES = [
    (BasisElement, lambda k: BasisElement(1, 2 + k), "a", True),
    (ModuleLabel, lambda k: ModuleLabel("offdiag", (1, 2 + k)), "kind", True),
    (BlockDecomposition, lambda k: BlockDecomposition((2 - k, 3, 2)), "blocks", True),
    (TripleTable, _table, "entries", False),
    (InvariantMetric, _metric, "coeffs", False),
    (RicciComponents, lambda k: RicciComponents({Diag(2): Fraction(k)}), "values", False),
    (IsolatingInterval, lambda k: IsolatingInterval(Fraction(1), Fraction(2 + k), (-3, 2)), "hi",
     True),
    (EinsteinSystem, lambda k: build_system(SHAPES[k]), "polys", False),
    (EinsteinSolution, _solution, "lam", False),
    (Rejection, lambda k: Rejection(f"reason {k}"), "reason", True),
    (PositivityRow, lambda k: positivity_report([6 + k])[0], "n", True),
]


@pytest.mark.parametrize(
    ("cls", "make", "field", "hashable"), CASES, ids=[c[0].__name__ for c in CASES]
)
def test_record_semantics(cls, make, field, hashable):
    a, b, other = make(0), make(0), make(1)
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2
    else:  # a dict or list field, as with frozen dataclasses
        with pytest.raises(TypeError):
            hash(a)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is cls and copy == a and copy != other
    with pytest.raises(AttributeError):
        setattr(copy, field, getattr(other, field))


def test_system_survives_pickle():
    system = build_system(BlockDecomposition((2, 3, 2)))
    assert pickle.loads(pickle.dumps(system)) == system


def test_equality_is_within_one_class():
    assert Rejection("x") != RicciComponents("x")
    assert OffDiag(1, 2) != ("offdiag", (1, 2))


def test_labels_sort_as_before():
    labels = [OffDiag(2, 3), Diag(2), OffDiag(1, 3), Diag(1), OffDiag(1, 2)]
    assert sorted(labels) == [Diag(1), Diag(2), OffDiag(1, 2), OffDiag(1, 3), OffDiag(2, 3)]
    assert OffDiag(1, 3) > OffDiag(1, 2) >= OffDiag(1, 2) > Diag(2)
    assert sorted([BasisElement(2, 3), BasisElement(1, 3), BasisElement(1, 2)]) == [
        BasisElement(1, 2), BasisElement(1, 3), BasisElement(2, 3)
    ]


def test_order_is_within_one_class_and_only_for_labels_and_elements():
    with pytest.raises(TypeError):
        OffDiag(1, 2) < BasisElement(1, 2)
    with pytest.raises(TypeError):
        BasisElement(1, 2) >= Diag(1)
    with pytest.raises(TypeError):
        OffDiag(1, 2) < ("offdiag", (1, 3))
    with pytest.raises(TypeError):
        SHAPES[0] < SHAPES[1]


def test_reprs():
    assert repr(OffDiag(1, 2)) == "x12"
    assert repr(BasisElement(1, 2)) == "e(1,2)"
    assert repr(BlockDecomposition((2, 3, 2))) == "BlockDecomposition(blocks=(2, 3, 2))"
    assert repr(Rejection("no")) == "Rejection(reason='no')"


def test_construction_by_keyword_and_defaults():
    assert BasisElement(b=2, a=1) == BasisElement(1, 2)
    sol = EinsteinSolution(decomp=SHAPES[0], coords={}, lam=1.0, residual=0.0)
    assert sol.classification == "New"
    with pytest.raises(TypeError):
        BasisElement(1)
    with pytest.raises(TypeError):
        BasisElement(1, 2, a=1)
    # a default that __post_init__ fills in compares like the value it fills in
    assert _solution(0) == replace(_solution(0), intervals={})
    # dims is derived from decomp, not a field
    assert _table(0).dims == dims(SHAPES[0]) and TripleTable._fields == ("decomp", "entries")


def test_each_solution_has_its_own_intervals():
    first, second = _solution(0), _solution(0)
    assert first.intervals == {} and first.intervals is not second.intervals
    moved = replace(first, intervals={"x13": (Fraction(1), Fraction(2))})
    assert moved.intervals == {"x13": (Fraction(1), Fraction(2))}
    assert (moved.lam, moved.classification) == (first.lam, first.classification)
    assert first.intervals == {}
