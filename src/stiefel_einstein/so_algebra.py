"""The Lie algebra so(n): basis, brackets, three-block decompositions.

Everything here is exact.  Basis elements are the antisymmetric matrices
e_ab = E_ab - E_ba, stored index-normalized (a < b); e_ba is represented as
-e_ab via an explicit sign, never as a separate element.
"""

from __future__ import annotations

import functools

from .errors import DomainError, InvalidElementError
from .record import Record


class BasisElement(Record, order=True):
    """e_ab = E_ab - E_ba with 1 <= a < b."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not (1 <= self.a < self.b):
            raise InvalidElementError(f"need 1 <= a < b, got ({self.a}, {self.b})")

    def __repr__(self) -> str:
        return f"e({self.a},{self.b})"


class ModuleLabel(Record, order=True):
    """Label of an irreducible metric module.

    kind "diag" with block index a models the so(k_a) diagonal block (a in
    {1, 2}); kind "offdiag" with (a, b), a < b, models the off-diagonal block
    pair m_ab.  The so(k_3) block is the isotropy algebra and is deliberately
    not representable here; see ISOTROPY.
    """

    kind: str
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind == "diag":
            if len(self.blocks) != 1 or self.blocks[0] not in (1, 2):
                raise DomainError(f"diag label needs one block in {{1,2}}: {self.blocks}")
        elif self.kind == "offdiag":
            if len(self.blocks) != 2 or not (1 <= self.blocks[0] < self.blocks[1] <= 3):
                raise DomainError(f"offdiag label needs 1 <= a < b <= 3: {self.blocks}")
        else:
            raise DomainError(f"unknown label kind {self.kind!r}")

    @property
    def name(self) -> str:
        return "".join(str(i) for i in self.blocks)

    def __repr__(self) -> str:
        return f"x{self.name}"


# One shared label per argument: every caller gets the same immutable record.
@functools.cache
def Diag(a: int) -> ModuleLabel:
    return ModuleLabel("diag", (a,))


@functools.cache
def OffDiag(a: int, b: int) -> ModuleLabel:
    return ModuleLabel("offdiag", (a, b))


class _Isotropy:
    """Sentinel for basis elements lying in the isotropy algebra so(k_3)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Isotropy"


ISOTROPY = _Isotropy()


class BlockDecomposition(Record):
    """Partition (k_1, k_2, k_3) of n, blocks laid out in order.

    It models the Stiefel manifold SO(n)/SO(k_3): the third block is the
    isotropy group.  k_1 = 1 is legal and suppresses the so(k_1) diagonal
    module.  This is the only place the block count is checked.
    """

    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.blocks) != 3:
            raise DomainError(f"need 3 blocks, got {self.blocks}")
        if any(k < 1 for k in self.blocks):
            raise DomainError(f"every block must be >= 1: {self.blocks}")
        if self.n < 4:
            raise DomainError(f"need n >= 4, got n = {self.n}")

    @property
    def n(self) -> int:
        return sum(self.blocks)

    def block_of(self, index: int) -> int:
        """1-based block number containing the 1-based matrix index."""
        if not (1 <= index <= self.n):
            raise InvalidElementError(f"index {index} out of range for n = {self.n}")
        upper = 0
        for i, k in enumerate(self.blocks, start=1):
            upper += k
            if index <= upper:
                return i
        raise AssertionError("unreachable")

    def basis(self) -> list[BasisElement]:
        """All of so(n)'s basis elements e_ab, a < b."""
        n = self.n
        return [BasisElement(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]


def bracket(x: BasisElement, y: BasisElement) -> tuple[int, BasisElement] | None:
    """[x, y] as (sign, element), or None when the bracket vanishes.

    The product rule [e_ab, e_cd] collapses to +-e or 0: it vanishes when all
    four indices are distinct or the elements coincide, and otherwise the
    shared index contracts, e.g. [e_ab, e_bc] = e_ac.
    """
    (a, b), (c, d) = (x.a, x.b), (y.a, y.b)
    if x == y or len({a, b, c, d}) == 4:
        return None
    # [e_ab, e_cd] = d_bc e_ad - d_ac e_bd - d_bd e_ac + d_ad e_bc,
    # with exactly one Kronecker delta firing since (a,b) != (c,d).
    if b == c:
        i, j, s = a, d, 1
    elif a == c:
        i, j, s = b, d, -1
    elif b == d:
        i, j, s = a, c, -1
    else:  # a == d
        i, j, s = b, c, 1
    if i > j:
        i, j, s = j, i, -s
    return s, BasisElement(i, j)


def module_of(decomp: BlockDecomposition, e: BasisElement) -> ModuleLabel | _Isotropy:
    """Classify a basis element by the block pair its indices fall in.

    Elements with both indices inside the third block belong to the isotropy
    algebra and are tagged ISOTROPY.  An element outside so(n) raises
    InvalidElementError.
    """
    ba, bb = decomp.block_of(e.a), decomp.block_of(e.b)
    if ba == bb:
        return ISOTROPY if ba == 3 else Diag(ba)
    return OffDiag(ba, bb)

