"""Invariant Einstein metrics on real Stiefel manifolds SO(n)/SO(n-k).

Pipeline: orthogonal Lie algebra structure constants -> Ricci tensor of a
diagonal invariant metric -> exact polynomial elimination of the Einstein
system -> real-root isolation -> exact back-substitution through the
resultant pivots -> certification.
"""

from .errors import (
    DegenerateSystemError,
    DomainError,
    EliminationOverflowError,
    InvalidElementError,
    StiefelError,
    UnsupportedShapeError,
)
from .so_algebra import (
    ISOTROPY,
    BasisElement,
    BlockDecomposition,
    Diag,
    ModuleLabel,
    OffDiag,
    bracket,
    module_of,
)
from .triples import TripleTable, dims, triples_bruteforce, triples_closed_form
from .ricci import (
    InvariantMetric,
    RicciComponents,
    ricci,
    ricci_general,
    ricci_specialized,
)

__version__ = "0.1.0"

__all__ = [
    "StiefelError",
    "InvalidElementError",
    "DomainError",
    "UnsupportedShapeError",
    "DegenerateSystemError",
    "EliminationOverflowError",
    "ISOTROPY",
    "BasisElement",
    "BlockDecomposition",
    "Diag",
    "ModuleLabel",
    "OffDiag",
    "bracket",
    "module_of",
    "TripleTable",
    "dims",
    "triples_bruteforce",
    "triples_closed_form",
    "InvariantMetric",
    "RicciComponents",
    "ricci",
    "ricci_general",
    "ricci_specialized",
    "__version__",
]
