"""Structure-constant triples [k;ij] and module dimensions.

A triple is the sum of squared structure constants over -B-orthonormal bases
of three metric modules.  Two routes compute the same table: brute-force
summation over basis brackets, and the closed forms of the seven triple
shapes that can be nonzero (see _admissible_triples).  The brute-force route
is the oracle; the closed forms are what the solver uses.  Triples never
touch the isotropy block: sums run over metric modules only.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import lcm

from .errors import DomainError
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
from .record import Record

TripleKey = tuple[ModuleLabel, ModuleLabel, ModuleLabel]


def triple_key(i: ModuleLabel, j: ModuleLabel, k: ModuleLabel) -> TripleKey:
    """Canonical (sorted) key for the unordered multiset {i, j, k}."""
    return tuple(sorted((i, j, k)))  # type: ignore[return-value]


def dims(decomp: BlockDecomposition) -> dict[ModuleLabel, int]:
    """Dimension of every metric module of the decomposition.

    Diag(a) appears only for a in {1, 2} with k_a >= 2; the third block is
    isotropy and contributes nothing.  The free coordinates of the solver
    are these labels other than x23.
    """
    k = decomp.blocks
    out: dict[ModuleLabel, int] = {}
    for a in (1, 2):
        if k[a - 1] >= 2:
            out[Diag(a)] = k[a - 1] * (k[a - 1] - 1) // 2
    for a, b in ((1, 2), (1, 3), (2, 3)):
        out[OffDiag(a, b)] = k[a - 1] * k[b - 1]
    return out


def _admissible_triples(decomp: BlockDecomposition) -> dict[TripleKey, Fraction]:
    """Every triple shape that can be nonzero, with its closed-form value,
    zeros included; every other triple vanishes identically.  With
    D = 2(n - 2), a in {1, 2} with k_a >= 2 and b != a:

        [a;aa]          = k_a (k_a - 1)(k_a - 2) / D
        [a;(ab)(ab)]    = k_a k_b (k_a - 1)      / D
        [(13);(12)(23)] = k_1 k_2 k_3            / D

    which is at most seven shapes, in this order.
    """
    k = decomp.blocks
    den = 2 * (decomp.n - 2)
    diags = [lbl.blocks[0] for lbl in dims(decomp) if lbl.kind == "diag"]
    out: dict[TripleKey, Fraction] = {}
    for a in diags:
        ka = k[a - 1]
        out[triple_key(Diag(a), Diag(a), Diag(a))] = Fraction(ka * (ka - 1) * (ka - 2), den)
    for a in diags:
        ka = k[a - 1]
        for b in (1, 2, 3):
            if b != a:
                ab = OffDiag(min(a, b), max(a, b))
                out[triple_key(Diag(a), ab, ab)] = Fraction(ka * k[b - 1] * (ka - 1), den)
    out[triple_key(OffDiag(1, 2), OffDiag(1, 3), OffDiag(2, 3))] = Fraction(
        k[0] * k[1] * k[2], den
    )
    return out


class TripleTable(Record):
    """Exact rational triples [k;ij] keyed by unordered module multisets."""

    decomp: BlockDecomposition
    entries: dict[TripleKey, Fraction]

    def __post_init__(self) -> None:
        admissible = _admissible_triples(self.decomp)
        for key, val in self.entries.items():
            if val < 0:
                raise DomainError(f"negative triple {key}: {val}")
            if val != 0 and key not in admissible:
                raise DomainError(f"inadmissible nonzero triple shape {key}")

    @functools.cached_property
    def dims(self) -> dict[ModuleLabel, int]:
        """dims(decomp): the dimension of every metric module."""
        return dims(self.decomp)

    @functools.cached_property
    def terms(self) -> dict[ModuleLabel, tuple[tuple, tuple]]:
        """For each label k, the nonzero (j, i, [k;ji]) and (j, i, [j;ki]) over
        ordered label pairs: the terms of the Ricci component r_k."""
        pairs = [(j, i) for j in self.labels() for i in self.labels()]
        return {k: (
            tuple((j, i, t) for j, i in pairs if (t := self.value(k, j, i))),
            tuple((j, i, t) for j, i in pairs if (t := self.value(j, k, i))),
        ) for k in self.labels()}

    @functools.cached_property
    def laurent(
        self,
    ) -> tuple[int, dict[ModuleLabel, tuple[tuple[int, tuple[int, ...]], ...]]]:
        """The Ricci formula in integers: (D, {k: ((c, e), ...)}) with
        r_k = (1/D) sum c prod_l x_l^e_l, e an exponent vector over labels()
        with entries in [-2, 1].  Built from terms: 1/(2x_k),
        +[k;ji]/(4d_k) x_k/(x_j x_i) and -[j;ki]/(2d_k) x_j/(x_k x_i), with
        equal monomials merged and D the least common denominator."""
        labels = self.labels()
        pos = {lbl: p for p, lbl in enumerate(labels)}

        def mono(up, *down) -> tuple[int, ...]:
            e = [0] * len(labels)
            e[pos[up]] += 1
            for lbl in down:
                e[pos[lbl]] -= 1
            return tuple(e)

        exact: dict[ModuleLabel, dict[tuple[int, ...], Fraction]] = {}
        for k, (plus, minus) in self.terms.items():
            dk = self.dims[k]
            comp = {mono(k, k, k): Fraction(1, 2)}
            for j, i, t in plus:
                e = mono(k, j, i)
                comp[e] = comp.get(e, 0) + t / (4 * dk)
            for j, i, t in minus:
                e = mono(j, k, i)
                comp[e] = comp.get(e, 0) - t / (2 * dk)
            exact[k] = {e: c for e, c in comp.items() if c}
        den = lcm(*(c.denominator for comp in exact.values() for c in comp.values()))
        return den, {
            k: tuple((int(c * den), e) for e, c in comp.items())
            for k, comp in exact.items()
        }

    def value(self, i: ModuleLabel, j: ModuleLabel, k: ModuleLabel) -> Fraction:
        return self.entries.get(triple_key(i, j, k), Fraction(0))

    def labels(self) -> list[ModuleLabel]:
        return sorted(self.dims)

    def to_json(self) -> dict:
        return {
            "blocks": list(self.decomp.blocks),
            "dims": {lbl.name: d for lbl, d in sorted(self.dims.items())},
            "triples": [
                {
                    "modules": [lbl.name for lbl in key],
                    "num": v.numerator,
                    "den": v.denominator,
                }
                for key, v in sorted(self.entries.items(), key=lambda kv: kv[0])
                if v != 0
            ],
        }


def _metric_basis_by_module(
    decomp: BlockDecomposition,
) -> dict[ModuleLabel, list[BasisElement]]:
    mods: dict[ModuleLabel, list[BasisElement]] = {lbl: [] for lbl in dims(decomp)}
    for e in decomp.basis():
        lbl = module_of(decomp, e)
        if lbl is not ISOTROPY:
            mods[lbl].append(e)
    return mods


def triples_bruteforce(decomp: BlockDecomposition) -> TripleTable:
    """Triples by direct summation over orthonormalized basis brackets.

    With e-hat = e / sqrt(2(n-2)), every nonzero structure constant squares
    to 1/(2(n-2)), so [k;ij] is just a bracket-hit count divided by 2(n-2).
    The count is taken for one fixed role assignment (alpha in m_i, beta in
    m_j, gamma in m_k); full symmetry of the triple is a theorem, not an
    aggregation rule.
    """
    n = decomp.n
    mods = _metric_basis_by_module(decomp)
    counts: dict[tuple[ModuleLabel, ModuleLabel, ModuleLabel], int] = {}
    for mi, mj in itertools.product(mods, repeat=2):
        for ea in mods[mi]:
            for eb in mods[mj]:
                r = bracket(ea, eb)
                if r is None:
                    continue
                mk = module_of(decomp, r[1])
                if mk is ISOTROPY:
                    continue
                counts[(mi, mj, mk)] = counts.get((mi, mj, mk), 0) + 1
    entries: dict[TripleKey, Fraction] = {}
    for (mi, mj, mk), c in counts.items():
        key = triple_key(mi, mj, mk)
        val = Fraction(c, 2 * (n - 2))
        prev = entries.setdefault(key, val)
        if prev != val:
            raise AssertionError(f"triple symmetry broken at {key}: {prev} vs {val}")
    return TripleTable(decomp, entries)


@functools.cache
def triples_closed_form(decomp: BlockDecomposition) -> TripleTable:
    """Triples from the closed forms: the nonzero entries of
    _admissible_triples.  One table per decomposition, shared by every
    caller."""
    entries = {key: v for key, v in _admissible_triples(decomp).items() if v != 0}
    return TripleTable(decomp, entries)
