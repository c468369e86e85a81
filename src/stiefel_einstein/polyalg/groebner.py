"""Buchberger's algorithm over Q with lexicographic order.

The public interface speaks RationalPoly; internally polynomials are kept
with coprime integer coefficients and reductions are fraction-free, which is
what makes the larger eliminations tractable.  Pair selection follows the
sugar strategy; the product and chain criteria prune pairs; a configurable
pair-reduction cap guards runaway eliminations.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd

from ..errors import DomainError, EliminationOverflowError
from .poly import RationalPoly

Mono = tuple[int, ...]
ITerms = dict[Mono, int]

DEFAULT_PAIR_CAP = 200_000


def _mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono_div(a: Mono, b: Mono) -> Mono:
    return tuple(x - y for x, y in zip(a, b))


def _content_strip(terms: ITerms) -> ITerms:
    g = 0
    for c in terms.values():
        g = gcd(g, c)
        if g == 1:
            return terms
    if g > 1:
        return {m: c // g for m, c in terms.items()}
    return terms


def _to_int_terms(p: RationalPoly) -> ITerms:
    if p.is_zero():
        return {}
    prim = p.primitive()
    return {m: int(c) for m, c in prim.terms.items()}


def _from_int_terms(variables: tuple[str, ...], terms: ITerms) -> RationalPoly:
    return RationalPoly(variables, {m: Fraction(c) for m, c in terms.items()})


class _Basis:
    """Working basis: parallel lists of term dicts, leading data, and sugar."""

    __slots__ = ("terms", "lm", "lc", "sugar")

    def __init__(self) -> None:
        self.terms: list[ITerms] = []
        self.lm: list[Mono] = []
        self.lc: list[int] = []
        self.sugar: list[int] = []

    def add(self, t: ITerms, sugar: int) -> int:
        lm = max(t)
        lc = t[lm]
        if lc < 0:
            t = {m: -c for m, c in t.items()}
            lc = -lc
        self.terms.append(t)
        self.lm.append(lm)
        self.lc.append(lc)
        self.sugar.append(sugar)
        return len(self.terms) - 1


def _joint_strip(p: ITerms, out: ITerms) -> None:
    """Divide both dicts in place by their common content."""
    g = 0
    for c in p.values():
        g = gcd(g, c)
        if g == 1:
            return
    for c in out.values():
        g = gcd(g, c)
        if g == 1:
            return
    if g > 1:
        for m in p:
            p[m] //= g
        for m in out:
            out[m] //= g


def _normal_form(p: ITerms, basis: _Basis, skip: int = -1) -> ITerms:
    """Fraction-free full normal form of p modulo the basis.

    The intermediate coefficients are jointly content-stripped at intervals;
    without that, iterated scaling by reducer leading coefficients makes the
    integers grow exponentially during a single reduction.
    """
    p = dict(p)
    out: ITerms = {}
    lms = basis.lm
    steps = 0
    while p:
        lm = max(p)
        red = -1
        for i in range(len(lms)):
            if i != skip and _mono_divides(lms[i], lm):
                red = i
                break
        if red < 0:
            out[lm] = p.pop(lm)
            continue
        c = p.pop(lm)
        glc = basis.lc[red]
        d = gcd(c, glc)
        a, b = glc // d, c // d
        if a != 1:
            for m in p:
                p[m] *= a
            for m in out:
                out[m] *= a
        shift = _mono_div(lm, basis.lm[red])
        gt = basis.terms[red]
        for m, gc in gt.items():
            if m == basis.lm[red]:
                continue
            mm = _mono_mul(m, shift)
            v = p.get(mm, 0) - b * gc
            if v:
                p[mm] = v
            else:
                p.pop(mm, None)
        steps += 1
        if steps % 8 == 0:
            _joint_strip(p, out)
    return _content_strip(out)


def _spoly(basis: _Basis, i: int, j: int) -> ITerms:
    li, lj = basis.lm[i], basis.lm[j]
    L = _mono_lcm(li, lj)
    ci, cj = basis.lc[i], basis.lc[j]
    d = gcd(ci, cj)
    mi, mj = _mono_div(L, li), _mono_div(L, lj)
    out: ITerms = {}
    fi, fj = cj // d, ci // d
    for m, c in basis.terms[i].items():
        out[_mono_mul(m, mi)] = c * fi
    for m, c in basis.terms[j].items():
        mm = _mono_mul(m, mj)
        v = out.get(mm, 0) - c * fj
        if v:
            out[mm] = v
        else:
            out.pop(mm, None)
    return _content_strip(out)


def _prepare(gens: list[RationalPoly]) -> tuple[tuple[str, ...], list[ITerms]]:
    if not gens:
        raise DomainError("empty generator list")
    variables = gens[0].vars
    ints = []
    for g in gens:
        gg = g if g.vars == variables else g.reorder(variables)
        t = _to_int_terms(gg)
        if t:
            ints.append(t)
    if not ints:
        raise DomainError("all generators are zero")
    return variables, ints


def buchberger(
    gens: list[RationalPoly],
    max_pair_reductions: int = DEFAULT_PAIR_CAP,
) -> list[RationalPoly]:
    """Reduced lex Groebner basis of the ideal generated by gens.

    The result is pairwise reduced and content-normalized (coprime integer
    coefficients, positive leading coefficient), sorted by increasing leading
    monomial; identical inputs give identical outputs.

    Raises EliminationOverflowError when the pair-reduction cap is hit.
    """
    variables, ints = _prepare(gens)
    basis = _Basis()
    pairs: list[tuple[int, Mono, int, int]] = []  # (sugar, lcm, i, j)
    pending: set[tuple[int, int]] = set()

    def push_pairs(j: int) -> None:
        lj = basis.lm[j]
        for i in range(j):
            L = _mono_lcm(basis.lm[i], lj)
            deg_l = sum(L)
            sug = max(
                basis.sugar[i] + deg_l - sum(basis.lm[i]),
                basis.sugar[j] + deg_l - sum(lj),
            )
            heapq.heappush(pairs, (sug, L, i, j))
            pending.add((i, j))

    for t in sorted(ints, key=lambda t: max(t)):
        idx = basis.add(dict(t), max(sum(m) for m in t))
        push_pairs(idx)

    reductions = 0
    while pairs:
        sug, L, i, j = heapq.heappop(pairs)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        li, lj = basis.lm[i], basis.lm[j]
        if _mono_lcm(li, lj) != L:
            continue  # stale entry
        # product criterion: coprime leading monomials
        if L == _mono_mul(li, lj):
            continue
        # chain criterion: some k divides the lcm and both side pairs are done
        skip = False
        for k in range(len(basis.lm)):
            if k == i or k == j:
                continue
            if _mono_divides(basis.lm[k], L):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        reductions += 1
        if reductions > max_pair_reductions:
            raise EliminationOverflowError(
                f"exceeded {max_pair_reductions} pair reductions"
            )
        s = _spoly(basis, i, j)
        if not s:
            continue
        nf = _normal_form(s, basis)
        if not nf:
            continue
        idx = basis.add(nf, sug)
        push_pairs(idx)

    return _reduce_basis(variables, basis)


def _reduce_basis(variables: tuple[str, ...], basis: _Basis) -> list[RationalPoly]:
    # minimal basis: drop members whose lm is divisible by another member's lm
    order_idx = sorted(range(len(basis.lm)), key=lambda i: basis.lm[i])
    keep: list[int] = []
    for i in order_idx:
        if not any(_mono_divides(basis.lm[k], basis.lm[i]) for k in keep):
            keep.append(i)
    # inter-reduce: full normal form of each member against the others
    reduced = _Basis()
    for i in keep:
        reduced.add(dict(basis.terms[i]), basis.sugar[i])
    final: list[ITerms] = []
    for pos in range(len(keep)):
        nf = _normal_form(dict(reduced.terms[pos]), reduced, skip=pos)
        final.append(nf)
        # keep the basis consistent for later members
        lm = max(nf)
        t = nf if nf[lm] > 0 else {m: -c for m, c in nf.items()}
        reduced.terms[pos] = t
        reduced.lm[pos] = lm
        reduced.lc[pos] = abs(nf[lm])
    final.sort(key=max)
    return [_from_int_terms(variables, t) for t in final]


def s_polynomial(f: RationalPoly, g: RationalPoly) -> RationalPoly:
    """S-polynomial under lex on the polynomials' shared variable tuple."""
    if f.vars != g.vars:
        raise DomainError("variable lists differ")
    basis = _Basis()
    basis.add(_to_int_terms(f), 0)
    basis.add(_to_int_terms(g), 0)
    return _from_int_terms(f.vars, _spoly(basis, 0, 1))


def reduce_poly(p: RationalPoly, basis_polys: list[RationalPoly]) -> RationalPoly:
    """Full normal form of p modulo a list of polynomials (lex)."""
    basis = _Basis()
    for g in basis_polys:
        gg = g if g.vars == p.vars else g.reorder(p.vars)
        t = _to_int_terms(gg)
        if t:
            basis.add(t, 0)
    t = _to_int_terms(p)
    if not t:
        return RationalPoly.zero(p.vars)
    return _from_int_terms(p.vars, _normal_form(t, basis))


def saturation_generators(
    gens: list[RationalPoly],
    factors: list[RationalPoly],
    sat_var: str = "z",
) -> list[RationalPoly]:
    """Generators of the ideal saturated by the product of the factors.

    Adjoins sat_var * prod(factors) - 1 with sat_var ranked highest, which
    excludes the vanishing locus of the product from the variety.
    """
    if not gens:
        raise DomainError("empty generator list")
    old_vars = gens[0].vars
    if sat_var in old_vars:
        raise DomainError(f"variable {sat_var!r} already in use")
    variables = (sat_var,) + old_vars
    out = [g.reorder(variables) for g in gens]
    prod = RationalPoly.var(variables, sat_var)
    for f in factors:
        prod = prod * f.reorder(variables)
    out.append(prod - 1)
    return out
