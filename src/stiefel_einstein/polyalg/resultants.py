"""Resultants, multivariate gcds, and resultant-based elimination.

The resultant uses the subresultant polynomial remainder sequence, which
keeps every intermediate division exact over the integers.  The gcd is the
classical primitive-PRS algorithm, recursing on the number of variables.
Elimination chains resultants against a low-degree pivot, stripping shared
factors whenever a resultant degenerates to zero.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import DegenerateSystemError, DomainError
from .poly import RationalPoly


def _lc(p: RationalPoly, var: str) -> RationalPoly:
    """Leading coefficient of p viewed as a polynomial in var."""
    i = p.vars.index(var)
    d = p.degree(var)
    terms = {
        tuple(0 if j == i else e for j, e in enumerate(m)): c
        for m, c in p.terms.items()
        if m[i] == d
    }
    return RationalPoly(p.vars, terms)


def pseudo_remainder(a: RationalPoly, b: RationalPoly, var: str) -> RationalPoly:
    """prem(a, b): remainder of lc(b)^(deg a - deg b + 1) * a divided by b."""
    if b.is_zero():
        raise ZeroDivisionError("pseudo-division by zero polynomial")
    if a.vars != b.vars:
        b = b.reorder(a.vars)
    db = b.degree(var)
    da = a.degree(var)
    if da < db:
        return a
    lb = _lc(b, var)
    xv = RationalPoly.var(a.vars, var)
    r = a
    e = da - db + 1
    while not r.is_zero():
        dr = r.degree(var)
        if dr < db:
            break
        lr = _lc(r, var)
        r = r * lb - b * lr * xv ** (dr - db)
        e -= 1
    if e > 0:
        r = r * lb**e
    return r


def resultant(p: RationalPoly, q: RationalPoly, var: str) -> RationalPoly:
    """Resultant of p and q with respect to var, via the subresultant PRS.

    The result is a polynomial in the remaining variables (a constant when
    both inputs are univariate); it is identically zero exactly when p and q
    share a factor of positive degree in var.
    """
    if q.vars != p.vars:
        q = q.reorder(p.vars)
    variables = p.vars
    if p.is_zero() or q.is_zero():
        return RationalPoly.zero(variables)
    dp, dq = p.degree(var), q.degree(var)
    if dp == 0:
        return p**dq if dq > 0 else RationalPoly.const(variables, 1)
    if dq == 0:
        return q**dp
    sign = 1
    A, B = p, q
    if dp < dq:
        A, B = B, A
        if dp % 2 == 1 and dq % 2 == 1:
            sign = -sign
    # pull out rational contents; they scale the resultant by a^degB * b^degA
    ca, cb = A.content(), B.content()
    A = A * (1 / ca)
    B = B * (1 / cb)
    scale = ca ** B.degree(var) * cb ** A.degree(var)
    one = RationalPoly.const(variables, 1)
    g = h = one
    while True:
        dA, dB = A.degree(var), B.degree(var)
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            sign = -sign
        R = pseudo_remainder(A, B, var)
        A = B
        B = R.exact_div(g * h**delta)
        if B.is_zero():
            return RationalPoly.zero(variables)
        g = _lc(A, var)
        if delta == 1:
            h = g
        elif delta > 1:
            h = (g**delta).exact_div(h ** (delta - 1))
        if B.degree(var) == 0:
            break
    dA = A.degree(var)
    lB = B  # constant in var: already a polynomial in the other variables
    if dA == 1:
        res = lB
    else:
        res = (lB**dA).exact_div(h ** (dA - 1))
    return res * Fraction(sign) * scale


def _content_pp(p: RationalPoly, var: str) -> tuple[RationalPoly, RationalPoly]:
    """Content and primitive part of p with respect to var."""
    coeffs = [c for c in p.coeffs_in(var) if not c.is_zero()]
    content = coeffs[0]
    for c in coeffs[1:]:
        if content.is_constant():
            break
        content = poly_gcd(content, c)
    content = content.primitive() if not content.is_constant() else (
        RationalPoly.const(p.vars, 1)
    )
    return content, p.exact_div(content)


def poly_gcd(p: RationalPoly, q: RationalPoly) -> RationalPoly:
    """Greatest common divisor over Q, content-normalized.

    Constants have gcd 1; the zero polynomial's gcd with f is f.  The result
    has coprime integer coefficients and positive lex-leading coefficient.
    """
    if q.vars != p.vars:
        q = q.reorder(p.vars)
    if p.is_zero():
        return q.primitive()
    if q.is_zero():
        return p.primitive()
    used = p.variables_used() | q.variables_used()
    if not used:
        return RationalPoly.const(p.vars, 1)
    var = next(v for v in p.vars if v in used)
    cp, pp = _content_pp(p, var)
    cq, pq = _content_pp(q, var)
    cg = poly_gcd(cp, cq)
    A, B = (pp, pq) if pp.degree(var) >= pq.degree(var) else (pq, pp)
    while not B.is_zero():
        R = pseudo_remainder(A, B, var)
        if R.is_zero():
            A, B = B, R
            break
        if R.degree(var) > 0:
            _, R = _content_pp(R, var)
        A, B = B, R.primitive()
    if A.degree(var) > 0:
        _, A = _content_pp(A, var)
    else:
        A = RationalPoly.const(p.vars, 1)
    return (cg * A).primitive()


def _resultant_or_strip(
    pivot: RationalPoly, p: RationalPoly, var: str
) -> RationalPoly:
    """Resultant of pivot and p in var, stripping any shared factor first.

    A zero resultant means the pair shares a factor of positive degree in
    var; the cofactors are then coprime in var and give a genuine eliminant.
    Solutions lying entirely on the shared-factor locus carry no constraint
    from this pair and are the caller's concern.
    """
    r = resultant(pivot, p, var)
    if not r.is_zero():
        return r
    g = poly_gcd(pivot, p)
    a = pivot.exact_div(g).primitive()
    b = p.exact_div(g).primitive()
    if var in a.variables_used() and var in b.variables_used():
        return resultant(a, b, var)
    for q in (a, b):
        if var not in q.variables_used() and not q.is_constant():
            return q
    return RationalPoly.const(pivot.vars, 1)


def eliminate_resultant(
    gens: list[RationalPoly], keep: str
) -> tuple[RationalPoly, list[tuple[str, RationalPoly]]]:
    """Univariate eliminant in keep via successive pairwise resultants.

    Variables are eliminated in ranking order against the generator of
    lowest degree in the variable being removed.  The root set of the
    eliminant contains the keep-coordinates of all system solutions off the
    shared-factor loci; extraneous roots are possible and are expected to be
    filtered by back-substitution.  The eliminant is the gcd of all
    surviving univariate constraints, content-normalized.

    Returns (eliminant, pivots): pivots lists (var, pivot) in elimination
    order, each pivot a polynomial in var and the variables eliminated after
    it.  Read backwards from keep they form a triangular set for lifting a
    root of the eliminant to a full solution.
    """
    polys = [g.primitive() for g in gens if not g.is_zero()]
    if not polys:
        raise DomainError("no nonzero generators")
    variables = polys[0].vars
    if keep not in variables:
        raise DomainError(f"variable {keep!r} not in {variables}")
    polys = [p if p.vars == variables else p.reorder(variables) for p in polys]
    pivots: list[tuple[str, RationalPoly]] = []
    for var in variables:
        if var == keep:
            continue
        using = [p for p in polys if var in p.variables_used()]
        rest = [p for p in polys if var not in p.variables_used()]
        if not using:
            continue
        pivot = min(using, key=lambda p: (p.degree(var), p.total_degree()))
        pivots.append((var, pivot))
        new: list[RationalPoly] = []
        for p in using:
            if p is pivot:
                continue
            r = _resultant_or_strip(pivot, p, var)
            if not r.is_constant():
                new.append(r.primitive())
        polys = rest + new
    final = [p for p in polys if keep in p.variables_used()]
    if not final:
        raise DegenerateSystemError(
            f"elimination produced no constraint on {keep!r}"
        )
    out = final[0]
    for p in final[1:]:
        out = poly_gcd(out, p)
    if out.is_constant():
        raise DegenerateSystemError(
            "surviving univariate constraints are jointly inconsistent"
        )
    return out.primitive(), pivots
