"""Real-root counting, isolation, and refinement via Sturm chains.

Univariate polynomials are handled as ascending Fraction coefficient lists;
the RationalPoly entry points convert.  All interval logic is half-open
(lo, hi], matching the Sturm count V(lo) - V(hi).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import DomainError
from .poly import RationalPoly

UCoeffs = list[Fraction]


def _strip(c: UCoeffs) -> UCoeffs:
    while c and c[-1] == 0:
        c.pop()
    return c


def _degree(c: UCoeffs) -> int:
    return len(c) - 1


def _eval(c: UCoeffs, x: Fraction) -> Fraction:
    total = Fraction(0)
    for a in reversed(c):
        total = total * x + a
    return total


def _derivative(c: UCoeffs) -> UCoeffs:
    return [i * a for i, a in enumerate(c)][1:]


def divmod_univariate(a: UCoeffs, b: UCoeffs) -> tuple[UCoeffs, UCoeffs]:
    """Quotient and remainder of a by b over Q, both with trailing zeros
    stripped; b must have a nonzero leading coefficient."""
    rem = _strip(list(a))
    db, lb = _degree(b), b[-1]
    quo: UCoeffs = [Fraction(0)] * max(len(rem) - db, 0)
    while _degree(rem) >= db:
        k = _degree(rem) - db
        q = rem[-1] / lb
        quo[k] = q
        for i, bc in enumerate(b):
            rem[k + i] -= q * bc
        _strip(rem)
    return quo, rem


def _gcd(a: UCoeffs, b: UCoeffs) -> UCoeffs:
    a, b = list(a), list(b)
    while b:
        a, b = b, divmod_univariate(a, b)[1]
    if a:
        lc = a[-1]
        a = [x / lc for x in a]
    return a


def _normalize_input(p) -> UCoeffs:
    if isinstance(p, RationalPoly):
        used = sorted(p.variables_used())
        if len(used) > 1:
            raise DomainError(f"not univariate: uses {used}")
        name = used[0] if used else (p.vars[0] if p.vars else "x")
        return _strip([Fraction(c) for c in p.univariate_coeffs(name)])
    return _strip([Fraction(c) for c in p])


def squarefree_part(p) -> UCoeffs:
    """p / gcd(p, p'), normalized monic-free (content irrelevant here)."""
    c = _normalize_input(p)
    if _degree(c) < 1:
        return c
    g = _gcd(c, _derivative(c))
    if _degree(g) < 1:
        return c
    return divmod_univariate(c, g)[0]


def _chain(f: UCoeffs) -> list[UCoeffs]:
    """Sturm sequence of an already square-free f of degree >= 1."""
    chain = [f, _derivative(f)]
    while _degree(chain[-1]) > 0:
        r = divmod_univariate(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-x for x in r])
    return chain


def sturm_chain(p) -> list[UCoeffs]:
    """Sturm sequence of the squarefree part of p."""
    f = squarefree_part(p)
    if _degree(f) < 1:
        return [f] if f else []
    return _chain(f)


def _sign_changes(chain: list[UCoeffs], x: Fraction | None, at_inf: int = 0) -> int:
    """Sign variation count at x, or at +-infinity when at_inf is +-1."""
    signs = []
    for c in chain:
        if at_inf:
            s = c[-1] * (at_inf ** _degree(c)) if c else Fraction(0)
        else:
            s = _eval(c, x)
        if s != 0:
            signs.append(1 if s > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(
    p, lo: Fraction | None = None, hi: Fraction | None = None
) -> int:
    """Number of distinct real roots in (lo, hi]; None means -inf / +inf."""
    chain = sturm_chain(p)
    if not chain or _degree(chain[0]) < 1:
        return 0
    va = _sign_changes(chain, lo) if lo is not None else _sign_changes(chain, None, -1)
    vb = _sign_changes(chain, hi) if hi is not None else _sign_changes(chain, None, +1)
    return va - vb


def root_bound(c: UCoeffs) -> Fraction:
    """Cauchy bound: all real roots lie in [-M, M]."""
    c = _strip(list(c))
    if _degree(c) < 1:
        return Fraction(1)
    lc = abs(c[-1])
    return 1 + max(abs(a) / lc for a in c[:-1])


@dataclass(frozen=True)
class IsolatingInterval:
    """Half-open interval (lo, hi] certified to contain exactly one real root."""

    lo: Fraction
    hi: Fraction
    coeffs: tuple[Fraction, ...]

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def width(self) -> Fraction:
        return self.hi - self.lo


def isolate_real_roots(
    p, lo: Fraction | None = None, hi: Fraction | None = None
) -> list[IsolatingInterval]:
    """Disjoint isolating intervals for all distinct real roots in (lo, hi].

    The polynomial's square-free part is taken internally, so multiple roots
    are isolated once.
    """
    f = squarefree_part(p)
    if _degree(f) < 1:
        return []
    chain = _chain(f)
    bound = root_bound(f)
    a = lo if lo is not None else -bound
    b = hi if hi is not None else bound
    if a >= b:
        return []
    out: list[IsolatingInterval] = []
    coeffs = tuple(f)

    def recurse(x: Fraction, y: Fraction, vx: int, vy: int) -> None:
        k = vx - vy
        if k == 0:
            return
        if k == 1:
            out.append(IsolatingInterval(x, y, coeffs))
            return
        mid = (x + y) / 2
        # nudge off a root so interval endpoints stay off the variety
        while _eval(f, mid) == 0:
            mid = mid + (y - x) / 16
        vm = _sign_changes(chain, mid)
        recurse(x, mid, vx, vm)
        recurse(mid, y, vm, vy)

    # keep exact root endpoints countable: (a, b] convention
    va = _sign_changes(chain, a)
    vb = _sign_changes(chain, b)
    # a root exactly at b must be kept; one exactly at a must be excluded.
    # Sturm V(a)-V(b) already implements that for the half-open interval.
    recurse(a, b, va, vb)
    out.sort(key=lambda iv: iv.lo)
    return out


def bisect_to_width(iv: IsolatingInterval, width: Fraction) -> IsolatingInterval:
    """Shrink an isolating interval by bisection until hi - lo <= width.

    Each step evaluates the square-free iv.coeffs once and keeps the half
    where it changes sign.  Just right of lo its sign is that of f(lo), or
    of f'(lo) when lo is itself a root (excluded from (lo, hi]); a midpoint
    that lands on the root becomes hi.  With one simple root in (lo, hi]
    these are the choices the Sturm counts would make.
    """
    f = list(iv.coeffs)
    lo, hi = iv.lo, iv.hi
    positive = (_eval(f, lo) or _eval(_derivative(f), lo)) > 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        value = _eval(f, mid)
        if value == 0 or (value > 0) != positive:
            hi = mid
        else:
            lo = mid
    return IsolatingInterval(lo, hi, iv.coeffs)


def alternating_sign_check(p) -> bool:
    """True iff every nonzero coefficient of degree d has sign (-1)^d.

    Such polynomials are positive on (-inf, 0], so all real roots are
    positive.
    """
    c = _normalize_input(p)
    if not c:
        return False
    for d, a in enumerate(c):
        if a == 0:
            continue
        if (d % 2 == 0) != (a > 0):
            return False
    return True
