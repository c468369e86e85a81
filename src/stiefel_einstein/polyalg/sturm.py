"""Real-root counting, isolation, and refinement via Sturm chains.

Univariate polynomials are ascending coefficient lists.  Each entry point
reads its input once into a primitive integer list (coefficient gcd 1); the
square-free part, the Sturm chain and every sign evaluation then stay in
integers.  Chain members are content-free pseudo-remainders, each a
positive multiple of the member over Q, and the sign at a rational n/d
(d > 0) is that of d^deg f(n/d), so every count is the one over Q.  All
interval logic is half-open (lo, hi], matching the Sturm count
V(lo) - V(hi).  divmod_univariate is long division over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..errors import DomainError
from .poly import RationalPoly

UCoeffs = list[Fraction]
ZCoeffs = list[int]


def _strip(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _degree(c: list) -> int:
    return len(c) - 1


def _derivative(c: list) -> list:
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


def _primitive(c: ZCoeffs) -> ZCoeffs:
    """c divided by the (positive) gcd of its coefficients."""
    g = math.gcd(*c)
    return [a // g for a in c] if g > 1 else c


def _prem(a: ZCoeffs, b: ZCoeffs) -> ZCoeffs:
    """The remainder of a by b over Q times a positive rational, with
    content 1: pseudo-division by b, each step scaled by |lc(b)|."""
    rem = list(a)
    db, lb = _degree(b), abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    while _degree(rem) >= db:
        k = _degree(rem) - db
        q = sign * rem[-1]
        rem = [lb * x for x in rem]
        for i, bc in enumerate(b):
            rem[k + i] -= q * bc
        _strip(rem)
    return _primitive(rem)


def _gcd(a: ZCoeffs, b: ZCoeffs) -> ZCoeffs:
    """gcd of a and b up to a constant factor, by the primitive PRS."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _prem(a, b)
    return a


def _exact_quotient(a: ZCoeffs, b: ZCoeffs) -> ZCoeffs:
    """a / b for a primitive b dividing a: integral by Gauss's lemma."""
    rem = list(a)
    db, lb = _degree(b), b[-1]
    quo = [0] * (len(a) - db)
    for k in reversed(range(len(quo))):
        q = quo[k] = rem[k + db] // lb
        for i, bc in enumerate(b):
            rem[k + i] -= q * bc
    return quo


def _sign_at(c: ZCoeffs, x: Fraction) -> int:
    """Sign of c(x), read from sum c_i n^i d^(deg - i) = d^deg c(n/d)."""
    n, d = x.numerator, x.denominator
    total, dk = 0, 1
    for a in reversed(c):
        total = total * n + a * dk
        dk *= d
    return (total > 0) - (total < 0)


def _normalize_input(p) -> ZCoeffs:
    if isinstance(p, RationalPoly):
        used = sorted(p.variables_used())
        if len(used) > 1:
            raise DomainError(f"not univariate: uses {used}")
        name = used[0] if used else (p.vars[0] if p.vars else "x")
        p = p.univariate_coeffs(name)
    c = _strip([Fraction(a) for a in p])
    den = math.lcm(*(a.denominator for a in c))
    return _primitive([a.numerator * (den // a.denominator) for a in c])


def squarefree_part(p) -> ZCoeffs:
    """p / gcd(p, p') as a primitive integer list, leading coefficient > 0."""
    c = _normalize_input(p)
    if _degree(c) >= 1:
        g = _gcd(c, _derivative(c))
        if _degree(g) >= 1:
            c = _exact_quotient(c, g)
    return c if not c or c[-1] > 0 else [-a for a in c]


def _chain(f: ZCoeffs) -> list[ZCoeffs]:
    """Sturm sequence of an already square-free f of degree >= 1."""
    chain = [f, _derivative(f)]
    while _degree(chain[-1]) > 0:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-x for x in r])
    return chain


def sturm_chain(p) -> list[ZCoeffs]:
    """Sturm sequence of the squarefree part of p."""
    f = squarefree_part(p)
    if _degree(f) < 1:
        return [f] if f else []
    return _chain(f)


def _sign_changes(chain: list[ZCoeffs], x: Fraction | None, at_inf: int = 0) -> int:
    """Sign variation count at x, or at +-infinity when at_inf is +-1."""
    signs = []
    for c in chain:
        s = c[-1] * at_inf ** _degree(c) if at_inf else _sign_at(c, x)
        if s != 0:
            signs.append(s > 0)
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


def root_bound(c: list) -> Fraction:
    """Cauchy bound: all real roots lie in [-M, M].  Unchanged by scaling c."""
    c = _strip(list(c))
    if _degree(c) < 1:
        return Fraction(1)
    lc = abs(c[-1])
    return 1 + max(Fraction(abs(a), lc) for a in c[:-1])


@dataclass(frozen=True)
class IsolatingInterval:
    """Half-open interval (lo, hi] certified to contain exactly one real root
    of the square-free polynomial coeffs (primitive integers as built by
    isolate_real_roots; bisect_to_width also accepts rational ones)."""

    lo: Fraction
    hi: Fraction
    coeffs: tuple[int, ...]

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
        while _sign_at(f, mid) == 0:
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
    f = _normalize_input(iv.coeffs)
    lo, hi = iv.lo, iv.hi
    positive = (_sign_at(f, lo) or _sign_at(_derivative(f), lo)) > 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        value = _sign_at(f, mid)
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
