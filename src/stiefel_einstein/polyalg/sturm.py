"""Real-root counting, isolation, and refinement via Sturm chains.

Univariate polynomials are ascending coefficient lists, integer or
rational.  Each entry point reads its list once into a primitive integer
list (coefficient gcd 1), and an IsolatingInterval carries one; the
square-free part, the Sturm chain and every sign evaluation then stay in
integers.  One primitive PRS of f and f' (content-free pseudo-remainders,
each a positive multiple of the remainder over Q) gives both: its last
member is gcd(f, f'), and its members divided by that gcd, with signs
+, +, -, -, ..., are a Sturm sequence of the square-free part.  The sign
at a rational n/d (d > 0) is that of d^deg f(n/d), so every count is the
one over Q.  All interval logic is half-open (lo, hi], matching the Sturm
count V(lo) - V(hi).  Refinement returns the cell that halving an
isolating interval ends in, reached by quadratic interval refinement on
the grid of those cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

ZCoeffs = list[int]


def _strip(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _degree(c: list) -> int:
    return len(c) - 1


def _derivative(c: list) -> list:
    return [i * a for i, a in enumerate(c)][1:]


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


def _prs(c: ZCoeffs) -> list[ZCoeffs]:
    """The primitive PRS of c (degree >= 1) and c': c, c', then the
    content-free pseudo-remainder of the last two members until it is zero.
    The primitive part of its last member is gcd(c, c')."""
    seq = [c, _derivative(c)]
    while r := _prem(seq[-2], seq[-1]):
        seq.append(r)
    return seq


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


def _scaled(c: ZCoeffs, d: int) -> list[int]:
    """c_deg, c_(deg-1) d, ..., c_0 d^deg, whose _horner at n is d^deg c(n/d)."""
    out, dk = [], 1
    for a in reversed(c):
        out.append(a * dk)
        dk *= d
    return out


def _horner(desc: list[int], n: int) -> int:
    """The descending coefficient list desc evaluated at the integer n."""
    total = 0
    for a in desc:
        total = total * n + a
    return total


def _sign_at(c: ZCoeffs, x: Fraction) -> int:
    """Sign of c(x), read from d^deg c(n/d) for x = n/d."""
    v = _horner(_scaled(c, x.denominator), x.numerator)
    return (v > 0) - (v < 0)


def _normalize_input(p: list) -> ZCoeffs:
    """The integer or rational coefficient list p as a primitive integer list."""
    c = _strip([Fraction(a) for a in p])
    den = math.lcm(*(a.denominator for a in c))
    return _primitive([a.numerator * (den // a.denominator) for a in c])


def squarefree_part(p) -> ZCoeffs:
    """p / gcd(p, p') as a primitive integer list, leading coefficient > 0:
    the first member of sturm_chain(p)."""
    chain = sturm_chain(p)
    return chain[0] if chain else []


def sturm_chain(p) -> list[ZCoeffs]:
    """Sturm sequence of the square-free part of p, from the one PRS of p
    and p' (Basu, Pollack & Roy, Algorithms in Real Algebraic Geometry,
    sec. 2.2): member i, divided by g = gcd(p, p') when g has positive
    degree (integral by Gauss's lemma), and negated iff i // 2 is odd, so
    the signs run +, +, -, -, ...  Member 1 is p' / g, not made primitive."""
    c = _normalize_input(p)
    if c and c[-1] < 0:
        c = [-a for a in c]
    if _degree(c) < 1:
        return [c] if c else []
    seq = _prs(c)
    g = _primitive(seq[-1])
    if _degree(g) >= 1:
        if g[-1] < 0:  # so that member 0 keeps a positive leading coefficient
            g = [-a for a in g]
        seq = [_exact_quotient(m, g) for m in seq]
    return [m if i & 2 == 0 else [-a for a in m] for i, m in enumerate(seq)]


def _sign_changes(chain: list[ZCoeffs], x: Fraction | None, at_inf: int = 0) -> int:
    """Sign variation count at x, or at +-infinity when at_inf is +-1.  At
    x = n/d every member c is read as d^deg c(n/d), by homogeneous Horner
    on one shared table of the powers of d."""
    if at_inf:
        signs = [c[-1] * at_inf ** _degree(c) > 0 for c in chain]
    else:
        n, d = x.numerator, x.denominator
        powers = [1]
        for _ in range(_degree(chain[0])):
            powers.append(powers[-1] * d)
        signs = []
        for c in chain:
            v = 0
            for a, dk in zip(reversed(c), powers):
                v = v * n + a * dk
            if v:
                signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(
    p, lo: Fraction | None = None, hi: Fraction | None = None
) -> int:
    """Number of distinct real roots in (lo, hi]; None means -inf / +inf.
    An empty interval, lo >= hi, holds none."""
    if lo is not None and hi is not None and lo >= hi:
        return 0
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
    """Half-open interval (lo, hi] holding exactly one real root of the
    square-free polynomial coeffs, primitive integers as isolate_real_roots
    gives them; simplest() is its shortest point."""

    lo: Fraction
    hi: Fraction
    coeffs: tuple[int, ...]

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def simplest(self) -> Fraction:
        """The rational of least denominator in (lo, hi], at most ceil(1 /
        width), by the continued-fraction (Stern-Brocot) walk on integer
        pairs lo = p/q, hi = r/s; s = 0 stands for hi = +infinity."""
        p, q = self.lo.numerator, self.lo.denominator
        r, s = self.hi.numerator, self.hi.denominator
        lo_open = True
        a, b, c, d = 1, 0, 0, 1  # the point is (a*y + b) / (c*y + d)
        while True:  # the least integer y in the interval, else y = k + 1/z
            k, rest = divmod(p, q)
            n = k + 1 if lo_open or rest else k
            if n * s <= r if lo_open else n * s < r:
                return Fraction(a * n + b, c * n + d)
            # lo, hi = 1 / (hi - k), 1 / (lo - k)
            p, q, r, s = s, r - k * s, q, rest
            a, b, c, d, lo_open = a * k + b, a, c * k + d, c, not lo_open

    def width(self) -> Fraction:
        return self.hi - self.lo


def isolate_real_roots(
    p, lo: Fraction | None = None, hi: Fraction | None = None
) -> list[IsolatingInterval]:
    """Disjoint isolating intervals for all distinct real roots in (lo, hi].

    The polynomial's square-free part is taken internally, so multiple roots
    are isolated once.
    """
    chain = sturm_chain(p)
    f = chain[0] if chain else []
    if _degree(f) < 1:
        return []
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
        # nudge off a root so interval endpoints stay off the variety; once a
        # 1/16 step would reach y, halve the gap to y instead
        while _sign_at(f, mid) == 0:
            step = (y - x) / 16
            mid = mid + step if mid + step < y else (mid + y) / 2
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
    """The cell of (lo, hi] that halving to hi - lo <= width ends in, found by
    quadratic interval refinement (Abbott, ACM Commun. Comput. Algebra 48,
    2014) on the grid of those cells, with one shared denominator.

    Each step evaluates f = iv.coeffs at the grid point nearest the secant
    root and 1/N of the bracket beyond it, toward the root; N is squared
    when that leaves a bracket at most 1/N as wide, its square root is taken
    otherwise, and N = 2 is a halving.  Signs are read as halving reads
    them: just right of lo the sign is that of f(lo), or of f'(lo) when lo
    is a root; a root on a grid point is its cell's hi.  A linear f takes
    its cell from its exact root."""
    f, lo, hi = iv.coeffs, iv.lo, iv.hi
    span = hi - lo
    if span <= width:
        return iv
    levels = (math.ceil(span / width) - 1).bit_length()
    # grid point m is (base + m * step) / den, for m = 0 .. 2^levels
    den = math.lcm(lo.denominator, hi.denominator)
    base = lo.numerator * (den // lo.denominator) << levels
    step = hi.numerator * (den // hi.denominator) - (base >> levels)
    den <<= levels
    if len(f) == 2:
        a = math.ceil((Fraction(-f[0], f[1]) - lo) / span * (1 << levels)) - 1
    else:
        scaled = _scaled(f, den)
        at_lo = _horner(scaled, base)
        # the sign just right of lo, so g > 0 left of the root, g < 0 right
        sign = 1 if (at_lo or _sign_at(_derivative(f), lo)) > 0 else -1

        def g(m: int) -> int:
            return sign * _horner(scaled, base + m * step)

        a, b, ga, gb, n = 0, 1 << levels, sign * at_lo, g(1 << levels), 4
        while b - a > 1 and gb:
            if n == 2:
                m, w = (a + b) // 2, 0
            else:  # the grid point nearest the secant root, inside (a, b)
                m = a + (2 * (b - a) * ga + ga - gb) // (2 * (ga - gb))
                m, w = min(max(m, a + 1), b - 1), max(1, (b - a) // n)
            gm = g(m)
            a, ga, b, gb = (m, gm, b, gb) if gm > 0 else (a, ga, m, gm)
            probe = m + w if gm > 0 else m - w
            if gm and a < probe < b:
                gp = g(probe)
                a, ga, b, gb = (probe, gp, b, gb) if gp > 0 else (a, ga, probe, gp)
            n = 4 if n == 2 else n * n if b - a <= w else math.isqrt(n)
        if not gb:  # the root is the grid point b
            a = b - 1
    return IsolatingInterval(
        Fraction(base + a * step, den), Fraction(base + (a + 1) * step, den), f
    )


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
