"""Real-root counting, isolation, and refinement by Descartes' rule of signs.

Univariate polynomials are ascending coefficient lists, integer or
rational.  Each entry point reads its list once into a primitive integer
list (coefficient gcd 1), and an IsolatingInterval carries one; all else
stays in integers.  The square-free part is f / gcd(f, f'), the gcd by
GCDHEU (Char, Geddes & Gonnet, J. Symbolic Comput. 7, 1989), or else the
last member of the primitive PRS of f and f'.  Isolation bisects (lo, hi],
an infinite end at -B or B for the power-of-two root_bound B, at midpoints
and decides each cell by Descartes' rule of signs (Collins & Akritas,
SYMSAC 1976); a cell with fewer than two sign variations is an interval,
and a root on a midpoint ends the left half.  A cell that kept a pair of
roots through 8, 16, 32, ... halvings in a row may part it in one step:
where exact signs show one root in each half of a grid cell, those halves
are intervals.  All intervals are half-open, (lo, hi], and cells of the
halving tree of the start interval, dyadic when its ends are.  Refinement
returns the cell that halving an isolating interval ends in, reached by
quadratic interval refinement on the grid of those cells.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from ..errors import DomainError
from ..record import Record

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


def _quotient(a: ZCoeffs, b: ZCoeffs) -> ZCoeffs | None:
    """a / b when b divides a over the integers, else None."""
    rem, db, quo = list(a), _degree(b), []
    for k in reversed(range(len(a) - db)):
        q, r = divmod(rem[k + db], b[-1])
        if r:
            return None
        quo.append(q)
        for i, bc in enumerate(b):
            rem[k + i] -= q * bc
    return None if any(rem[:db]) else quo[::-1]


def _gcdheu(f: ZCoeffs, g: ZCoeffs) -> ZCoeffs | None:
    """f / gcd(f, g) for primitive f and g by GCDHEU, or None after six
    evaluation points.  The integer gcd of f(xi) and g(xi), rebuilt
    xi-adically with symmetric digits, has a primitive part that is
    gcd(f, g) if it divides both, given xi >= 2 min(|f|, |g|) + 2; as the
    integer gcd is positive, so is the part's leading coefficient."""
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 2
    for _ in range(6):
        h, digits = math.gcd(_horner(f[::-1], xi), _horner(g[::-1], xi)), []
        while h:
            digits.append((h + xi // 2) % xi - xi // 2)
            h = (h - digits[-1]) // xi
        cand = _primitive(digits)
        cofactor = _quotient(f, cand)
        if cofactor is not None and _quotient(g, cand) is not None:
            return cofactor
        xi = xi * 73794 // 27011
    return None


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
    c = _strip(list(p))
    den = math.lcm(*(a.denominator for a in c))
    return _primitive([a.numerator * (den // a.denominator) for a in c])


def squarefree_part(p) -> ZCoeffs:
    """p / gcd(p, p') as a primitive integer list, leading coefficient > 0."""
    c = _normalize_input(p)
    if c and c[-1] < 0:
        c = [-a for a in c]
    if _degree(c) < 2:  # a primitive linear c is square-free
        return c
    a, b = c, _primitive(_derivative(c))
    if (sf := _gcdheu(a, b)) is not None:
        return sf
    while r := _prem(a, b):  # the primitive PRS; its last member is the gcd
        a, b = b, r
    return _quotient(c, b if b[-1] > 0 else [-x for x in b])


def count_real_roots(p, lo: Fraction | None = None, hi: Fraction | None = None) -> int:
    """Number of distinct real roots in (lo, hi]; None means -inf / +inf.
    An empty interval, lo >= hi, holds none."""
    return len(isolate_real_roots(p, lo, hi))


def root_bound(c: ZCoeffs) -> Fraction:
    """B = 2^(e + 1) > |z| for every complex root z of the integer list c, 1
    if c has no nonzero a_k below its lead a_d: Fujiwara's bound (Tohoku
    Math. J. 10, 1916) 2 max(|a_k/a_d|^(1/(d-k)), |a_0/2a_d|^(1/d)) is below
    it, e the greatest ceil((bitlen a_k - bitlen a_d + [k>0]) / (d - k))."""
    c = _strip(list(c))
    d, top = _degree(c), c[-1].bit_length() if c else 0
    return Fraction(2) ** (1 + max((-((top - a.bit_length() - (k > 0)) // (d - k))
                                    for k, a in enumerate(c[:-1]) if a), default=-1))


class IsolatingInterval(Record):
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


def _shift(c: ZCoeffs, a: int = 1) -> ZCoeffs:
    """c(u + a), by repeated synthetic division of c by u - a."""
    step = None if a == 1 else (lambda acc, b: acc * a + b)
    desc, out = c[::-1], []
    while desc:
        desc = list(accumulate(desc, step))
        out.append(desc.pop())
    return out


def _cell(f: ZCoeffs, x: Fraction, y: Fraction) -> ZCoeffs:
    """A positive multiple of f(x + (y - x) u) in integers: n^deg f((a + w u)
    / n) for x = a / n and y - x = w / n."""
    n = math.lcm(x.denominator, y.denominator)
    a = x.numerator * (n // x.denominator)
    w = y.numerator * (n // y.denominator) - a
    return [c * w**i for i, c in enumerate(_shift(_scaled(f, n)[::-1], a))]


def _halve(q: ZCoeffs) -> ZCoeffs:
    """2^deg q(u / 2), less the powers of two its coefficients share."""
    out = [a << (len(q) - 1 - i) for i, a in enumerate(q)]
    k = min((a & -a).bit_length() for a in out if a) - 1
    return [a >> k for a in out]


def _descartes(q: ZCoeffs, cap: int = 2) -> int:
    """q's roots in (0, 1] when Descartes' rule of signs shows fewer than cap,
    else cap: the sign variations of (u + 1)^deg q(1 / (u + 1)), up to cap,
    bound those in (0, 1), and q(1) = 0 adds one.  Its coefficients come out
    from the constant up, by repeated synthetic division of rev q by u - 1."""
    runs, desc = [], q  # the signs of the runs of nonzero coefficients
    while desc and len(runs) <= cap:
        desc = list(accumulate(desc))
        if (c := desc.pop()) and (not runs or (c > 0) != runs[-1]):
            runs.append(c > 0)
    return min(len(runs) - 1 + (sum(q) == 0), cap)


def _pair(q: ZCoeffs) -> list[Fraction] | None:
    """Ends and midpoint of a grid cell of (0, 1] where q has signs s, -s, s,
    by the two-root step of Newton-Descartes (Sagraloff, ISSAC 2012), else
    None.  The estimates use q's leading 288 bits, in fixed point u = U /
    2^128: _horner of _scaled(p, 2^128) at U is 2^(128 deg p) p(u), so a
    Newton step of p is the value of p over that of p'.  The signs are exact."""
    d1 = _derivative(q)
    # the two-fold Newton steps from 0 and 1, e / den and g / den, agree to 1/64
    den, e, g = d1[0] * sum(d1), -2 * q[0] * sum(d1), (sum(d1) - 2 * sum(q)) * d1[0]
    if not den or 64 * abs(e - g) > abs(den):
        return None
    shift, one = max(0, max(map(int.bit_length, q)) - 288), 1 << 128
    t = [a >> shift for a in q]
    p0, p1, p2 = (_scaled(p, one) for p in (t, _derivative(t), _derivative(_derivative(t))))

    def newton(p, dp, u):  # until a step floors to 0; 1/64 to 2^-128 takes < 16
        for _ in range(16):
            if not (v := _horner(dp, u)) or not (step := _horner(p, u) // v):
                break
            u -= step
        return u

    c = newton(p1, p2, (e + g) * one // (2 * den))  # the centre, where q' = 0
    qc, q2c = _horner(p0, c), _horner(p2, c)
    if qc * q2c >= 0:  # no real pair resolved at this precision
        return None
    s = math.isqrt(-2 * qc // q2c)  # half the gap: q(c +- s) = 0 to second order
    lo, hi = newton(p0, p1, c - s) - 1, newton(p0, p1, c + s) - 1  # less 1: (lo, hi]
    if not 0 <= lo < hi < one:
        return None
    b, exact = (lo ^ hi).bit_length(), _scaled(q, one)  # the deepest cell of both
    cut = [(lo >> b << b) + (i << b - 1) for i in range(3)]
    v0, v1, v2 = (_horner(exact, u) for u in cut)
    return [Fraction(u, one) for u in cut] if v0 * v1 < 0 and v1 * v2 < 0 else None


def descartes_bound(p, lo: Fraction, hi: Fraction) -> int:
    """Descartes' rule of signs on the cell (lo, hi] of the nonzero p: the
    sign variations that bound its roots in (lo, hi), counted with
    multiplicity, plus one for a root at hi, up to 2.  0 proves that p has
    no root in (lo, hi]."""
    c = _normalize_input(p)
    return _descartes(_cell(c, lo, hi)) if _degree(c) > 0 else 0


def isolate_real_roots(
    p, lo: Fraction | None = None, hi: Fraction | None = None
) -> list[IsolatingInterval]:
    """Disjoint isolating intervals for all distinct real roots in (lo, hi],
    in increasing order: cells of the halving tree of (lo, hi], -B and B for
    the power-of-two root_bound B standing in for infinite ends.  The
    square-free part is taken internally, so a multiple root is isolated once.
    """
    f = squarefree_part(p)
    if _degree(f) < 1:
        return []
    bound = root_bound(f)
    a, b = -bound if lo is None else lo, bound if hi is None else hi
    if a >= b:
        return []
    coeffs, out, q = tuple(f), [], _cell(f, a, b)
    # cells (x, y, q, k, t), k = _descartes(q), t the halvings in a row whose
    # other half held no root, depth first without recursion
    todo = [(a, b, q, _descartes(q), 0)]
    while todo:
        x, y, q, k, t = todo.pop()
        if k < 2:
            out += [IsolatingInterval(x, y, coeffs)] * k
        elif t >= 8 and not t & (t - 1) and _descartes(q, 3) == 2 and (cut := _pair(q)):
            # at most two roots: the halves of that grid cell each hold one root
            ends = [x + (y - x) * u for u in cut]
            out += [IsolatingInterval(*ends[:2], coeffs), IsolatingInterval(*ends[1:], coeffs)]
        else:
            mid, left = (x + y) / 2, _halve(q)
            right = _shift(left)
            kl, kr = _descartes(left), _descartes(right)
            todo += [(mid, y, right, kr, 0 if kl else t + 1),
                     (x, mid, left, kl, 0 if kr else t + 1)]
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
    its cell from its exact root.  The width must be positive."""
    if not width > 0:
        raise DomainError(f"refinement width must be positive, got {width}")
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
    return bool(c) and all(a == 0 or (d % 2 == 0) == (a > 0) for d, a in enumerate(c))
