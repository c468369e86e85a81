"""Resultants and resultant-based elimination, on integer polynomials keyed
by exponent tuples (Poly), the package's one multivariate format.

Against an operand of degree 1 in the eliminated variable, a1 var + a0, the
resultant is the closed form a1^n g(-a0/a1) = sum_k g_k (-a0)^k a1^(n-k),
expanded by Horner in integer arithmetic (von zur Gathen & Gerhard, Modern
Computer Algebra, section 6).  Otherwise it evaluates and interpolates modulo
one prime (Collins, JACM 18, 1971): the least Proth prime k 2^e + 1, proven by
Proth's theorem, of the least multiple of 64 bits that exceeds twice the
Goldstein-Graham coefficient bound (SIAM Review 16, 1974).  Degree windows,
from the Newton polygons of the operands, fix its points; with the bound they
fix its cost before any evaluation.  In one other variable y, a wide window
also takes the roots of the operands near var = 1 and var = -1, and bounds
the orders of the resultant at y = 1 and y = -1: the run interpolates it over
y^lo (y - 1)^up (y + 1)^down, on fewer points, and multiplies that back.  The
points of each variable are a run of consecutive integers from 2 up, and
every coefficient is evaluated over the run by Horner on its dense row.  The
run of the last variable takes one Euclidean resultant on pseudo-remainders
whose coefficients are lists over its points, as a numerator and a
denominator per point.  One modular inverse per run serves all its
denominators (Montgomery, Math. Comp. 48, 1987), and forward differences
interpolate the run.
Elimination strips the content and every monomial factor from its
generators and from each resultant, and chains resultants against a
low-degree pivot; a resultant that vanishes identically is a
DegenerateSystemError.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from math import factorial, gcd, isqrt, prod
from operator import sub

from ..errors import DegenerateSystemError, DomainError, EliminationOverflowError

# An integer polynomial: exponent tuple -> nonzero coefficient, the tuple
# order being the variable order (index 0 ranks highest in lex)
Poly = dict[tuple[int, ...], int]

# Most 64-bit words of modulus x evaluation points one resultant may take;
# the largest call of a (3,3,2) solve takes 6 x 117 = 702.
RESULTANT_BUDGET = 50_000

# Least window, in points, at which a modular resultant in one other variable
# looks for factors y - 1, y + 1 and a higher power of y (see _windows).  The
# bounds cost 0.3-0.7 ms: on the shapes with n <= 16 they broke even on
# 49-point windows and cut 81- and 117-point resultants by a quarter.
REFINE_POINTS = 50

# Bases tried in Proth's test; a prime that all of them leave at 1 is skipped
PROTH_BASES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@cache
def _odd_primes_product() -> int:
    """The product of the odd primes below 2^12."""
    odd = range(3, 1 << 12, 2)
    return prod(q for q in odd if all(q % r for r in range(3, isqrt(q) + 1, 2)))


@cache
def _proth_prime(bits: int) -> int:
    """The least prime p = k 2^e + 1 with bits = 2e bits and k odd, by k
    ascending from 2^(e-1), past candidates with an odd factor below 2^12.
    Since k < 2^e, Proth's theorem proves p prime once a^((p-1)/2) = -1 mod
    p for some base a; any result but 1 proves p composite."""
    e, small = bits // 2, _odd_primes_product()
    for k in range((1 << e - 1) + 1, 1 << e, 2):
        p = (k << e) + 1
        if gcd(p, small) > 1:
            continue
        for a in PROTH_BASES:
            if (r := pow(a, p >> 1, p)) != 1:
                break
        if r == p - 1:
            return p


def _res_batch(a: list[list[int]], b: list[list[int]], p: int) -> tuple[list[int], list[int]]:
    """Res(a, b) mod p as (nums, dens), Res = num / den at each point of a
    batch: a and b are ascending lists of coefficients, each a list over the
    points, with leads nonzero at every point (against one of degree 0, Res
    is that constant to the other degree, and the other lead is never read).
    Euclid on pseudo-remainders: with m = deg a and n = deg b, d >= m - n + 1
    steps of division give prem(a, b) = lc(b)^d (a mod b), so Res(a, b) is
    (-1)^(mn) Res(b, prem(a, b)) / lc(b)^(dn - m + deg prem), a power that is
    never negative.  d is made even and the steps go in pairs: with q0 and q1
    the leading coefficients met by the two steps, one pass sets
    r = lc(b)^2 r - (lc(b) q0 x + q1) x^(deg r - n - 1) b and reduces each
    coefficient once.  The batch shares its degrees and passes; where deg prem
    differs between points, it splits into one group per degree."""
    size = len(a[0])
    nums, dens = [0] * size, [1] * size
    work = [(a, b, range(size), 1, [1] * size)]  # a group: its points, sign, dens
    while work:
        a, b, at, sign, den = work.pop()
        m, n, lb = len(a) - 1, len(b) - 1, b[-1]
        if not n:
            for j, v, c in zip(at, den, lb):
                nums[j], dens[j] = sign * pow(c, m, p) % p, v
            continue
        d = max(m - n + 1, 0)
        d += d & 1
        r, lb2 = a + [[0] * len(at)] * (n + d - m - 1), [c * c % p for c in lb]
        while len(r) > n:
            k = len(r) - 1
            h = k - n
            q1 = [(c * u - v * w) % p for c, u, v, w in zip(lb, r[k - 1], r[k], b[n - 1])]
            q0 = [v * c % p for v, c in zip(r[k], lb)]
            r = ([[c * u % p for c, u in zip(lb2, row)] for row in r[:h - 1]]
                 + [[(c * u - s * t) % p for c, u, s, t in zip(lb2, r[h - 1], q1, b[0])]]
                 + [[(c * u - s * v - t * w) % p
                     for c, u, s, v, t, w in zip(lb2, ru, q0, bv, q1, bw)]
                    for ru, bv, bw in zip(r[h:k - 1], b, b[1:])])
        groups = {n - 1: None} if all(r[-1]) else {}  # deg prem -> positions, None for all
        for j in () if groups else range(len(at)):
            groups.setdefault(max((e for e in range(n) if r[e][j]), default=-1), []).append(j)
        for e, js in groups.items():
            if e < 0:
                continue  # prem, and so Res, vanishes
            rows = b + r[:e + 1] + [at, den, lb]  # each a list over the group
            if js is not None:
                rows = [[row[j] for j in js] for row in rows]
            *rows, at_e, den_e, lb_e = rows
            den_e = [v * pow(c, d * n + e - m, p) % p for v, c in zip(den_e, lb_e)]
            work.append((rows[:n + 1], rows[n + 1:], at_e, -sign if m * n & 1 else sign, den_e))
    return nums, dens


def _inverses(xs: list[int], p: int) -> list[int]:
    """The inverses of xs mod p with one modular inverse (Montgomery, Math.
    Comp. 48, 1987): invert the product, then peel off one factor at a time."""
    prefix = list(accumulate(xs, lambda u, v: u * v % p, initial=1))
    inv, out = pow(prefix.pop(), -1, p), []
    for x, before in zip(reversed(xs), reversed(prefix)):
        out.append(inv * before % p)
        inv = inv * x % p
    return out[::-1]


def _hull(f: list) -> list[tuple[int, int]]:
    """The lower convex hull of the points (k, f[k]), f[k] not None."""
    hull: list[tuple[int, int]] = []
    for k, v in ((k, v) for k, v in enumerate(f) if v is not None):
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (v - hull[-2][1])
                                 <= (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])):
            hull.pop()
        hull.append((k, v))
    return hull


def _roots(f: list, g: list):
    """(d, count, bound) for each class of roots alpha of f as Puiseux series,
    from the orders of the coefficients of f and g in var, ascending, None
    for a zero one: count roots whose order has the sign of d, and a lower
    bound on the sum of their ord g(alpha).  The k0 zero coefficients of f give
    k0 roots alpha = 0, with g(0) = g_0, and d = 1; each edge (k1, v1)-(k2, v2)
    of the lower hull of the points (k, ord f_k) gives d = v1 - v2 and
    k2 - k1 roots of order d / (k2 - k1), where
    ord g(alpha) >= min_k (ord g_k + k ord alpha)."""
    hull = _hull(f)
    if k0 := hull[0][0]:
        yield 1, k0, k0 * g[0]
    for (k1, v1), (k2, v2) in zip(hull, hull[1:]):
        yield v1 - v2, k2 - k1, min((k2 - k1) * w - k * (v2 - v1)
                                    for k, w in enumerate(g) if w is not None)


def _low(f: list, g: list, centres: list = ()) -> int:
    """A lower bound on the order of Res_var(f, g) in a valuation of the
    other variables, from the orders of the coefficients of f and g in var,
    ascending, None for a zero one.  By Poisson's formula
    Res = lc(f)^(deg g) prod g(alpha) over the roots alpha of f as Puiseux
    series, whose ord g(alpha) _roots bounds; it bounds each root of order 0
    by m0 = min_k ord g_k.  For each centre c != 0, centres holds the orders
    of the coefficients of f(c + var) and g(c + var): the roots with value c
    at the valuation's point are c plus the roots of positive order of
    f(c + var), and the bound of _roots on those replaces m0 for them."""
    low = (len(g) - 1) * f[-1] + sum(bound for _, _, bound in _roots(f, g))
    m0 = min(w for w in g if w is not None)
    for fc, gc in centres:
        low += sum(bound - count * m0 for d, count, bound in _roots(fc, gc) if d > 0)
    return low


def _rows(h: dict, d: int) -> list[list[int]]:
    """The coefficients of h in var, ascending, for h in one other variable y
    keyed (y-exponent, var-exponent): dense rows in y, ascending, of one
    length."""
    rows = [[0] * (1 + max(m[0] for m in h)) for _ in range(d + 1)]
    for (e, k), c in h.items():
        rows[k][e] = c
    return rows


def _shift(rows: list[list[int]], c: int) -> list[list[int]]:
    """The rows of h(c + var) from those of h(var) (see _rows), by the
    Taylor shift's triangle of additions."""
    rows = list(rows)
    for i in range(len(rows) - 1):
        for j in range(len(rows) - 2, i - 1, -1):
            rows[j] = [u + c * v for u, v in zip(rows[j], rows[j + 1])]
    return rows


def _order(row: list[int], y0: int) -> int | None:
    """The order at y = y0 of a dense row, ascending in y (see _rows), None
    for a zero row: at y0 = 0 its least exponent, otherwise the number of
    exact divisions by y - y0, by synthetic division."""
    if not any(row):
        return None
    if not y0:
        return next(e for e, c in enumerate(row) if c)
    order = 0
    while True:
        quotient, v = [], 0
        for c in reversed(row):
            v = v * y0 + c
            quotient.append(v)
        if v:
            return order
        row, order = quotient[-2::-1], order + 1


def _bound(ords: list[list], centres: list = ()) -> int:
    """The tighter of the bounds _low gives on the order of Res(f, g) and of
    Res(g, f), from ords, the orders of the coefficients of f and of g, and
    the same at each centre (see _low)."""
    return max(_low(*ords, centres), _low(*ords[::-1], [pair[::-1] for pair in centres]))


def _windows(f: dict, g: dict, df: int, dg: int) -> list[tuple[int, int, int, int]] | None:
    """For each other variable y, a window (lo, hi, up, down): every y-exponent
    of Res_var(f, g) (keyed as in _res_mod) lies in [lo, hi], and
    (y - 1)^up (y + 1)^down divides it; or None when Res is 0.  lo is the
    _bound on ord_y Res, hi minus the same on the order at infinity, -deg_y.
    up and down are 0 but for one other variable and a window [lo, hi] of at
    least REFINE_POINTS points; there lo also takes the centres var = 1 and
    var = -1 (see _low), and up and down are the _bound at y = 1 and y = -1.
    Res is 0 when f(c) = g(c) = 0 for c = 0 (with both leads nonzero, the
    only way that every term of the Sylvester determinant holds a zero
    entry), or for c = 1 or -1 where those are looked at, or when
    lo + up + down > hi."""
    if all(m[-1] for m in f) and all(m[-1] for m in g):
        return None
    out, others = [], len(next(iter(f))) - 1
    for t in range(others):
        exps = [[[m[t] for m in h if m[-1] == k] for k in range(d + 1)]
                for h, d in ((f, df), (g, dg))]  # y-exponents of each coefficient
        low = [[min(e) if e else None for e in ex] for ex in exps]
        high = [[-max(e) if e else None for e in ex] for ex in exps]
        lo, hi, up, down = _bound(low), -_bound(high), 0, 0
        if others == 1 and hi - lo + 1 >= REFINE_POINTS:
            rows = _rows(f, df), _rows(g, dg)
            shifted = [[_shift(h, c) for h in rows] for c in (1, -1)]
            if any(not any(fc[0]) and not any(gc[0]) for fc, gc in shifted):
                return None  # var - c divides f and g
            lo = _bound(low, [[[_order(row, 0) for row in h] for h in pair] for pair in shifted])
            up, down = (_bound([[_order(row, y0) for row in h] for h in rows]) for y0 in (1, -1))
        if lo + up + down > hi:
            return None
        out.append((lo, hi, up, down))
    return out


def _values(row: list[int], xs: range, p: int) -> list[int]:
    """A dense row, highest exponent first, at each of xs by Horner, mod p."""
    out = []
    for x in xs:
        v = 0
        for c in row:
            v = v * x + c
        out.append(v % p)
    return out


def _run(leads: list[list[list[int]]], n: int, p: int) -> int:
    """The least s >= 2 such that both leading coefficients survive mod p at
    every point x = s, ..., s + n - 1.  Each lead comes as its dense rows in
    the first other variable and survives at x when one of them is nonzero
    there; a run that meets a vanishing point restarts after it."""
    dead = [1]
    while dead:
        xs = range(dead[-1] + 1, dead[-1] + 1 + n)
        alive = [map(any, zip(*(_values(row, xs, p) for row in lead))) for lead in leads]
        dead = [x for x, *up in zip(xs, *alive) if not all(up)]
    return xs[0]


def _res_mod(f: dict, g: dict, df: int, dg: int, windows: list[tuple[int, int, int, int]],
             p: int) -> dict:
    """Res_var(f, g) mod p, keyed by the exponents of the other variables, for
    f and g of degrees df and dg in var whose leading coefficients do not
    vanish mod p, unless one of them has degree 0 (see _res_batch).

    f and g map (exponents of the other variables, exponent of var) to
    residues; windows[i] = (lo, hi, up, down) bounds the result in the i-th
    other variable x (see _windows): its x-exponents lie in [lo, hi], and
    (x - 1)^up (x + 1)^down divides it.  x is set to the first run of
    N = hi - lo - up - down + 1 consecutive points x = s, ..., s + N - 1
    where both leading coefficients survive (see _run), every coefficient
    evaluated over the run from its dense row in x by Horner.  If x is the
    last other variable the run takes one Euclid (see _res_batch); otherwise
    each point recurses.  One inverse serves the run's denominators, times
    x^lo (x - 1)^up (x + 1)^down, and (N - 1)!; forward differences then give
    the Newton form sum_k D^k binom(x - s, k) of the quotient, which is
    expanded by Horner in integers, times (N - 1)!, multiplied back by
    (x - 1)^up (x + 1)^down, and reduced once per coefficient.
    """
    if not windows:
        (num,), (den,) = _res_batch(*([[h.get((e,), 0)] for e in range(d + 1)]
                                      for h, d in ((f, df), (g, dg))), p)
        return {(): v} if (v := num * pow(den, -1, p) % p) else {}
    lo, hi, up, down = windows[0]
    n = hi - lo - up - down + 1
    split: list[dict] = [{}, {}]  # {rest of the key: {first exponent: c}}
    for part, h in zip(split, (f, g)):
        for m, c in h.items():
            part.setdefault(m[1:], {})[m[0]] = c
    rows = [[(k, [t.get(e, 0) for e in range(max(t), -1, -1)]) for k, t in part.items()]
            for part in split]  # dense rows, highest exponent first
    s = _run([[row for k, row in part if k[-1] == d] for part, d in zip(rows, (df, dg))], n, p)
    xs = range(s, s + n)
    at = [{k: _values(row, xs, p) for k, row in part} for part in rows]
    if len(windows) == 1:  # the coefficients in var, each a list over the run
        nums, dens = _res_batch(*([part.get((e,), [0] * n) for e in range(d + 1)]
                                  for part, d in zip(at, (df, dg))), p)
        vals = [{(): v} if v else {} for v in nums]
    else:
        vals = [_res_mod(*({k: v[j] for k, v in part.items() if v[j]} for part in at),
                         df, dg, windows[1:], p) for j in range(n)]
        dens = [1] * n
    *inv, inv_fact = _inverses([d * x**lo * (x - 1)**up * (x + 1)**down for d, x in zip(dens, xs)]
                               + [factorial(n - 1)], p)
    x, out = xs[-1], {}  # the run ends at x
    for key in set().union(*vals):
        diff = [v.get(key, 0) * u % p for v, u in zip(vals, inv)]
        for j in range(1, n):  # diff[j] becomes the j-th forward difference at s
            diff[j:] = map(sub, diff[j:], diff[j - 1:])
        coeffs, weight = [diff[-1]], 1  # weight = (N - 1)! / k!
        for k in range(n - 2, -1, -1):  # times x - s - k, plus D^k (N - 1)! / k!
            weight *= k + 1
            node = x - n + 1 + k
            coeffs = ([diff[k] * weight - node * coeffs[0]]
                      + [u - node * v for u, v in zip(coeffs, coeffs[1:])] + [coeffs[-1]])
        for c in [1] * up + [-1] * down:  # times x - c
            coeffs = ([-c * coeffs[0]] + [u - c * v for u, v in zip(coeffs, coeffs[1:])]
                      + [coeffs[-1]])
        out.update(((e + lo,) + key, v) for e, u in enumerate(coeffs) if (v := u * inv_fact % p))
    return out


def _linear(f: dict, g: dict, s: int) -> dict:
    """Sum_k g_k (s a0)^k (-s a1)^(n - k), keyed by the other exponents, for
    f = a1 var + a0 and g = sum_k g_k var^k of degree n, both keyed as in
    _res_mod.  With s = -1 that is a1^n g(-a0/a1) = Res_var(f, g);
    with s = 1 it is (-1)^n a1^n g(-a0/a1) = Res_var(g, f).  Horner in
    (s a0, -s a1): n steps of integer dict products, no prime and no point."""
    a: list[dict] = [{}, {}]  # s a0, -s a1
    for m, c in f.items():
        a[m[-1]][m[:-1]] = (-s if m[-1] else s) * c
    coeffs: dict = {}  # var exponent -> {other exponents: c}
    for m, c in g.items():
        coeffs.setdefault(m[-1], {})[m[:-1]] = c
    n = max(coeffs)
    r, power = coeffs[n], {(0,) * (len(next(iter(g))) - 1): 1}
    for k in range(n - 1, -1, -1):  # r = r (s a0) + g_k (-s a1)^(n - k)
        power = _addmul({}, power, a[1])
        r = _addmul(_addmul({}, r, a[0]), coeffs.get(k, {}), power)
    return {m: c for m, c in r.items() if c}


def _addmul(out: dict, a: dict, b: dict) -> dict:
    """out + a b, in place, for integer polynomials keyed by exponent tuples."""
    for m, c in a.items():
        for e, d in b.items():
            k = tuple(map(int.__add__, m, e))
            out[k] = out.get(k, 0) + c * d
    return out


def resultant(f: Poly, g: Poly, i: int, var: str) -> Poly:
    """Res_var(f, g), the Sylvester determinant, for nonzero integer
    polynomials keyed by exponent tuples, var at index i.

    The result is keyed like f and g, with exponent 0 at index i; it is {}
    exactly when f and g share a factor of positive degree in var.  When
    either operand has degree 1 in var it is the closed form of the module
    docstring, with the sign (-1)^(deg f) when only g is linear.  Otherwise
    it is computed modulo the one prime of the module docstring, the
    variables in neither operand left out, and raises
    EliminationOverflowError, before any evaluation, when the 64-bit words
    of that prime x its points would exceed RESULTANT_BUDGET.  No lead
    vanishes mod the prime: the bound exceeds every coefficient of f and g
    when both have positive degree in var, and against degree 0 the other
    lead is never read (see _res_batch).
    """
    df, dg = max(m[i] for m in f), max(m[i] for m in g)
    order = [j for j in range(len(next(iter(f)))) if j != i] + [i]
    f, g = ({tuple(m[j] for j in order): c for m, c in h.items()} for h in (f, g))
    if 1 in (df, dg):  # closed form against the linear operand
        r = _linear(f, g, -1) if df == 1 else _linear(g, f, 1)
        return {m[:i] + (0,) + m[i:]: c for m, c in r.items()}
    # a variable in neither operand has no exponent in the result: leave it out
    used = [t for t in range(len(order) - 1) if any(m[t] for h in (f, g) for m in h)]
    f, g = ({tuple(m[t] for t in used) + m[-1:]: c for m, c in h.items()} for h in (f, g))
    windows = _windows(f, g, df, dg)
    if windows is None:
        return {}
    # Goldstein-Graham: no coefficient of the Sylvester determinant exceeds
    # B, the product over its rows of the 2-norm of the entries' L1 norms
    l1 = [[0] * (df + 1), [0] * (dg + 1)]
    for row, h in zip(l1, (f, g)):
        for m, c in h.items():
            row[m[-1]] += abs(c)
    bound2 = sum(v * v for v in l1[0]) ** dg * sum(v * v for v in l1[1]) ** df  # B^2
    need = (bound2.bit_length() + 1) // 2 + 2  # 2^(need - 1) > 2B
    words = -(-need // 64)  # the prime exceeds 2^(64 words - 1) >= 2^(need - 1)
    points = prod(hi - lo - up - down + 1 for lo, hi, up, down in windows)
    if words * points > RESULTANT_BUDGET:
        raise EliminationOverflowError(
            f"resultant in {var}: {words} words x {points} points "
            f"exceeds the budget {RESULTANT_BUDGET}"
        )
    prime = _proth_prime(64 * words)
    fp, gp = ({m: c % prime for m, c in h.items() if c % prime} for h in (f, g))
    lifted = {}
    for key, x in _res_mod(fp, gp, df, dg, windows, prime).items():
        m = [0] * len(order)
        for t, e in zip(used, key):
            m[order[t]] = e
        lifted[tuple(m)] = x - prime if 2 * x > prime else x
    return lifted


def _primitive(h: Poly) -> Poly:
    """A nonzero integer polynomial over its content and its largest monomial
    factor (which has no root with every coordinate positive), with a
    positive lex-leading coefficient."""
    c = gcd(*h.values())
    if h[max(h)] < 0:
        c = -c
    low = tuple(map(min, zip(*h)))
    return {tuple(map(sub, m, low)): v // c for m, v in h.items()}


def eliminate_resultant(
    gens: list[Poly], variables: tuple[str, ...], keep: str
) -> tuple[Poly, list[tuple[str, Poly]]]:
    """Univariate eliminant in keep via successive pairwise resultants, for
    integer polynomials keyed by exponent tuples over variables.

    Variables are eliminated in ranking order against the generator of
    lowest degree in the variable being removed.  The root set of the
    eliminant contains the keep-coordinates of all system solutions with
    nonzero coordinates; extraneous roots are possible and are expected to
    be filtered by back-substitution.  The eliminant is the surviving
    univariate constraint of least degree: each one holds every solution's
    keep-coordinate.  A resultant that vanishes identically (the pivot and
    another generator share a factor in the variable) raises
    DegenerateSystemError.  The generators, and every resultant, are
    normalized by _primitive.

    Returns (eliminant, pivots): pivots lists (var, pivot) in elimination
    order, each pivot a polynomial in var and the variables eliminated after
    it.  Read backwards from keep they form a triangular set for lifting a
    root of the eliminant to a full solution.
    """
    polys = [_primitive(h) for h in gens if h]
    if not polys:
        raise DomainError("no nonzero generators")
    if keep not in variables:
        raise DomainError(f"variable {keep!r} not in {variables}")
    pivots: list[tuple[str, Poly]] = []
    for i, var in enumerate(variables):
        if var == keep:
            continue
        using = [h for h in polys if any(m[i] for m in h)]
        polys = [h for h in polys if not any(m[i] for m in h)]
        if not using:
            continue
        pivot = min(using, key=lambda h: (max(m[i] for m in h), max(map(sum, h))))
        pivots.append((var, pivot))
        for h in using:
            if h is pivot:
                continue
            r = resultant(pivot, h, i, var)
            if not r:
                raise DegenerateSystemError(
                    f"resultant in {var!r} vanished identically: "
                    "the pivot shares a factor with another generator"
                )
            r = _primitive(r)
            if any(map(any, r)):
                polys.append(r)
    k = variables.index(keep)
    final = [h for h in polys if any(m[k] for m in h)]
    if not final:
        raise DegenerateSystemError(
            f"elimination produced no constraint on {keep!r}"
        )
    return min(final, key=lambda h: max(m[k] for m in h)), pivots
