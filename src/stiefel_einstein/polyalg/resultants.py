"""Resultants and resultant-based elimination.

Against an operand of degree 1 in the eliminated variable, a1 var + a0, the
resultant is the closed form a1^n g(-a0/a1) = sum_k g_k (-a0)^k a1^(n-k),
expanded by Horner in integer arithmetic (von zur Gathen & Gerhard, Modern
Computer Algebra, section 6).  Otherwise it evaluates and interpolates
modulo a prime (Collins, JACM 18, 1971): a Proth prime k 2^e + 1, proven by
Proth's theorem, of the least multiple of 64 bits, up to MAX_PRIME_BITS,
that exceeds twice the Goldstein-Graham coefficient bound (SIAM Review 16,
1974); larger bounds combine several primes by CRT.  Degree windows, from
assignments over the Sylvester matrix, fix its points; with the bound they
fix its cost before any evaluation.  At each point every coefficient is
evaluated by Horner on its dense row, and the univariate images take an
inverse-free Euclidean resultant.
Elimination chains resultants against a low-degree pivot and strips the
content and every monomial factor from each resultant; a resultant that
vanishes identically is a DegenerateSystemError.
"""

from __future__ import annotations

from functools import cache
from itertools import count
from math import gcd, inf, isqrt, prod

from ..errors import DegenerateSystemError, DomainError, EliminationOverflowError
from .poly import RationalPoly

# Most 64-bit words of modulus x evaluation points one resultant may take;
# the largest call of a (3,3,2) solve takes 6 x 117 = 702.
RESULTANT_BUDGET = 50_000

# Largest prime the resultant works modulo; bounds above it take several
MAX_PRIME_BITS = 1024

# Bases tried in Proth's test; a prime that all of them leave at 1 is skipped
PROTH_BASES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@cache
def _odd_primes_product() -> int:
    """The product of the odd primes below 2^12."""
    odd = range(3, 1 << 12, 2)
    return prod(q for q in odd if all(q % r for r in range(3, isqrt(q) + 1, 2)))


@cache
def _proth_prime(bits: int, i: int) -> int:
    """The i-th prime p = k 2^e + 1 with bits = 2e bits and k odd, by k
    ascending from 2^(e-1), past candidates with an odd factor below 2^12.
    Since k < 2^e, Proth's theorem proves p prime once a^((p-1)/2) = -1 mod
    p for some base a; any result but 1 proves p composite."""
    e, small = bits // 2, _odd_primes_product()
    start = (_proth_prime(bits, i - 1) >> e) + 2 if i else (1 << e - 1) + 1
    for k in range(start, 1 << e, 2):
        p = (k << e) + 1
        if gcd(p, small) > 1:
            continue
        for a in PROTH_BASES:
            if (r := pow(a, p >> 1, p)) != 1:
                break
        if r == p - 1:
            return p


def _primes(bits: int):
    """Proth primes of the given (even) bit length, ascending."""
    for i in count():
        yield _proth_prime(bits, i)


def _res_univariate(a: list[int], b: list[int], p: int) -> int:
    """Res(a, b) mod p by Euclid on pseudo-remainders, for ascending lists
    with nonzero leads.  With m = deg a, n = deg b and d = max(m - n + 1, 0),
    prem(a, b) = lc(b)^d (a mod b), so Res(a, b) is
    (-1)^(mn) lc(b)^(m - deg prem) Res(b, prem(a, b)) / lc(b)^(dn); the
    powers of lc(b) gather in num and den, and den is inverted once."""
    num = den = 1
    while len(b) > 1:
        m, n, lb = len(a) - 1, len(b) - 1, b[-1]
        r = a[:]
        for k in range(m, n - 1, -1):  # r = lb r - r[k] x^(k-n) b
            c, s = r[k], k - n
            r[:s] = [u * lb % p for u in r[:s]]
            r[s:k] = [(u * lb - c * v) % p for u, v in zip(r[s:k], b)]
        del r[n:]
        while r and not r[-1]:
            r.pop()
        if not r:
            return 0
        e = m - len(r) + 1 - max(m - n + 1, 0) * n  # net power of lb
        if e >= 0:
            num = num * pow(lb, e, p) % p
        else:
            den = den * pow(lb, -e, p) % p
        if m * n & 1:
            num = -num
        a, b = b, r
    return num * pow(b[0], len(a) - 1, p) * pow(den, -1, p) % p


def _assignment(weights: list[list]) -> int | None:
    """Least sum of weights[i][perm[i]] over permutations perm that avoid the
    None entries; None when none does.  Hungarian algorithm with potentials:
    rows and columns count from 1, and column 0 holds the row being placed."""
    n = len(weights)
    cost = [[]] + [[0] + [inf if w is None else w for w in row] for row in weights]
    u, v, match, way = ([0] * (n + 1) for _ in range(4))
    for i in range(1, n + 1):
        match[0], j0, slack, used = i, 0, [inf] * (n + 1), [False] * (n + 1)
        while match[j0]:
            used[j0], i0, delta, j1 = True, match[j0], inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    if (c := cost[i0][j] - u[i0] - v[j]) < slack[j]:
                        slack[j], way[j] = c, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            if delta == inf:  # the rows reached see too few columns (Hall)
                return None
            j0 = j1
        while j0:  # augment along the alternating path
            match[j0], j0 = match[way[j0]], way[j0]
    return sum(cost[match[j]][j] for j in range(1, n + 1))


def _windows(f: dict, g: dict, df: int, dg: int) -> list[tuple[int, int]] | None:
    """For each other variable y, a window [lo, hi] holding every y-exponent
    of Res_var(f, g) (keyed as in _res_mod), or None when Res is 0: each term
    of the Sylvester determinant is a product of nonzero entries along a
    permutation, so its y-exponents lie between the least assignment of the
    entries' lowest y-exponents and the greatest of their y-degrees."""
    rows = []  # Sylvester rows {column: exponent keys of the entry}: f's, then g's
    for h, d, shifts in ((f, df, dg), (g, dg, df)):
        coeffs: dict = {}  # var exponent k -> keys; in shift i it sits in column i + d - k
        for m in h:
            coeffs.setdefault(m[-1], []).append(m)
        rows += [{i + d - k: ms for k, ms in coeffs.items()} for i in range(shifts)]

    def assign(weight):  # of the exponent keys of an entry
        return _assignment([[weight(row[j]) if j in row else None
                             for j in range(df + dg)] for row in rows])

    out = []
    for t in range(len(next(iter(f))) - 1):
        lo = assign(lambda ms: min(m[t] for m in ms))
        if lo is None:
            return None
        out.append((lo, -assign(lambda ms: -max(m[t] for m in ms))))
    # with no other variable, one run on zero weights finds whether a
    # permutation avoids the zero entries
    if not out and assign(lambda ms: 0) is None:
        return None
    return out


def _res_mod(f: dict, g: dict, df: int, dg: int, windows: list[tuple[int, int]], p: int):
    """Res_var(f, g) mod p as {exponents of the other variables: residue},
    or None when a leading coefficient in var vanishes mod p.

    f and g map (exponents of the other variables, exponent of var) to
    residues; windows[i] = (lo, hi) holds the result's exponents in the i-th
    other variable (see _windows).  The first is set to hi - lo + 1 points
    x = 1, 2, ... where both leading coefficients survive, each coefficient
    evaluated from its dense row in that variable by Horner, the rest
    recurse, and Newton interpolation rebuilds each coefficient times x^-lo.
    """
    if not (any(m[-1] == df for m in f) and any(m[-1] == dg for m in g)):
        return None
    if not windows:
        r = _res_univariate([f.get((e,), 0) for e in range(df + 1)],
                            [g.get((e,), 0) for e in range(dg + 1)], p)
        return {(): r} if r else {}
    lo, hi = windows[0]
    split: list[dict] = [{}, {}]  # {rest of the key: {first exponent: c}}
    for part, h in zip(split, (f, g)):
        for m, c in h.items():
            part.setdefault(m[1:], {})[m[0]] = c
    rows = [[(k, [t.get(e, 0) for e in range(max(t), -1, -1)]) for k, t in part.items()]
            for part in split]  # dense rows, highest exponent first
    xs, vals, x = [], [], 1
    while len(xs) <= hi - lo:
        at = [{}, {}]
        for part, out in zip(rows, at):
            for k, row in part:
                v = 0
                for c in row:
                    v = v * x + c
                if v := v % p:
                    out[k] = v
        r = _res_mod(*at, df, dg, windows[1:], p)
        if r is not None:
            xs.append(x)
            vals.append(r)
        x += 1
    inv = [0, 1]  # inverses of 1 .. xs[-1] mod p
    for k in range(2, xs[-1] + 1):
        inv.append(-(p // k) * inv[p % k] % p)
    scale = [pow(inv[x], lo, p) for x in xs]  # x^-lo
    n, out = len(xs), {}
    for key in set().union(*vals):
        c = [v.get(key, 0) * s % p for v, s in zip(vals, scale)]  # Newton divided differences
        for j in range(1, n):
            c[j:] = [(c[i] - c[i - 1]) * inv[xs[i] - xs[i - j]] % p for i in range(j, n)]
        coeffs: list[int] = []  # Newton form to monomial form, Horner-wise
        for i in range(n - 1, -1, -1):
            coeffs = [(u - xs[i] * v) % p for u, v in zip([0] + coeffs, coeffs + [0])]
            coeffs[0] = (coeffs[0] + c[i]) % p
        out.update(((e + lo,) + key, v) for e, v in enumerate(coeffs) if v)
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


def resultant(p: RationalPoly, q: RationalPoly, var: str) -> RationalPoly:
    """Resultant of p and q with respect to var: the Sylvester determinant.

    The result is a polynomial in the remaining variables (a constant when
    both inputs are univariate); it is identically zero exactly when p and q
    share a factor of positive degree in var.  When either operand has
    degree 1 in var it is the closed form of the module docstring, with the
    sign (-1)^(deg p) when only q is linear.  Otherwise it is computed
    modulo primes, the variables in neither operand left out, and raises
    EliminationOverflowError, before any evaluation, when the 64-bit words
    of its moduli x its points would exceed RESULTANT_BUDGET.
    """
    if q.vars != p.vars:
        q = q.reorder(p.vars)
    variables = p.vars
    if p.is_zero() or q.is_zero():
        return RationalPoly.zero(variables)
    dp, dq, cp, cq = p.degree(var), q.degree(var), p.content(), q.content()
    i = variables.index(var)
    order = [j for j in range(len(variables)) if j != i] + [i]
    f, g = ({tuple(m[j] for j in order): int(c / ch) for m, c in h.terms.items()}
            for h, ch in ((p, cp), (q, cq)))
    scale = cp**dq * cq**dp
    if 1 in (dp, dq):  # closed form against the linear operand
        r = _linear(f, g, -1) if dp == 1 else _linear(g, f, 1)
        return RationalPoly(variables, {m[:i] + (0,) + m[i:]: c for m, c in r.items()}) * scale
    # a variable in neither operand has no exponent in the result: leave it out
    used = [t for t in range(len(order) - 1) if any(m[t] for h in (f, g) for m in h)]
    f, g = ({tuple(m[t] for t in used) + m[-1:]: c for m, c in h.items()} for h in (f, g))
    windows = _windows(f, g, dp, dq)
    if windows is None:
        return RationalPoly.zero(variables)
    # Goldstein-Graham: no coefficient of the Sylvester determinant exceeds
    # B, the product over its rows of the 2-norm of the entries' L1 norms
    l1 = [[0] * (dp + 1), [0] * (dq + 1)]
    for row, h in zip(l1, (f, g)):
        for m, c in h.items():
            row[m[-1]] += abs(c)
    bound2 = sum(v * v for v in l1[0]) ** dq * sum(v * v for v in l1[1]) ** dp  # B^2
    need = (bound2.bit_length() + 1) // 2 + 2  # 2^(need - 1) > 2B
    bits = min(-(-need // 64) * 64, MAX_PRIME_BITS)
    words = bits // 64 * -(-(need - 1) // (bits - 1))  # each prime exceeds 2^(bits - 1)
    points = prod(hi - lo + 1 for lo, hi in windows)
    if words * points > RESULTANT_BUDGET:
        raise EliminationOverflowError(
            f"resultant in {var}: {words} words x {points} points "
            f"exceeds the budget {RESULTANT_BUDGET}"
        )
    terms, modulus, primes = {}, 1, _primes(bits)
    while modulus**2 <= 4 * bound2:  # until the modulus exceeds 2B
        prime = next(primes)
        fp, gp = ({m: c % prime for m, c in h.items() if c % prime} for h in (f, g))
        r = _res_mod(fp, gp, dp, dq, windows, prime)
        if r is None:
            continue  # a leading coefficient in var vanishes mod prime
        inv = pow(modulus, -1, prime)
        for key in terms.keys() | r.keys():  # CRT
            x = terms.get(key, 0)
            terms[key] = x + modulus * ((r.get(key, 0) - x) * inv % prime)
        modulus *= prime
    lifted = {}
    for key, x in terms.items():
        m = [0] * len(variables)
        for t, e in zip(used, key):
            m[order[t]] = e
        lifted[tuple(m)] = x - modulus if 2 * x > modulus else x
    return RationalPoly(variables, lifted) * scale


def _strip_monomial(p: RationalPoly) -> RationalPoly:
    """The primitive part of a nonzero p over its largest monomial factor,
    which has no root with every coordinate positive."""
    return p.primitive() / RationalPoly(p.vars, {tuple(map(min, zip(*p.terms))): 1})


def eliminate_resultant(
    gens: list[RationalPoly], keep: str
) -> tuple[RationalPoly, list[tuple[str, RationalPoly]]]:
    """Univariate eliminant in keep via successive pairwise resultants.

    Variables are eliminated in ranking order against the generator of
    lowest degree in the variable being removed.  The root set of the
    eliminant contains the keep-coordinates of all system solutions;
    extraneous roots are possible and are expected to be filtered by
    back-substitution.  The eliminant is the surviving univariate constraint
    of least degree, content-normalized: each one holds every solution's
    keep-coordinate.  A resultant that vanishes identically (the pivot and
    another generator share a factor in the variable) raises
    DegenerateSystemError.

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
        polys = [p for p in polys if var not in p.variables_used()]
        if not using:
            continue
        pivot = min(using, key=lambda p: (p.degree(var), p.total_degree()))
        pivots.append((var, pivot))
        for p in using:
            if p is pivot:
                continue
            r = resultant(pivot, p, var)
            if r.is_zero():
                raise DegenerateSystemError(
                    f"resultant in {var!r} vanished identically: "
                    "the pivot shares a factor with another generator"
                )
            r = _strip_monomial(r)
            if not r.is_constant():
                polys.append(r)
    final = [p for p in polys if keep in p.variables_used()]
    if not final:
        raise DegenerateSystemError(
            f"elimination produced no constraint on {keep!r}"
        )
    return min(final, key=lambda p: p.degree(keep)), pivots
