"""Resultants, multivariate gcds, and resultant-based elimination.

The resultant evaluates and interpolates modulo 61-bit primes (Collins, JACM
18, 1971).  Degree windows, from assignments over the Sylvester matrix, and
the Goldstein-Graham coefficient bound (SIAM Review 16, 1974) fix its points
and primes, hence its cost, before any evaluation.  The gcd is the classical
primitive-PRS algorithm, recursing on the number of variables.  Elimination
chains resultants against a low-degree pivot; it strips shared factors
whenever a resultant degenerates to zero, and the content and every
monomial factor from each resultant.
"""

from __future__ import annotations

from math import inf, prod

from ..errors import DegenerateSystemError, DomainError, EliminationOverflowError
from .poly import RationalPoly

# Most primes x evaluation points one resultant may take; the largest call
# of a (3,3,2) solve takes 7 x 117 = 819.
RESULTANT_BUDGET = 50_000


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
    lb = b.coeffs_in(var)[-1]
    xv = RationalPoly.var(a.vars, var)
    r = a
    e = da - db + 1
    while not r.is_zero():
        dr = r.degree(var)
        if dr < db:
            break
        r = r * lb - b * r.coeffs_in(var)[-1] * xv ** (dr - db)
        e -= 1
    if e > 0:
        r = r * lb**e
    return r


def _primes():
    """Primes in (2^60, 2^61), descending (Miller-Rabin, exact below 3.3e24)."""
    n = 2**61 + 1
    while True:
        n -= 2
        s = ((n - 1) & (1 - n)).bit_length() - 1
        d = (n - 1) >> s
        if all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)):
            yield n


def _res_univariate(a: list[int], b: list[int], p: int) -> int:
    """Res(a, b) mod p by Euclid, for ascending lists with nonzero leads:
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, a mod b)."""
    res = 1
    while len(b) > 1:
        r, inv, n = a[:], pow(b[-1], -1, p), len(b) - 1
        for k in range(len(r) - 1, n - 1, -1):
            c = r[k] * inv % p
            r[k - n:k] = [(u - c * v) % p for u, v in zip(r[k - n:k], b)]
        del r[n:]
        while r and not r[-1]:
            r.pop()
        if not r:
            return 0
        res = res * (-1) ** ((len(a) - 1) * n) * pow(b[-1], len(a) - len(r), p) % p
        a, b = b, r
    return res * pow(b[0], len(a) - 1, p) % p


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
    out = []
    for t in range(len(next(iter(f))) - 1):
        lo, hi = (_assignment([[sign * pick(m[t] for m in row[j]) if j in row else None
                                for j in range(df + dg)] for row in rows])
                  for sign, pick in ((1, min), (-1, max)))
        if lo is None:
            return None
        out.append((lo, -hi))
    return out


def _res_mod(f: dict, g: dict, df: int, dg: int, windows: list[tuple[int, int]], p: int):
    """Res_var(f, g) mod p as {exponents of the other variables: residue},
    or None when a leading coefficient in var vanishes mod p.

    f and g map (exponents of the other variables, exponent of var) to
    residues; windows[i] = (lo, hi) holds the result's exponents in the i-th
    other variable (see _windows).  The first is set to hi - lo + 1 points
    x = 1, 2, ... where both leading coefficients survive, the rest recurse,
    and Newton interpolation rebuilds each coefficient times x^-lo.
    """
    if not (any(m[-1] == df for m in f) and any(m[-1] == dg for m in g)):
        return None
    if not windows:
        r = _res_univariate([f.get((e,), 0) for e in range(df + 1)],
                            [g.get((e,), 0) for e in range(dg + 1)], p)
        return {(): r} if r else {}
    lo, hi = windows[0]
    split: list[dict] = [{}, {}]  # {rest of the key: [(first exponent, c)]}
    for part, h in zip(split, (f, g)):
        for m, c in h.items():
            part.setdefault(m[1:], []).append((m[0], c))
    xs, vals, x = [], [], 1
    while len(xs) <= hi - lo:
        fx, gx = ({k: v for k, t in part.items() if (v := sum(c * x**e for e, c in t) % p)}
                  for part in split)
        r = _res_mod(fx, gx, df, dg, windows[1:], p)
        if r is not None:
            xs.append(x)
            vals.append({k: v * pow(x, -lo, p) % p for k, v in r.items()})
        x += 1
    inv = [0, 1]  # inverses of 1 .. xs[-1] mod p
    for k in range(2, xs[-1] + 1):
        inv.append(-(p // k) * inv[p % k] % p)
    n, out = len(xs), {}
    for key in set().union(*vals):
        c = [v.get(key, 0) for v in vals]  # Newton divided differences
        for j in range(1, n):
            c[j:] = [(c[i] - c[i - 1]) * inv[xs[i] - xs[i - j]] % p for i in range(j, n)]
        coeffs: list[int] = []  # Newton form to monomial form, Horner-wise
        for i in range(n - 1, -1, -1):
            coeffs = [(u - xs[i] * v) % p for u, v in zip([0] + coeffs, coeffs + [0])]
            coeffs[0] = (coeffs[0] + c[i]) % p
        out.update(((e + lo,) + key, v) for e, v in enumerate(coeffs) if v)
    return out


def resultant(p: RationalPoly, q: RationalPoly, var: str) -> RationalPoly:
    """Resultant of p and q with respect to var: the Sylvester determinant.

    The result is a polynomial in the remaining variables (a constant when
    both inputs are univariate); it is identically zero exactly when p and q
    share a factor of positive degree in var.  It is computed modulo primes
    (see the module docstring) and raises EliminationOverflowError, before
    any evaluation, when primes x points would exceed RESULTANT_BUDGET.
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
    nprimes = -(-((bound2.bit_length() + 1) // 2 + 1) // 60)  # 2^(60 nprimes) > 2B
    points = prod(hi - lo + 1 for lo, hi in windows)
    if nprimes * points > RESULTANT_BUDGET:
        raise EliminationOverflowError(
            f"resultant in {var}: {nprimes} primes x {points} points "
            f"exceeds the budget {RESULTANT_BUDGET}"
        )
    terms, modulus, primes = {}, 1, _primes()
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
    lifted = {
        key[:i] + (0,) + key[i:]: x - modulus if 2 * x > modulus else x
        for key, x in terms.items()
    }
    return RationalPoly(variables, lifted) * (cp**dq * cq**dp)


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
        new = (_strip_monomial(_resultant_or_strip(pivot, p, var))
               for p in using if p is not pivot)
        polys = rest + [r for r in new if not r.is_constant()]
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
