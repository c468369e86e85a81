"""Coefficient-list helpers shared by the test modules, and the oracles the
Sturm layer must agree with: the halving loop behind root refinement, the
two-PRS square-free part and root count, the cells root isolation must
give, the Schur-Cohn test behind the root bound, and the Fraction
Stern-Brocot walk; the one the resultant's degree windows must agree with,
least and greatest assignments over the Sylvester matrix; a loader for the
scripts in tools/; and one traced CLI solve per shape, which the
shape-space tests share."""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import math
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple
from unittest.mock import patch

import pytest

from stiefel_einstein import cli, solver
from stiefel_einstein.polyalg import IsolatingInterval, resultants
from stiefel_einstein.polyalg.sturm import (
    _degree,
    _derivative,
    _normalize_input,
    _prem,
    _primitive,
    _sign_at,
    root_bound,
)


@functools.cache
def tool(name: str):
    """The script tools/<name>.py, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TracedSolve(NamedTuple):
    """One solve of a shape through cli.main; each call is (args, kwargs,
    result)."""

    report: str  # the text of solve --format json
    system: solver.EinsteinSystem
    elimination: tuple  # what solver._eliminate returned
    solutions: list
    isolations: list  # the calls of solver.isolate_real_roots
    windows: list  # the calls of resultants._windows


def _recorder(fn, calls: list):
    def recorded(*args, **kwargs):
        calls.append((args, kwargs, fn(*args, **kwargs)))
        return calls[-1][2]

    return recorded


@functools.cache
def traced_solve(blocks: tuple[int, int, int]) -> TracedSolve:
    """The one `solve --blocks k1,k2,k3 --format json` the tests run on a
    shape (tools/solve_digest.report), with the isolations, the degree
    windows, the elimination and the solve that cli calls recorded.  Every
    caller gets the same objects, so none may change them."""
    hooks = [(solver, "isolate_real_roots"), (resultants, "_windows"),
             (solver, "_eliminate"), (cli, "solve")]
    calls: dict[str, list] = {name: [] for _, name in hooks}
    with contextlib.ExitStack() as stack:
        for module, name in hooks:
            recorded = _recorder(getattr(module, name), calls[name])
            stack.enter_context(patch.object(module, name, recorded))
        report = tool("solve_digest").report(blocks)
    ((_, _, elimination),) = calls["_eliminate"]
    (((system,), _, solutions),) = calls["solve"]
    return TracedSolve(report, system, elimination, solutions,
                       calls["isolate_real_roots"], calls["_windows"])


def times_x_minus_1(coeffs: list[Fraction]) -> list[Fraction]:
    """Ascending coefficients of (x - 1) * p from those of p."""
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] -= c
        out[i + 1] += c
    return out


def int_poly(expr, variables) -> dict:
    """A polynomial with integer coefficients, a sympy expression or its
    text, as an integer polynomial keyed by exponent tuples over variables."""
    sympy = pytest.importorskip("sympy")
    return {m: int(c) for m, c in sympy.Poly(expr, *sympy.symbols(variables)).terms() if c}


def sympy_expr(h: dict, variables):
    """An integer polynomial keyed by exponent tuples as a sympy expression."""
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(variables)
    return sympy.Add(*(c * sympy.Mul(*(s**e for s, e in zip(symbols, m))) for m, c in h.items()))


def univariate(h: dict, i: int) -> list[int]:
    """Ascending coefficients of an integer polynomial keyed by exponent
    tuples in which only variable i occurs."""
    coeffs = [0] * (max(m[i] for m in h) + 1)
    for m, c in h.items():
        assert not any(e for j, e in enumerate(m) if j != i), m
        coeffs[m[i]] = c
    return coeffs


def divides(d: list, p: list) -> bool:
    """Whether the ascending coefficient list d divides p over Q, by the
    remainder of sympy's Poly.rem."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    return sympy.Poly(p[::-1], x).rem(sympy.Poly(d[::-1], x)).is_zero


def halving_oracle(iv: IsolatingInterval, width: Fraction) -> IsolatingInterval:
    """The isolating interval iv halved until hi - lo <= width: each step
    evaluates f = iv.coeffs once at the midpoint and keeps the half where f
    changes sign.  Just right of lo the sign is that of f(lo), or of f'(lo)
    when lo is itself a root; a midpoint on the root becomes hi."""
    f = iv.coeffs
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


# -- the two-PRS Sturm layer: a gcd PRS for the square-free part, then a
# second PRS for the Sturm chain of that part ---------------------------------

def _gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd of a and b up to a constant factor, by the primitive PRS."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _prem(a, b)
    return a


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive b dividing a: integral by Gauss's lemma."""
    rem = list(a)
    db, lb = _degree(b), b[-1]
    quo = [0] * (len(a) - db)
    for k in reversed(range(len(quo))):
        q = quo[k] = rem[k + db] // lb
        for i, bc in enumerate(b):
            rem[k + i] -= q * bc
    return quo


def squarefree_oracle(p) -> list[int]:
    """p / gcd(p, p') as a primitive integer list, leading coefficient > 0."""
    c = _normalize_input(p)
    if _degree(c) >= 1:
        g = _gcd(c, _derivative(c))
        if _degree(g) >= 1:
            c = _exact_quotient(c, g)
    return c if not c or c[-1] > 0 else [-a for a in c]


def _chain(f: list[int]) -> list[list[int]]:
    """Sturm sequence of an already square-free f of degree >= 1."""
    chain = [f, _derivative(f)]
    while _degree(chain[-1]) > 0:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-x for x in r])
    return chain


def _variations(chain: list[list[int]], x: Fraction | None, at_inf: int = 0) -> int:
    signs = []
    for c in chain:
        s = c[-1] * at_inf ** _degree(c) if at_inf else _sign_at(c, x)
        if s != 0:
            signs.append(s > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@functools.lru_cache(maxsize=4)
def _oracle_chain(p: tuple) -> list[list[int]] | None:
    """The Sturm sequence of p's square-free part, None when that is constant;
    cached, as a check counts the roots of one p in many intervals."""
    f = squarefree_oracle(p)
    return _chain(f) if _degree(f) >= 1 else None


def count_oracle(p, lo: Fraction | None = None, hi: Fraction | None = None) -> int:
    """Distinct real roots of p in (lo, hi] for lo < hi, by the two-PRS chain."""
    chain = _oracle_chain(tuple(p))
    if chain is None:
        return 0
    va = _variations(chain, lo) if lo is not None else _variations(chain, None, -1)
    vb = _variations(chain, hi) if hi is not None else _variations(chain, None, +1)
    return va - vb


def assert_isolates(
    ivs: list[IsolatingInterval], p, lo: Fraction | None = None, hi: Fraction | None = None
) -> None:
    """ivs, from isolate_real_roots(p, lo, hi), are sorted disjoint cells of
    the halving tree of the start interval (a, b], (a + (b - a) m / 2^j,
    a + (b - a) (m + 1) / 2^j], inside (lo, hi]; each holds one root of p by
    the two-PRS count, and there are as many as (lo, hi] holds."""
    assert len(ivs) == count_oracle(p, lo, hi)
    if not ivs:
        return
    bound = root_bound(_oracle_chain(tuple(p))[0])  # of the square-free part
    a = lo if lo is not None else -bound
    b = hi if hi is not None else bound
    assert all(iv.hi <= nxt.lo for iv, nxt in zip(ivs, ivs[1:]))
    for iv in ivs:
        assert a <= iv.lo < iv.hi <= b
        assert count_oracle(p, iv.lo, iv.hi) == 1, iv
        start, width = (iv.lo - a) / (b - a), (iv.hi - iv.lo) / (b - a)
        assert width.numerator == 1 and width.denominator.bit_count() == 1, iv
        assert (start / width).denominator == 1, iv


def roots_below(c: list[int], bound: Fraction) -> bool:
    """Whether every complex root z of the integer list c, c[-1] != 0, has
    |z| < bound, by the Schur-Cohn test on p(u) = c(bound u) cleared of
    denominators: p of degree n has all its roots in |u| < 1 iff |p_n| > |p_0|
    and (p_n p - p_0 p*) / u, p* the reversed p, has all its n - 1 roots there
    (by Rouche's theorem on |u| = 1, where |p*| = |p|)."""
    n, d = bound.numerator, bound.denominator
    p = [a * n**i * d ** (len(c) - 1 - i) for i, a in enumerate(c)]
    while len(p) > 1:
        if abs(p[-1]) <= abs(p[0]):
            return False
        p = _primitive([p[-1] * a - p[0] * b for a, b in zip(p, reversed(p))][1:])
    return True


def simplest_oracle(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational of least denominator in (lo, hi], by the Stern-Brocot
    walk in Fraction arithmetic."""
    lo_open = True
    a, b, c, d = 1, 0, 0, 1  # the point is (a*y + b) / (c*y + d)
    while True:  # the least integer y in the interval, else y = k + 1/z
        k = math.floor(lo)
        n = k + 1 if lo_open or lo != k else k
        if hi is None or (n <= hi if lo_open else n < hi):
            return Fraction(a * n + b, c * n + d)
        lo, hi = 1 / (hi - k), (None if lo == k else 1 / (lo - k))
        a, b, c, d, lo_open = a * k + b, a, c * k + d, c, not lo_open


# -- degree windows of the modular resultant, by assignment --------------------

def _assignment(weights: list[list]) -> int | None:
    """Least sum of weights[i][perm[i]] over permutations perm that avoid the
    None entries; None when none does.  Hungarian algorithm with potentials:
    rows and columns count from 1, and column 0 holds the row being placed."""
    n = len(weights)
    cost = [[]] + [[0] + [math.inf if w is None else w for w in row] for row in weights]
    u, v, match, way = ([0] * (n + 1) for _ in range(4))
    for i in range(1, n + 1):
        match[0], j0, slack, used = i, 0, [math.inf] * (n + 1), [False] * (n + 1)
        while match[j0]:
            used[j0], i0, delta, j1 = True, match[j0], math.inf, 0
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
            if delta == math.inf:  # the rows reached see too few columns (Hall)
                return None
            j0 = j1
        while j0:  # augment along the alternating path
            match[j0], j0 = match[way[j0]], way[j0]
    return sum(cost[match[j]][j] for j in range(1, n + 1))


def window_oracle(f: dict, g: dict, df: int, dg: int) -> list[tuple[int, int]] | None:
    """For each other variable y, a window [lo, hi] holding every y-exponent
    of Res_var(f, g) (keyed as in resultants._res_mod), or None when no
    permutation avoids the zero entries, so that Res is 0: each term of the
    Sylvester determinant is a product of nonzero entries along a
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
