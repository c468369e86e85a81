"""End-to-end Einstein-metric pipeline for 3-block Stiefel decompositions.

build_system reads the polynomial Einstein system, normalized by x23 = 1,
as integer polynomials keyed by exponent tuples, off the integer Laurent
form of the general Ricci formula (TripleTable.laurent: integer
coefficients times Laurent monomials over one shared denominator).  solve
eliminates to a univariate polynomial in x13 by iterated resultants,
isolates its real roots, and lifts each root through the triangular set of
resultant pivots: a simple root through one candidate, the one common root
of the last pivot and its partner (a float Euclid, then exact Newton steps,
then the linear pivots in closed form), any other root, or a candidate that
does not certify, by a branch search (one univariate root isolation per
variable).  It certifies each candidate with the exact Ricci mean and
residual, evaluated from the same form in integers.  The x13 = 1 branch is
handled in closed form via the classical equal-off-diagonal quadratic, also
read off that form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .errors import (
    DegenerateSystemError,
    DomainError,
    UnsupportedShapeError,
)
from .fixtures import (
    alpha2_bounds,
    alpha12_bounds,
    alpha13_bounds,
    beta2_bounds,
    beta12_bounds,
    beta13_bounds,
    h1_coeffs,
    h2_coeffs,
    h3_coeffs,
    sqrt_fraction,
)
from .polyalg import (
    IsolatingInterval,
    alternating_sign_check,
    bisect_to_width,
    descartes_bound,
    eliminate_resultant,
    isolate_real_roots,
)
from .polyalg.resultants import Poly, _primitive
from .polyalg.sturm import _derivative, _horner, _quotient, _scaled
from .record import Record, replace
from .ricci import InvariantMetric
from .so_algebra import BlockDecomposition, Diag, ModuleLabel, OffDiag
from .triples import dims, triples_closed_form

CERTIFY_TOL = 1e-10
JENSEN_MATCH_TOL = 1e-8
REPORT_WIDTH = Fraction(1, 10**15)
LIFT_WIDTH = Fraction(1, 10**20)
NEWTON_STEPS = 8  # most exact Newton steps one lift candidate takes
JENSEN_DIGITS = 50  # decimals of the closed-form equal-off-diagonal roots


class EinsteinSystem(Record):
    """Cleared-numerator polynomial form of the Einstein equations: integer
    polynomials keyed by exponent tuples over variables."""

    decomp: BlockDecomposition
    variables: tuple[str, ...]
    polys: list[Poly]


class EinsteinSolution(Record):
    """A certified positive solution; solve reports it in the gauge x23 = 1."""

    decomp: BlockDecomposition
    coords: dict[ModuleLabel, float]
    lam: float
    residual: float
    intervals: dict[str, tuple[Fraction, Fraction]] | None = None  # None: a new {}
    classification: str = "New"  # "Jensen" | "New"

    def __post_init__(self) -> None:
        if self.intervals is None:
            object.__setattr__(self, "intervals", {})

    @property
    def branch(self) -> str:
        return "jensen" if self.classification == "Jensen" else "h"

    def to_json(self) -> dict:
        rec = {
            "decomp": list(self.decomp.blocks),
            "n": self.decomp.n,
            "branch": self.branch,
            "coords": {f"x{l.name}": c for l, c in sorted(self.coords.items())},
            "lambda": self.lam,
            "residual": self.residual,
            "intervals": {
                v: [
                    [iv[0].numerator, iv[0].denominator],
                    [iv[1].numerator, iv[1].denominator],
                ]
                for v, iv in sorted(self.intervals.items())
            },
            "classification": self.classification,
        }
        return rec


class Rejection(Record):
    """A candidate that failed certification, with the reason."""

    reason: str


def _free_labels(decomp: BlockDecomposition) -> list[ModuleLabel]:
    """The module labels other than the gauge x23 = 1, sorted."""
    return sorted(lbl for lbl in dims(decomp) if lbl != OffDiag(2, 3))


def _univariate(h: Poly, i: int) -> list[int]:
    """Ascending coefficients of h, in which only variable i occurs."""
    coeffs = [0] * (max((m[i] for m in h), default=-1) + 1)
    for m, c in h.items():
        coeffs[m[i]] = c
    return coeffs


def _numerator(
    decomp: BlockDecomposition,
    a: ModuleLabel,
    b: ModuleLabel,
    variables: tuple[str, ...],
    column: dict[ModuleLabel, int | None],
) -> Poly:
    """Numerator of r_a - r_b, normalized by _primitive ({} when it
    vanishes), read off the integer Laurent form of the Ricci formula
    (TripleTable.laurent) with x_l replaced by variables[column[l]], or by 1
    where column[l] is None."""
    table = triples_closed_form(decomp)
    _, comps = table.laurent
    cols = [column[lbl] for lbl in table.labels()]
    terms: dict[tuple[int, ...], int] = {}
    for sign, k in ((1, a), (-1, b)):
        for c, exps in comps[k]:
            mono = [0] * len(variables)
            for col, e in zip(cols, exps):
                if e and col is not None:
                    mono[col] += e
            key = tuple(mono)
            terms[key] = terms.get(key, 0) + sign * c
    terms = {m: c for m, c in terms.items() if c}
    return _primitive(terms) if terms else {}


def build_system(decomp: BlockDecomposition) -> EinsteinSystem:
    """Polynomial Einstein system in the free coefficients, x23 = 1.

    The polynomials are the numerators of the chained component differences
    (r1 - r2 when the first diagonal module exists, then r2 - r12,
    r12 - r23, r23 - r13), read off the integer Laurent form of the Ricci
    formula with the x23 column dropped, each with its content and its
    monomial factor stripped and a positive lex-leading coefficient.
    """
    if decomp.blocks[1] < 2:
        raise UnsupportedShapeError("solver needs k_2 >= 2")
    norm = OffDiag(2, 3)
    free = _free_labels(decomp)
    variables = tuple(f"x{l.name}" for l in free)
    column: dict[ModuleLabel, int | None] = {l: i for i, l in enumerate(free)}
    column[norm] = None
    chain: list[tuple[ModuleLabel, ModuleLabel]] = []
    if Diag(1) in column:
        chain.append((Diag(1), Diag(2)))
    chain += [
        (Diag(2), OffDiag(1, 2)),
        (OffDiag(1, 2), norm),
        (norm, OffDiag(1, 3)),
    ]
    polys = [_numerator(decomp, a, b, variables, column) for a, b in chain]
    if not all(polys):
        raise DegenerateSystemError("identically satisfied equation in chain")
    return EinsteinSystem(decomp, variables, polys)


def _jensen_scaled(lbl: ModuleLabel) -> bool:
    """Modules inside the so(k1 + k2) block carry the scaled coefficient;
    modules touching the isotropy-adjacent block 3 stay at 1."""
    return 3 not in lbl.blocks


def jensen_quadratic(decomp: BlockDecomposition) -> list[int]:
    """Ascending coefficients of the quadratic whose positive roots are the
    common coefficient x of the classical one-parameter Einstein metrics
    (x on the so(k1+k2)-block modules, 1 on the block-3 modules): the
    primitive numerator of r12 - r13 under that ansatz, the only Ricci
    difference it leaves nonzero, read off the integer Laurent form with
    every label mapped to x or 1; solve certifies each root exactly.  With
    k1 = k2 = 1 the numerator is linear, (n - 1) x - 2(n - 2).
    Raises DegenerateSystemError unless the numerator has degree 1 or 2."""
    column = {lbl: 0 if _jensen_scaled(lbl) else None for lbl in dims(decomp)}
    num = _numerator(decomp, OffDiag(1, 2), OffDiag(1, 3), ("x",), column)
    coeffs = _univariate(num, 0)
    if len(coeffs) not in (2, 3):
        raise DegenerateSystemError(
            f"equal-off-diagonal numerator has degree {len(coeffs) - 1}, not 1 or 2"
        )
    return coeffs


def jensen_points(decomp: BlockDecomposition) -> list[dict[ModuleLabel, Fraction]]:
    """Coordinates of the equal-off-diagonal Einstein metrics: the root of a
    linear jensen_quadratic exactly, those of a quadratic to JENSEN_DIGITS
    decimals."""
    coeffs = jensen_quadratic(decomp)
    if len(coeffs) == 2:
        roots = [Fraction(-coeffs[0], coeffs[1])]
    else:
        c, b, a = coeffs
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        s = sqrt_fraction(disc, JENSEN_DIGITS)
        roots = sorted({(-b - s) / (2 * a), (-b + s) / (2 * a)})
    return [{lbl: (root if _jensen_scaled(lbl) else Fraction(1)) for lbl in dims(decomp)}
            for root in roots if root > 0]


def _lambda_and_residual(
    decomp: BlockDecomposition, exact: dict[ModuleLabel, Fraction]
) -> tuple[Fraction, Fraction | None]:
    """Exact Ricci mean lambda and max_k |r_k - lambda| / lambda at positive
    rational coordinates; the residual is None when lambda <= 0.

    Integer arithmetic on TripleTable.laurent: with x_l = a_l / b_l, every
    exponent e in [-2, 1] and x_l^e (a_l b_l)^2 = a_l^(e+2) b_l^(2-e), so
    r_k = N_k / (D prod (a_l b_l)^2) with integer N_k.  Over m components,
    lambda = sum N / (m D prod (a_l b_l)^2) and the residual is
    max |m N_k - sum N| / sum N.
    """
    table = triples_closed_form(decomp)
    den, comps = table.laurent
    powers = []
    for lbl in table.labels():
        a, b = exact[lbl].numerator, exact[lbl].denominator
        powers.append((b**4, a * b**3, a * a * b * b, a**3 * b))
        den *= a * a * b * b
    nums = []
    for terms in comps.values():
        total = 0
        for c, exps in terms:
            for p, e in zip(powers, exps):
                c *= p[e + 2]
            total += c
        nums.append(total)
    m, total = len(nums), sum(nums)
    lam = Fraction(total, m * den)
    if total <= 0:
        return lam, None
    return lam, Fraction(max(abs(m * v - total) for v in nums), total)


def to_float(q: Fraction, name: str) -> float:
    """q as a float; a DomainError, naming q, when it overflows one."""
    try:
        return float(q)
    except OverflowError:
        digits = len(str(abs(q.numerator))) - len(str(q.denominator))
        raise DomainError(f"{name} is about 10^{digits}, beyond the float range") from None


def certify(
    coords: dict[ModuleLabel, float | Fraction],
    decomp: BlockDecomposition,
    tol: float = CERTIFY_TOL,
) -> EinsteinSolution | Rejection:
    """Exact-rational certification of a candidate coordinate vector.

    The Ricci mean lambda and residual are evaluated exactly at the given
    coordinates, in integers (see _lambda_and_residual); the candidate is
    accepted iff all coordinates are positive, lambda > 0 and
    max |r_i - lambda| / lambda <= tol; these tests and _classify are
    scale-free.  A value to report that overflows a float is a DomainError.
    """
    exact = {}
    for lbl, c in coords.items():
        if not c > 0:
            return Rejection(f"nonpositive coordinate x{lbl.name} = {c}")
        exact[lbl] = c if isinstance(c, Fraction) else Fraction(c)
    InvariantMetric(decomp, exact)  # checks the coordinate keys
    lam, exact_residual = _lambda_and_residual(decomp, exact)
    if exact_residual is None:
        return Rejection(f"Ricci mean lambda = {to_float(lam, 'lambda'):.6g} is not positive")
    residual = to_float(exact_residual, "the Einstein residual")
    if not residual <= tol:
        return Rejection(f"Einstein residual {residual:.3e} exceeds {tol:.1e}")
    return EinsteinSolution(
        decomp=decomp,
        coords={l: to_float(c, f"x{l.name}") for l, c in exact.items()},
        lam=to_float(lam, "lambda"),
        residual=residual,
        classification=_classify(exact),
    )


def _classify(exact: dict[ModuleLabel, Fraction]) -> str:
    """"Jensen" iff the Einstein point is on the equal-off-diagonal ansatz:
    divided by x23, x13 is within JENSEN_MATCH_TOL of 1 and the
    _jensen_scaled coordinates of each other.  No root is matched: the only
    Einstein points on the ansatz are the roots of jensen_quadratic."""
    unit = exact[OffDiag(2, 3)]
    scaled = [c / unit for l, c in exact.items() if _jensen_scaled(l)]
    off = max(abs(exact[OffDiag(1, 3)] / unit - 1), max(scaled) - min(scaled))
    return "New" if off > JENSEN_MATCH_TOL else "Jensen"


# -- elimination and back-substitution --------------------------------------

def _eliminate(
    system: EinsteinSystem,
) -> tuple[list[int], list[tuple[str, Poly]], Poly | None]:
    """Univariate x13-eliminant of the system by iterated resultants, as
    primitive integer coefficients with every (x13 - 1) factor divided out:
    that root is the closed-form branch.  x13 - 1 is monic, so synthetic
    division keeps the quotient integral (and primitive, by Gauss's lemma).
    The resultant pivots, and the partner of the last one (see
    eliminate_resultant), are passed on for the lift (see _candidate and
    _lift).

    The eliminant may carry extraneous factors; their roots find no
    certified lift and drop out in solve.
    """
    elim, pivots, partner = eliminate_resultant(system.polys, system.variables, "x13")
    coeffs = _univariate(elim, system.variables.index("x13"))
    while len(coeffs) > 1 and sum(coeffs) == 0:
        # quotient coefficient k is c_(k+1) + ... + c_deg
        coeffs = list(accumulate(coeffs[:0:-1]))[::-1]
    return coeffs, pivots, partner


def groebner_eliminant(system: EinsteinSystem) -> list[int]:
    """Exact x13-eliminant of the h-branch: the univariate member of the
    reduced lex Gröbner basis of the system saturated by every coordinate
    and by x13 - 1.  An independent check on the resultant route; overflow
    of the pair-reduction cap propagates."""
    # imported here: no solve or sweep needs it, and every run would load it
    from .polyalg.groebner import buchberger, saturation_generators

    width, k = len(system.variables), system.variables.index("x13")
    x13 = tuple(int(j == k) for j in range(width))
    factors = [{(1,) * width: 1}, {x13: 1, (0,) * width: -1}]  # prod x_j, x13 - 1
    for g in buchberger(saturation_generators(system.polys, factors)):
        if all(e == 0 for m in g for j, e in enumerate(m) if j != k + 1):
            return _univariate(g, k + 1)  # the saturation variable is column 0
    raise DegenerateSystemError("no univariate eliminant in basis")


def _univariate_at(pivot: Poly, at: int, point: dict[int, Fraction]) -> list[int]:
    """Ascending coefficients in variable at of pivot with the variables
    point[j] substituted, times a positive integer, in integer arithmetic.
    With x_j = a_j / b_j and E_j the largest exponent of x_j in the pivot, a
    term c x_j^e_j ... contributes c a_j^e_j b_j^(E_j - e_j) ..., which
    scales every coefficient by prod b_j^E_j."""
    powers = {}  # j -> a_j^e b_j^(E_j - e) for e = 0 .. E_j
    for j, x in point.items():
        top = max(m[j] for m in pivot)
        if top:
            a, b = x.numerator, x.denominator
            powers[j] = [a**e * b ** (top - e) for e in range(top + 1)]
    coeffs = [0] * (max(m[at] for m in pivot) + 1)
    for mono, c in pivot.items():
        for j, pw in powers.items():
            c *= pw[mono[j]]
        coeffs[mono[at]] += c
    return coeffs


def _lift(pivots: list[tuple[int, Poly]], point: dict[int, Fraction]):
    """Yield the positive points above point on the triangular pivot set,
    each pivot given with the column of its variable, and points keyed by
    column: the branch search, which solve runs at repeated eliminant roots
    and after a candidate (see _candidate) that does not certify.

    The last pivot, with point substituted in integers (see _univariate_at),
    is univariate in its variable; each positive root is refined to width
    LIFT_WIDTH, and the simplest rational in that interval (denominator at
    most 1 / LIFT_WIDTH, so the next pivots stay short) extends the point
    for the remaining pivots.
    """
    if not pivots:
        yield point
        return
    at, pivot = pivots[-1]
    for iv in isolate_real_roots(_univariate_at(pivot, at, point), lo=Fraction(0)):
        root = bisect_to_width(iv, LIFT_WIDTH).simplest()
        yield from _lift(pivots[:-1], {**point, at: root})


def _lead(h: Poly, at: int, k: int) -> list[int]:
    """Ascending coefficients in variable k of the leading coefficient of h
    in variable at, for h in those two variables only."""
    top = max(m[at] for m in h)
    return _univariate({m: c for m, c in h.items() if m[at] == top}, k)


def _simple_roots(
    eliminant: list[int], roots: list[IsolatingInterval], leads: list[list[int]]
) -> list[bool]:
    """For each isolating interval iv of roots, cells of the square-free
    part of eliminant, whether its root is simple in eliminant and no lead
    vanishes in its cell: eliminant / iv.coeffs, whose roots are the
    repeated roots of eliminant, and each lead have no root in (iv.lo,
    iv.hi], by one Descartes count each (see descartes_bound)."""
    if not roots:
        return []
    guards = [_quotient(eliminant, roots[0].coeffs), *leads]
    return [not any(descartes_bound(g, iv.lo, iv.hi) for g in guards) for iv in roots]


def _round(x: Fraction) -> Fraction:
    """The simplest rational in (x - LIFT_WIDTH / 2, x + LIFT_WIDTH / 2]."""
    return IsolatingInterval(x - LIFT_WIDTH / 2, x + LIFT_WIDTH / 2, ()).simplest()


def _unit(r: list) -> list[float]:
    """The list r over its largest coefficient in absolute value, as floats,
    less its zero top coefficients."""
    top = max(map(abs, r), default=0)
    r = [c / top for c in r] if top else []
    while r and not r[-1]:
        r.pop()
    return r


def _float_root(a: list[int], b: list[int]) -> float | None:
    """The root of the linear remainder in the Euclidean sequence of the
    ascending integer lists a and b, in floats, each remainder scaled by
    _unit; None when the sequence has no linear member or the root is not
    finite.  Where a and b share exactly one root, it estimates that root."""
    a, b = sorted((_unit(a), _unit(b)), key=len, reverse=True)
    while len(b) > 2:
        for k in range(len(a) - len(b), -1, -1):  # a mod b, less its top
            q = a[k + len(b) - 1] / b[-1]
            for i, c in enumerate(b):
                a[k + i] -= q * c
        a, b = b, _unit(a[: len(b) - 1])
    if len(b) < 2:
        return None
    root = -b[0] / b[1]
    return root if math.isfinite(root) else None


def _newton(p: list[int], x: float) -> Fraction | None:
    """A root of the ascending integer list p by exact Newton steps from x,
    each iterate rounded to the simplest rational within LIFT_WIDTH (see
    _round): the iterate after the first step of at most LIFT_WIDTH, or None
    after NEWTON_STEPS steps or where p' vanishes.  With x = n / d, the step
    p(x) / p'(x) is d^deg p(x) / (d d^(deg-1) p'(x)), two _horner values."""
    dp, x = _derivative(p), Fraction(x)
    for _ in range(NEWTON_STEPS):
        n, d = x.numerator, x.denominator
        den = _horner(_scaled(dp, d), n) * d
        if not den:
            return None
        step = Fraction(_horner(_scaled(p, d), n), den)
        x = _round(x - step)
        if abs(step) <= LIFT_WIDTH:
            return x
    return None


def _candidate(pivots: list[tuple[int, Poly]], partner: Poly, point: dict[int, Fraction]):
    """Yield the one point above point, keyed by column, that solve takes a
    simple eliminant root through, or nothing.

    The last pivot P and its partner H, with point substituted in integers
    (see _univariate_at), share exactly one root (see solve).  Its float
    estimate (see _float_root) starts exact Newton steps on P (see _newton);
    every other pivot must be linear in its variable, a1 x + a0 with a1 != 0
    at the point so far, and x = -a0 / a1 is rounded by _round."""
    (at, last), rest = pivots[-1], pivots[:-1]
    p = _univariate_at(last, at, point)
    start = _float_root(p, _univariate_at(partner, at, point))
    x = None if start is None else _newton(p, start)
    if x is None:
        return
    point = {**point, at: x}
    for at, pivot in reversed(rest):
        c = _univariate_at(pivot, at, point)
        if len(c) != 2 or not c[1]:
            return
        point = {**point, at: _round(Fraction(-c[0], c[1]))}
    yield point


def _certified(
    decomp: BlockDecomposition, points, r13: float
) -> list[EinsteinSolution]:
    """The solutions certify accepts at CERTIFY_TOL among the lifted points,
    keyed by column, each with x13 reported as r13."""
    found = []
    for point in points:
        coords: dict[ModuleLabel, float | Fraction] = {OffDiag(2, 3): Fraction(1)}
        for j, lbl in enumerate(_free_labels(decomp)):  # x_lbl is column j
            coords[lbl] = point[j]
        coords[OffDiag(1, 3)] = r13  # reported x13: lies in intervals.x13
        result = certify(coords, decomp, CERTIFY_TOL)
        if isinstance(result, EinsteinSolution):
            found.append(result)
    return found


def solve(system: EinsteinSystem) -> list[EinsteinSolution]:
    """All certified positive Einstein solutions found, sorted by x13.

    The x13 = 1 branch is produced from the closed-form quadratic.  The
    remaining branch comes from the positive real roots of the resultant
    eliminant E (see _eliminate): each root is refined to width
    REPORT_WIDTH, which gives the reported x13 (the float of the midpoint)
    and its interval, then further to LIFT_WIDTH; the simplest rational in
    that interval is lifted through the resultant pivots and certified
    exactly at CERTIFY_TOL.

    A root that is simple in E, with neither lead in x12 of the last pivot
    P and its partner H vanishing in its REPORT_WIDTH cell (see
    _simple_roots; a wider isolating cell may end at x13 = 1, where a lead
    of H vanishes on some shapes), is lifted through one candidate (see
    _candidate).  Such a root alpha is simple in
    Res(P, H), and every common root of P(alpha, .) and H(alpha, .) adds at
    least 1 to the order of that resultant at alpha (Collins,
    "Subresultants and reduced polynomial remainder sequences", JACM 14,
    1967), so they share exactly one root.  Every other root, and a simple
    root whose candidate does not certify, takes the branch search (see
    _lift).  Roots with no certified lift contribute nothing; an empty
    h-branch is legal.
    """
    decomp = system.decomp
    solutions: list[EinsteinSolution] = []
    for point in jensen_points(decomp):
        result = certify(point, decomp, CERTIFY_TOL)
        if isinstance(result, EinsteinSolution):
            solutions.append(result)
    eliminant, pivots, partner = _eliminate(system)
    pivots = [(system.variables.index(var), pivot) for var, pivot in pivots]
    k = system.variables.index("x13")
    cells = [bisect_to_width(iv, REPORT_WIDTH)
             for iv in isolate_real_roots(eliminant, lo=Fraction(0))]
    if partner is None:
        simple = [False] * len(cells)
    else:
        at, last = pivots[-1]
        simple = _simple_roots(eliminant, cells, [_lead(last, at, k), _lead(partner, at, k)])
    for refined, is_simple in zip(cells, simple):
        r13 = float(refined.midpoint())
        root = bisect_to_width(refined, LIFT_WIDTH).simplest()
        found = _certified(decomp, _candidate(pivots, partner, {k: root}), r13) if is_simple else []
        if not found:
            found = _certified(decomp, _lift(pivots, {k: root}), r13)
        solutions += [replace(s, intervals={"x13": (refined.lo, refined.hi)}) for s in found]
    solutions.sort(key=lambda s: s.coords[OffDiag(1, 3)])
    return solutions


# -- family sweep and positivity report -------------------------------------

class PositivityRow(Record):
    """Per-n sign and root-bracket facts for the (1, 3, n-4) family."""

    n: int
    h1_at_0: int
    h1_at_1: int
    h1_at_2: int
    h2_alternating: bool
    h3_alternating: bool
    alpha13: tuple[Fraction, Fraction] | None
    beta13: tuple[Fraction, Fraction] | None

    def to_json(self) -> dict:
        def iv(t):
            return None if t is None else [float(t[0]), float(t[1])]

        return {
            "n": self.n,
            "h1_at_0": self.h1_at_0,
            "h1_at_1": self.h1_at_1,
            "h1_at_2": self.h1_at_2,
            "h2_alternating": self.h2_alternating,
            "h3_alternating": self.h3_alternating,
            "alpha13": iv(self.alpha13),
            "beta13": iv(self.beta13),
        }


def positivity_report(n_values: list[int]) -> list[PositivityRow]:
    """Sign checks and x13-root brackets for blocks (1, 3, n-4): alpha13 is
    (0, 1] and beta13 is (1, 2] when h1 has exactly one root there, else None."""
    rows = []
    for n in n_values:
        if n < 6:
            raise DomainError("positivity report requires n >= 6")
        h1 = h1_coeffs(n)
        alpha, beta = (
            (Fraction(lo), Fraction(lo + 1))
            if len(isolate_real_roots(h1, Fraction(lo), Fraction(lo + 1))) == 1 else None
            for lo in (0, 1)
        )
        rows.append(
            PositivityRow(
                n=n,
                h1_at_0=int(h1[0]),
                h1_at_1=int(sum(h1)),
                h1_at_2=int(sum(c * Fraction(2) ** i for i, c in enumerate(h1))),
                h2_alternating=alternating_sign_check(h2_coeffs(n)),
                h3_alternating=alternating_sign_check(h3_coeffs(n)),
                alpha13=alpha,
                beta13=beta,
            )
        )
    return rows


def bracket_report(n: int, solutions: list[EinsteinSolution]) -> dict:
    """Check the asymptotic coordinate brackets against solved values.

    Each entry maps a coordinate name to (value, lo, hi, ok); bounds that do
    not apply at this n (or are not certifiable) are None and vacuously ok.
    """
    new = [s for s in solutions if s.classification == "New"]
    out: dict[str, dict] = {}
    if len(new) < 2:
        return out
    new.sort(key=lambda s: s.coords[OffDiag(1, 3)])
    alpha, beta = new[0], new[-1]

    def entry(sol, label, bounds_fn, min_n):
        value = sol.coords[label]
        if n < min_n:
            return {"value": value, "lo": None, "hi": None, "ok": True}
        lo, hi = bounds_fn(n)
        ok = (lo is None or float(lo) < value) and (hi is None or value < float(hi))
        return {
            "value": value,
            "lo": None if lo is None else float(lo),
            "hi": None if hi is None else float(hi),
            "ok": bool(ok),
        }

    out["alpha13"] = entry(alpha, OffDiag(1, 3), alpha13_bounds, 9)
    out["beta13"] = entry(beta, OffDiag(1, 3), beta13_bounds, 9)
    out["alpha12"] = entry(alpha, OffDiag(1, 2), alpha12_bounds, 7)
    out["beta12"] = entry(beta, OffDiag(1, 2), beta12_bounds, 7)
    out["alpha2"] = entry(alpha, Diag(2), alpha2_bounds, 16)
    out["beta2"] = entry(beta, Diag(2), beta2_bounds, 16)
    return out


def solve_v4(n: int) -> list[EinsteinSolution]:
    """Solve the (1, 3, n-4) system for one n."""
    decomp = BlockDecomposition((1, 3, n - 4))
    return solve(build_system(decomp))


def sweep(n_values: list[int], workers: int = 1) -> dict[int, list[EinsteinSolution]]:
    """Solve the (1, 3, n-4) family across an n-range, deterministically
    merged by n; n values may run in parallel, at most one worker per n."""
    if workers > 1:
        # imported here: loading multiprocessing adds about 1.7 MB to the
        # peak RSS of every run that does not use it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(n_values))) as ex:
            results = list(ex.map(solve_v4, n_values))
        return dict(zip(n_values, results))
    return {n: solve_v4(n) for n in n_values}
