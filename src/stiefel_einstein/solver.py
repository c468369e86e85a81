"""End-to-end Einstein-metric pipeline for 3-block Stiefel decompositions.

build_system derives the polynomial Einstein system from the general Ricci
formula evaluated over symbolic coefficients (Laurent RationalPolys: every
denominator in the formula is a monomial), normalized by x23 = 1.  solve
eliminates to a univariate polynomial in x13 by iterated resultants,
isolates its real roots, lifts each root exactly through the triangular set
of resultant pivots (one univariate root isolation per variable), and
certifies each candidate with exact rational Ricci residuals.  The x13 = 1
branch is handled in closed form via the classical equal-off-diagonal
quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    RationalPoly,
    alternating_sign_check,
    bisect_to_width,
    buchberger,
    eliminate_resultant,
    isolate_real_roots,
    poly_gcd,
    saturation_generators,
)
from .ricci import InvariantMetric, ricci, ricci_general
from .so_algebra import BlockDecomposition, Diag, ModuleLabel, OffDiag
from .triples import dims, triples_closed_form

CERTIFY_TOL = 1e-10
JENSEN_MATCH_TOL = 1e-8
REPORT_WIDTH = Fraction(1, 10**15)
LIFT_WIDTH = Fraction(1, 10**20)
JENSEN_DIGITS = 50  # decimals of the closed-form equal-off-diagonal roots


@dataclass(frozen=True)
class EinsteinSystem:
    """Cleared-numerator polynomial form of the Einstein equations."""

    decomp: BlockDecomposition
    normalization: ModuleLabel
    variables: tuple[str, ...]
    polys: list[RationalPoly]


@dataclass(frozen=True)
class EinsteinSolution:
    """A certified positive solution in the gauge x23 = 1."""

    decomp: BlockDecomposition
    coords: dict[ModuleLabel, float]
    lam: float
    residual: float
    intervals: dict[str, tuple[Fraction, Fraction]] = field(default_factory=dict)
    classification: str = "New"  # "Jensen" | "New"

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


@dataclass(frozen=True)
class Rejection:
    """A candidate that failed certification, with the reason."""

    reason: str


def _free_labels(decomp: BlockDecomposition) -> list[ModuleLabel]:
    k1, k2, _ = decomp.blocks
    labels: list[ModuleLabel] = []
    if k1 >= 2:
        labels.append(Diag(1))
    labels += [Diag(2), OffDiag(1, 2), OffDiag(1, 3)]
    return labels


def _check_shape(decomp: BlockDecomposition) -> None:
    if len(decomp.blocks) != 3:
        raise UnsupportedShapeError("solver needs a 3-block decomposition")
    if decomp.blocks[1] < 2:
        raise UnsupportedShapeError("solver needs k_2 >= 2")


def build_system(decomp: BlockDecomposition) -> EinsteinSystem:
    """Polynomial Einstein system in the free coefficients, x23 = 1.

    The polynomials are the cleared, content-normalized numerators of the
    chained component differences (r1 - r2 when the first diagonal module
    exists, then r2 - r12, r12 - r23, r23 - r13), evaluated symbolically
    through the general Ricci formula.
    """
    _check_shape(decomp)
    norm = OffDiag(2, 3)
    free = _free_labels(decomp)
    variables = tuple(f"x{l.name}" for l in free)
    coeffs: dict[ModuleLabel, RationalPoly] = {
        l: RationalPoly.var(variables, f"x{l.name}") for l in free
    }
    coeffs[norm] = RationalPoly.const(variables, 1)
    metric = InvariantMetric(decomp, coeffs)
    r = ricci(metric).values
    chain: list[tuple[ModuleLabel, ModuleLabel]] = []
    if Diag(1) in coeffs:
        chain.append((Diag(1), Diag(2)))
    chain += [
        (Diag(2), OffDiag(1, 2)),
        (OffDiag(1, 2), norm),
        (norm, OffDiag(1, 3)),
    ]
    polys = [(r[a] - r[b]).cleared().primitive() for a, b in chain]
    if any(p.is_zero() for p in polys):
        raise DegenerateSystemError("identically satisfied equation in chain")
    return EinsteinSystem(decomp, norm, variables, polys)


def _jensen_scaled(lbl: ModuleLabel) -> bool:
    """Modules inside the so(k1 + k2) block carry the scaled coefficient;
    modules touching the isotropy-adjacent block 3 stay at 1."""
    return 3 not in lbl.blocks


def jensen_quadratic(decomp: BlockDecomposition) -> list[Fraction]:
    """Ascending coefficients of the polynomial whose positive roots are the
    common coefficient x of the classical one-parameter Einstein metrics
    (x on the so(k1+k2)-block modules, 1 on the block-3 modules)."""
    _check_shape(decomp)
    variables = ("x",)
    x = RationalPoly.var(variables, "x")
    one = RationalPoly.const(variables, 1)
    coeffs: dict[ModuleLabel, RationalPoly] = {}
    for lbl in dims(decomp):
        coeffs[lbl] = x if _jensen_scaled(lbl) else one
    metric = InvariantMetric(decomp, coeffs)
    r = ricci(metric).values
    labels = sorted(r)
    g = RationalPoly.zero(variables)
    for a, b in zip(labels, labels[1:]):
        num = (r[a] - r[b]).cleared().primitive()
        if not num.is_zero():
            g = num if g.is_zero() else poly_gcd(g, num)
    if g.is_zero() or g.is_constant():
        raise DegenerateSystemError("no equal-off-diagonal constraint found")
    return g.primitive().univariate_coeffs("x")


def jensen_points(decomp: BlockDecomposition) -> list[dict[ModuleLabel, Fraction]]:
    """Coordinates of the equal-off-diagonal Einstein metrics, to
    JENSEN_DIGITS decimals."""
    quad = jensen_quadratic(decomp)
    roots: list[Fraction] = []
    if len(quad) == 3:
        a, b, c = quad[2], quad[1], quad[0]
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        s = sqrt_fraction(disc, JENSEN_DIGITS)
        roots = [(-b - s) / (2 * a), (-b + s) / (2 * a)]
    else:
        width = Fraction(1, 10**JENSEN_DIGITS)
        for iv in isolate_real_roots(quad, lo=Fraction(0)):
            roots.append(bisect_to_width(iv, width).midpoint())
    out = []
    for root in sorted(set(roots)):
        if root <= 0:
            continue
        coords = {
            lbl: (root if _jensen_scaled(lbl) else Fraction(1))
            for lbl in dims(decomp)
        }
        out.append(coords)
    return out


def certify(
    coords: dict[ModuleLabel, float | Fraction],
    decomp: BlockDecomposition,
    tol: float = CERTIFY_TOL,
    jensen: list[dict[ModuleLabel, Fraction]] | None = None,
) -> EinsteinSolution | Rejection:
    """Exact-rational certification of a candidate coordinate vector.

    The Ricci components are evaluated with Fraction arithmetic at the given
    coordinates; the candidate is accepted iff max |r_i - mean| / mean <= tol
    and all coordinates are positive; jensen is jensen_points(decomp), if known.
    """
    exact = {}
    for lbl, c in coords.items():
        if not c > 0:
            return Rejection(f"nonpositive coordinate x{lbl.name} = {c}")
        exact[lbl] = c if isinstance(c, Fraction) else Fraction(c)
    table = triples_closed_form(decomp)
    comp = ricci_general(table, InvariantMetric(decomp, exact))
    lam = comp.einstein_constant_candidate
    residual = float(comp.residual())
    if not residual <= tol:
        return Rejection(f"Einstein residual {residual:.3e} exceeds {tol:.1e}")
    return EinsteinSolution(
        decomp=decomp,
        coords={l: float(c) for l, c in exact.items()},
        lam=float(lam),
        residual=residual,
        classification=_classify(exact, decomp, jensen),
    )


def _classify(
    exact: dict[ModuleLabel, Fraction], decomp: BlockDecomposition, jensen: list | None
) -> str:
    unit = [c for l, c in exact.items() if not _jensen_scaled(l)]
    scaled = [c for l, c in exact.items() if _jensen_scaled(l)]
    if any(abs(c - 1) > JENSEN_MATCH_TOL for c in unit):
        return "New"
    if max(scaled) - min(scaled) > JENSEN_MATCH_TOL:
        return "New"
    for point in jensen_points(decomp) if jensen is None else jensen:
        ref = next(c for l, c in point.items() if _jensen_scaled(l))
        if all(abs(d - ref) <= JENSEN_MATCH_TOL for d in scaled):
            return "Jensen"
    return "New"


# -- elimination and back-substitution --------------------------------------

def _eliminate(
    system: EinsteinSystem,
) -> tuple[list[int], list[tuple[str, RationalPoly]]]:
    """Univariate x13-eliminant of the system by iterated resultants, as
    primitive integer coefficients with every (x13 - 1) factor divided out:
    that root is the closed-form branch.  x13 - 1 is monic, so synthetic
    division keeps the quotient integral (and primitive, by Gauss's lemma).
    The resultant pivots are passed on for the lift (see _lift).

    The eliminant may carry extraneous factors; their roots find no
    certified lift and drop out in solve.
    """
    elim, pivots = eliminate_resultant(system.polys, "x13")
    coeffs = [int(c) for c in elim.reorder(("x13",)).univariate_coeffs("x13")]
    while len(coeffs) > 1 and sum(coeffs) == 0:
        # quotient coefficient k is c_(k+1) + ... + c_deg
        coeffs = list(accumulate(coeffs[:0:-1]))[::-1]
    return coeffs, pivots


def groebner_eliminant(system: EinsteinSystem) -> list[Fraction]:
    """Exact x13-eliminant of the h-branch: the univariate member of the
    reduced lex Gröbner basis of the system saturated by every coordinate
    and by x13 - 1.  An independent check on the resultant route; overflow
    of the pair-reduction cap propagates."""
    x13 = RationalPoly.var(system.variables, "x13")
    factors = [RationalPoly.var(system.variables, v) for v in system.variables]
    basis = buchberger(saturation_generators(system.polys, factors + [x13 - 1]))
    for g in basis:
        if g.variables_used() <= {"x13"}:
            return g.univariate_coeffs("x13")
    raise DegenerateSystemError("no univariate eliminant in basis")


def _lift(pivots: list[tuple[str, RationalPoly]], point: dict[str, Fraction]):
    """Yield the positive points above point on the triangular pivot set.

    The last pivot, with point substituted, is univariate in its variable;
    each positive root is refined to width LIFT_WIDTH, and the simplest
    rational in that interval (denominator at most 1 / LIFT_WIDTH, so the
    next pivots stay short) extends the point for the remaining pivots.
    """
    if not pivots:
        yield point
        return
    var, pivot = pivots[-1]
    coeffs = pivot.subs(point).univariate_coeffs(var)
    for iv in isolate_real_roots(coeffs, lo=Fraction(0)):
        root = bisect_to_width(iv, LIFT_WIDTH).simplest()
        yield from _lift(pivots[:-1], {**point, var: root})


def solve(system: EinsteinSystem, tol: float = CERTIFY_TOL) -> list[EinsteinSolution]:
    """All certified positive Einstein solutions found, sorted by x13.

    The x13 = 1 branch is produced from the closed-form quadratic.  The
    remaining branch comes from the positive real roots of the resultant
    eliminant (see _eliminate): each root is refined to width REPORT_WIDTH,
    which gives the reported x13 (the float of the midpoint) and its
    interval, then further to LIFT_WIDTH; the simplest rational in that
    interval is lifted through the resultant pivots (see _lift) and
    certified exactly.  Roots with no certified lift
    contribute nothing; an empty h-branch is legal.
    """
    decomp = system.decomp
    solutions: list[EinsteinSolution] = []
    jensen = jensen_points(decomp)
    for point in jensen:
        result = certify(point, decomp, tol, jensen)
        if isinstance(result, EinsteinSolution):
            solutions.append(result)
    eliminant, pivots = _eliminate(system)
    for iv in isolate_real_roots(eliminant, lo=Fraction(0)):
        refined = bisect_to_width(iv, REPORT_WIDTH)
        r13 = float(refined.midpoint())
        root = bisect_to_width(refined, LIFT_WIDTH).simplest()
        for point in _lift(pivots, {"x13": root}):
            coords: dict[ModuleLabel, float | Fraction] = {
                system.normalization: Fraction(1)
            }
            for lbl in _free_labels(decomp):
                coords[lbl] = point[f"x{lbl.name}"]
            coords[OffDiag(1, 3)] = r13  # reported x13: lies in intervals.x13
            result = certify(coords, decomp, tol, jensen)
            if isinstance(result, EinsteinSolution):
                solutions.append(
                    replace(result, intervals={"x13": (refined.lo, refined.hi)})
                )
    solutions.sort(key=lambda s: s.coords[OffDiag(1, 3)])
    return solutions


# -- family sweep and positivity report -------------------------------------

@dataclass(frozen=True)
class PositivityRow:
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
    """Sign checks and x13-root brackets for blocks (1, 3, n-4)."""
    rows = []
    for n in n_values:
        if n < 6:
            raise DomainError("positivity report requires n >= 6")
        h1 = h1_coeffs(n)
        roots = isolate_real_roots(h1, lo=Fraction(0), hi=Fraction(2))
        alpha = next(
            ((iv.lo, iv.hi) for iv in roots if iv.hi <= 1), None
        )
        beta = next(
            ((iv.lo, iv.hi) for iv in roots if iv.lo >= 1), None
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
