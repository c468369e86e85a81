"""Ricci components of diagonal invariant metrics.

Two routes: the general structure-constant formula

    r_k = 1/(2 x_k) + (1/4d_k) sum_{j,i} (x_k / x_j x_i) [k;ji]
                    - (1/2d_k) sum_{j,i} (x_j / x_k x_i) [j;ki]

with the sums over ordered pairs of metric modules, and the specialized
closed forms for 3-block decompositions.  Both work over exact rationals or
floats; the scalar type is whatever the metric carries.  The general
formula also runs over symbolic scalars, elements of any field such as
sympy's rational functions, where it checks the integer Laurent form that
the solver reads (TripleTable.laurent).
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Real

from .errors import DomainError, UnsupportedShapeError
from .record import Record
from .so_algebra import BlockDecomposition, Diag, ModuleLabel, OffDiag
from .triples import TripleTable, dims, triples_closed_form

Scalar = Real  # Fraction or float, consistently per metric


class InvariantMetric(Record):
    """One positive coefficient per metric module: sum x_i (-B)|_{m_i}."""

    decomp: BlockDecomposition
    coeffs: dict[ModuleLabel, Scalar]

    def __post_init__(self) -> None:
        expected = set(dims(self.decomp))
        if set(self.coeffs) != expected:
            raise DomainError(
                f"metric keys {sorted(self.coeffs)} do not match modules {sorted(expected)}"
            )
        for lbl, x in self.coeffs.items():
            # symbolic coefficient types carry no sign; only numbers are checked
            if isinstance(x, Real) and not x > 0:
                raise DomainError(f"metric coefficient x{lbl.name} = {x} must be > 0")

    def scaled(self, t: Scalar) -> "InvariantMetric":
        return InvariantMetric(self.decomp, {l: x * t for l, x in self.coeffs.items()})


class RicciComponents(Record):
    """Ricci coefficients r_label in the same basis as the metric."""

    values: dict[ModuleLabel, Scalar]

    @property
    def einstein_constant_candidate(self) -> Scalar:
        vals = list(self.values.values())
        return sum(vals) / len(vals)

    def residual(self) -> Scalar | None:
        """max_i |r_i - lambda| / lambda with lambda the component mean;
        None when lambda <= 0, where the ratio measures nothing."""
        lam = self.einstein_constant_candidate
        return max(abs(v - lam) for v in self.values.values()) / lam if lam > 0 else None


def ricci_general(table: TripleTable, metric: InvariantMetric) -> RicciComponents:
    """Evaluate the general formula from the triple table.

    The double sums run over ordered module pairs; the factor-of-two terms of
    the unreduced component formulas emerge from the two orderings of mixed
    pairs, with no explicit bookkeeping.
    """
    if table.decomp != metric.decomp:
        raise DomainError("triple table and metric use different decompositions")
    x = metric.coeffs
    sample = next(iter(x.values()))
    if isinstance(sample, Fraction):
        one = Fraction(1)
    elif isinstance(sample, Real):
        one = 1.0
    else:
        one = sample / sample  # multiplicative identity of a symbolic scalar
    out: dict[ModuleLabel, Scalar] = {}
    for k, (plus, minus) in table.terms.items():
        dk = table.dims[k]
        val = one / (2 * x[k])
        for j, i, t in plus:
            val += (one * t.numerator / t.denominator) * x[k] / (4 * dk * x[j] * x[i])
        for j, i, t in minus:
            val -= (one * t.numerator / t.denominator) * x[j] / (2 * dk * x[k] * x[i])
        out[k] = val
    return RicciComponents(out)


def ricci_specialized(
    decomp: BlockDecomposition, metric: InvariantMetric
) -> RicciComponents:
    """Closed-form Ricci components for 3-block decompositions.

    Uses the k_1 >= 2 form or its k_1 = 1 reduction (where the so(k_1)
    module is absent).  Requires k_2 >= 2.
    """
    k1, k2, k3 = decomp.blocks
    if k2 < 2:
        raise UnsupportedShapeError("specialized Ricci needs k_2 >= 2")
    if decomp != metric.decomp:
        raise DomainError("decomposition mismatch")
    n = decomp.n
    x = metric.coeffs
    x2 = x[Diag(2)]
    x12, x13, x23 = x[OffDiag(1, 2)], x[OffDiag(1, 3)], x[OffDiag(2, 3)]
    one = Fraction(1) if isinstance(x12, Fraction) else 1.0
    c = one / (4 * (n - 2))
    out: dict[ModuleLabel, Scalar] = {}
    if k1 >= 2:
        x1 = x[Diag(1)]
        out[Diag(1)] = (k1 - 2) * c / x1 + c * (k2 * x1 / x12**2 + k3 * x1 / x13**2)
        out[Diag(2)] = (k2 - 2) * c / x2 + c * (k1 * x2 / x12**2 + k3 * x2 / x23**2)
        out[OffDiag(1, 2)] = (
            one / (2 * x12)
            + k3 * c * (x12 / (x13 * x23) - x13 / (x12 * x23) - x23 / (x12 * x13))
            - c * ((k1 - 1) * x1 / x12**2 + (k2 - 1) * x2 / x12**2)
        )
        out[OffDiag(1, 3)] = (
            one / (2 * x13)
            + k2 * c * (x13 / (x12 * x23) - x12 / (x13 * x23) - x23 / (x12 * x13))
            - c * (k1 - 1) * x1 / x13**2
        )
        out[OffDiag(2, 3)] = (
            one / (2 * x23)
            + k1 * c * (x23 / (x13 * x12) - x13 / (x12 * x23) - x12 / (x23 * x13))
            - c * (k2 - 1) * x2 / x23**2
        )
    else:
        out[Diag(2)] = (k2 - 2) * c / x2 + c * (x2 / x12**2 + k3 * x2 / x23**2)
        out[OffDiag(1, 2)] = (
            one / (2 * x12)
            + k3 * c * (x12 / (x13 * x23) - x13 / (x12 * x23) - x23 / (x12 * x13))
            - c * (k2 - 1) * x2 / x12**2
        )
        out[OffDiag(2, 3)] = (
            one / (2 * x23)
            + c * (x23 / (x13 * x12) - x13 / (x12 * x23) - x12 / (x23 * x13))
            - c * (k2 - 1) * x2 / x23**2
        )
        out[OffDiag(1, 3)] = one / (2 * x13) + k2 * c * (
            x13 / (x12 * x23) - x12 / (x13 * x23) - x23 / (x12 * x13)
        )
    return RicciComponents(out)


def ricci(metric: InvariantMetric) -> RicciComponents:
    """General-formula Ricci from the closed-form triple table."""
    return ricci_general(triples_closed_form(metric.decomp), metric)
