"""Sparse multivariate polynomials over the rationals with lexicographic order.

A polynomial carries an ordered variable tuple; the tuple order IS the lex
ranking (vars[0] ranks highest).  Terms map exponent vectors to nonzero
Fraction coefficients, so equal polynomials compare equal structurally.

Division by a single term may leave negative exponents, i.e. a Laurent
polynomial.  Ring arithmetic, division by a scalar or term, content,
primitive, cleared and subs accept those; everything that reads degrees or
divides by a polynomial (exact_div, the univariate views, Gröbner bases,
resultants, gcds) expects exponents >= 0, which cleared() restores.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ..errors import DivisibilityError, DomainError

Monomial = tuple[int, ...]


class RationalPoly:
    """Immutable sparse polynomial over Q, or Laurent polynomial after
    division by a term (see the module docstring for which methods accept
    negative exponents).

    Do not mutate ``terms`` after construction; all operations return new
    instances.
    """

    __slots__ = ("vars", "terms")

    def __init__(
        self,
        variables: tuple[str, ...] | list[str],
        terms: dict[Monomial, Fraction] | None = None,
    ):
        object.__setattr__(self, "vars", tuple(variables))
        clean: dict[Monomial, Fraction] = {}
        nv = len(self.vars)
        for mono, c in (terms or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            if len(mono) != nv:
                raise DomainError(f"exponent vector {mono} does not fit {self.vars}")
            clean[tuple(mono)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("RationalPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "RationalPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables, c) -> "RationalPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): Fraction(c)})

    @classmethod
    def var(cls, variables, name: str) -> "RationalPoly":
        variables = tuple(variables)
        i = variables.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {mono: Fraction(1)})

    @classmethod
    def gens(cls, variables) -> list["RationalPoly"]:
        return [cls.var(variables, v) for v in variables]

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def degree(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(m[i] for m in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def variables_used(self) -> set[str]:
        used: set[str] = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(self.vars[i])
        return used

    def leading_monomial(self) -> Monomial:
        """Lex-leading monomial (vars[0] ranks highest)."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading monomial")
        return max(self.terms)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    # -- arithmetic --------------------------------------------------------

    def _check_compat(self, other: "RationalPoly") -> None:
        if self.vars != other.vars:
            raise DomainError(f"variable lists differ: {self.vars} vs {other.vars}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    def __add__(self, other) -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            other = RationalPoly.const(self.vars, other)
        self._check_compat(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, Fraction(0)) + c
            if s:
                res[m] = s
            else:
                res.pop(m, None)
        return RationalPoly(self.vars, res)

    __radd__ = __add__

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            other = RationalPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other) -> "RationalPoly":
        return (-self) + other

    def __mul__(self, other) -> "RationalPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return RationalPoly(self.vars, {m: v * c for m, v in self.terms.items()})
        self._check_compat(other)
        res: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = res.get(m, Fraction(0)) + c1 * c2
                if s:
                    res[m] = s
                else:
                    res.pop(m, None)
        return RationalPoly(self.vars, res)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RationalPoly":
        if k < 0:
            raise DomainError("negative power")
        result = RationalPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __truediv__(self, other) -> "RationalPoly":
        """Division by a nonzero scalar or by a single term; a term divisor
        may leave negative exponents.  Any other divisor is a DomainError."""
        if isinstance(other, (int, Fraction)):
            other = RationalPoly.const(self.vars, other)
        elif not isinstance(other, RationalPoly):
            return NotImplemented
        self._check_compat(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if len(other.terms) != 1:
            raise DomainError("divisor must be a scalar or a single term")
        ((md, cd),) = other.terms.items()
        return RationalPoly(
            self.vars,
            {tuple(a - b for a, b in zip(m, md)): c / cd for m, c in self.terms.items()},
        )

    def __rtruediv__(self, other) -> "RationalPoly":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return RationalPoly.const(self.vars, other) / self

    def exact_div(self, other: "RationalPoly") -> "RationalPoly":
        """Exact multivariate division; raises when the remainder is nonzero."""
        if isinstance(other, (int, Fraction)):
            other = RationalPoly.const(self.vars, other)
        self._check_compat(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        lm_d = other.leading_monomial()
        lc_d = other.terms[lm_d]
        rem = dict(self.terms)
        quo: dict[Monomial, Fraction] = {}
        while rem:
            lm = max(rem)
            if any(a < b for a, b in zip(lm, lm_d)):
                raise DivisibilityError("nonzero remainder in exact division")
            qm = tuple(a - b for a, b in zip(lm, lm_d))
            qc = rem[lm] / lc_d
            quo[qm] = qc
            for m, c in other.terms.items():
                mm = tuple(a + b for a, b in zip(qm, m))
                s = rem.get(mm, Fraction(0)) - qc * c
                if s:
                    rem[mm] = s
                else:
                    rem.pop(mm, None)
        return RationalPoly(self.vars, quo)

    def divides(self, other: "RationalPoly") -> bool:
        try:
            other.exact_div(self)
            return True
        except DivisibilityError:
            return False

    # -- normalization -----------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients."""
        if not self.terms:
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator))
            den = lcm(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> "RationalPoly":
        """Content-normalized form: coprime integer coefficients, positive
        leading coefficient under lex.  Idempotent; the canonical representative
        of the scalar-multiple class."""
        if not self.terms:
            return self
        c = self.content()
        if self.leading_coefficient() < 0:
            c = -c
        return RationalPoly(self.vars, {m: v / c for m, v in self.terms.items()})

    def cleared(self) -> "RationalPoly":
        """self times the least monomial that leaves every exponent >= 0:
        only variables with a negative minimum exponent are shifted."""
        shift = [max(0, -min(col)) for col in zip(*self.terms)]
        if not any(shift):
            return self
        return RationalPoly(
            self.vars,
            {tuple(a + b for a, b in zip(m, shift)): c for m, c in self.terms.items()},
        )

    def monic(self) -> "RationalPoly":
        if self.is_zero():
            return self
        lc = self.leading_coefficient()
        return RationalPoly(self.vars, {m: v / lc for m, v in self.terms.items()})

    # -- variable manipulation --------------------------------------------

    def reorder(self, variables) -> "RationalPoly":
        """Same polynomial over a new variable tuple (superset allowed)."""
        variables = tuple(variables)
        missing = self.variables_used() - set(variables)
        if missing:
            raise DomainError(f"cannot drop used variables {missing}")
        idx = []
        for v in variables:
            idx.append(self.vars.index(v) if v in self.vars else None)
        res: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            nm = tuple(m[i] if i is not None else 0 for i in idx)
            res[nm] = res.get(nm, Fraction(0)) + c
        return RationalPoly(variables, res)

    def subs(self, bindings: dict[str, Fraction]) -> "RationalPoly":
        """Partial substitution of variables by rational constants."""
        idx = {self.vars.index(v): Fraction(val) for v, val in bindings.items()}
        res: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            for i, val in idx.items():
                if m[i]:
                    c = c * val ** m[i]
            nm = tuple(0 if i in idx else e for i, e in enumerate(m))
            s = res.get(nm, Fraction(0)) + c
            if s:
                res[nm] = s
            else:
                res.pop(nm, None)
        return RationalPoly(self.vars, res)

    # -- univariate views --------------------------------------------------

    def univariate_coeffs(self, name: str) -> list[Fraction]:
        """Ascending coefficient list; requires no other variable to occur."""
        extra = self.variables_used() - {name}
        if extra:
            raise DomainError(f"not univariate in {name}: also uses {sorted(extra)}")
        d = self.degree(name)
        if d < 0:
            return []
        i = self.vars.index(name)
        out = [Fraction(0)] * (d + 1)
        for m, c in self.terms.items():
            out[m[i]] += c
        return out

    def coeffs_in(self, name: str) -> list["RationalPoly"]:
        """Ascending coefficients as polynomials in the remaining variables.

        The coefficient polys keep the full variable tuple (with the main
        variable's exponent zeroed), which keeps arithmetic compatible.
        """
        i = self.vars.index(name)
        d = self.degree(name)
        if d < 0:
            return []
        buckets: list[dict[Monomial, Fraction]] = [{} for _ in range(d + 1)]
        for m, c in self.terms.items():
            nm = tuple(0 if j == i else e for j, e in enumerate(m))
            buckets[m[i]][nm] = buckets[m[i]].get(nm, Fraction(0)) + c
        return [RationalPoly(self.vars, b) for b in buckets]

    # -- display ----------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items(), reverse=True):
            factors = []
            if abs(c) != 1 or not any(m):
                factors.append(str(c))
            elif c == -1:
                factors.append("-1")
            for v, e in zip(self.vars, m):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            parts.append("*".join(factors) if factors else str(c))
        return " + ".join(parts).replace("+ -", "- ")
