"""Golden closed-form data for the supported Stiefel families.

For blocks (1, 3, n-4) the x13-, x12-, and x2-eliminants of the Einstein
system carry closed-form integer coefficients as polynomials in n; they are
encoded here as evaluable functions (h1, h2, h3).  For SO(7)/SO(2), i.e.
blocks (2, 3, 2) and (1, 4, 2), the degree-22 and degree-10 eliminant
factors are fixed integer vectors.  Also here: the classical
equal-off-diagonal Einstein points and their high-precision evaluation, and
the asymptotic root brackets used by the sweep reports.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from math import isqrt

from .errors import DomainError
from .polyalg import RationalPoly


def _f(n: int) -> Fraction:
    return Fraction(n)


# -- blocks (1, 3, n-4): eliminant factor in x13, degree 10 -----------------

def h1_coeffs(n: int) -> list[Fraction]:
    """Ascending coefficients of the degree-10 factor h1 of the x13-eliminant."""
    if n < 6:
        raise DomainError("h1 requires n >= 6")
    n = _f(n)
    c = {
        10: (n - 1) ** 3 * (5 * n - 11) ** 2
        * (n**3 - 10 * n**2 + 33 * n - 35)
        * (n**3 - 6 * n**2 + 9 * n - 3),
        9: -2 * (n - 1) ** 2 * (5 * n - 11)
        * (17 * n**8 - 356 * n**7 + 3221 * n**6 - 16396 * n**5 + 51159 * n**4
           - 99720 * n**3 + 117862 * n**2 - 76568 * n + 20649),
        8: (n - 1)
        * (4 * n**11 + 389 * n**10 - 11430 * n**9 + 136940 * n**8
           - 946084 * n**7 + 4220820 * n**6 - 12735744 * n**5
           + 26330445 * n**4 - 36830352 * n**3 + 33361745 * n**2
           - 17678114 * n + 4164053),
        7: -4
        * (8 * n**12 - 38 * n**11 - 2320 * n**10 + 43360 * n**9
           - 379590 * n**8 + 2055155 * n**7 - 7507061 * n**6
           + 19112638 * n**5 - 34063584 * n**4 + 41706995 * n**3
           - 33417851 * n**2 + 15765962 * n - 3316050),
        6: (112 * n**12 - 2718 * n**11 + 27906 * n**10 - 149523 * n**9
            + 354855 * n**8 + 588726 * n**7 - 7694150 * n**6
            + 29295831 * n**5 - 65164167 * n**4 + 92342878 * n**3
            - 82220114 * n**2 + 41992646 * n - 9373722),
        5: -2
        * (112 * n**12 - 3338 * n**11 + 45506 * n**10 - 376557 * n**9
           + 2113393 * n**8 - 8496684 * n**7 + 25132832 * n**6
           - 55172371 * n**5 + 89317711 * n**4 - 104159676 * n**3
           + 83190848 * n**2 - 40884390 * n + 9337014),
        4: (280 * n**12 - 8710 * n**11 + 123662 * n**10 - 1060617 * n**9
            + 6124653 * n**8 - 25086974 * n**7 + 74662934 * n**6
            - 162341127 * n**5 + 255246159 * n**4 - 282268554 * n**3
            + 208035522 * n**2 - 91729890 * n + 18337990),
        3: -4
        * (56 * n**12 - 1710 * n**11 + 23600 * n**10 - 194131 * n**9
           + 1056185 * n**8 - 3982619 * n**7 + 10582237 * n**6
           - 19666327 * n**5 + 24629929 * n**4 - 18903391 * n**3
           + 6556083 * n**2 + 985682 * n - 1096346),
        2: (n - 1)
        * (112 * n**11 - 3115 * n**10 + 38156 * n**9 - 268869 * n**8
           + 1189262 * n**7 - 3348224 * n**6 + 5627178 * n**5
           - 3967104 * n**4 - 3831854 * n**3 + 11143963 * n**2
           - 9643014 * n + 3094229),
        1: -2 * (n - 5) * (n - 3) * (n - 1) ** 2 * (n + 1)
        * (16 * n**7 - 275 * n**6 + 1868 * n**5 - 6039 * n**4 + 7372 * n**3
           + 7943 * n**2 - 31120 * n + 23163),
        0: (n - 5) ** 2 * (n - 3) ** 2 * (n - 1) ** 3 * (n + 1) ** 2
        * (4 * n**3 - 23 * n**2 - 10 * n + 161),
    }
    return [c[d] for d in range(11)]


def h2_coeffs(n: int) -> list[Fraction]:
    """Ascending coefficients of the degree-10 x12-eliminant factor h2."""
    if n < 6:
        raise DomainError("h2 requires n >= 6")
    n = _f(n)
    m = n - 6
    c = {
        10: (m**3 + 8 * m**2 + 21 * m + 19)
        * (m**3 + 12 * m**2 + 45 * m + 51) * (n - 1) ** 3,
        9: -2 * (m**6 + 28 * m**5 + 294 * m**4 + 1534 * m**3 + 4277 * m**2
                 + 6122 * m + 3549) * (n - 2) * (n - 1) ** 2,
        8: 2 * (n - 1)
        * (20 * m**7 + 549 * m**6 + 6340 * m**5 + 39979 * m**4
           + 148820 * m**3 + 327348 * m**2 + 394439 * m + 201193),
        7: -4 * (n - 2)
        * (2 * m**7 + 139 * m**6 + 2554 * m**5 + 22040 * m**4
           + 104177 * m**3 + 278253 * m**2 + 395233 * m + 232722),
        6: (145 * m**7 + 5403 * m**6 + 77859 * m**5 + 586017 * m**4
            + 2536504 * m**3 + 6381392 * m**2 + 8697776 * m + 4977456),
        5: -2 * (n - 2)
        * (3 * m**6 + 616 * m**5 + 12631 * m**4 + 103314 * m**3
           + 412576 * m**2 + 804920 * m + 615288),
        4: 2 * (53 * m**6 + 3344 * m**5 + 52675 * m**4 + 372392 * m**3
                + 1350984 * m**2 + 2463232 * m + 1792224),
        3: -16 * (n - 2)
        * (46 * m**4 + 1212 * m**3 + 9261 * m**2 + 28030 * m + 29688),
        2: 64 * (39 * m**4 + 683 * m**3 + 4270 * m**2 + 11459 * m + 11239),
        1: -512 * (n - 2) * (8 * m**2 + 53 * m + 89),
        0: 640 * (4 * m**2 + 24 * m + 37),
    }
    return [c[d] for d in range(11)]


def h3_coeffs(n: int) -> list[Fraction]:
    """Ascending coefficients of the degree-10 x2-eliminant factor h3."""
    if n < 6:
        raise DomainError("h3 requires n >= 6")
    n = _f(n)
    m = n - 6
    c = {
        10: (4 * m**3 + 49 * m**2 + 146 * m + 137)
        * (n - 1) ** 3 * (5 * n - 11) ** 2,
        9: -2 * (4 * m**5 + 148 * m**4 + 1913 * m**3 + 9717 * m**2
                 + 20631 * m + 15971) * (n - 2) * (n - 1) ** 2 * (5 * n - 11),
        8: 2 * (2 * m**9 + 284 * m**8 + 9007 * m**7 + 139501 * m**6
                + 1247253 * m**5 + 6834591 * m**4 + 23266933 * m**3
                + 47940391 * m**2 + 54761765 * m + 26704721) * (n - 1),
        7: -4 * (6 * m**9 + 646 * m**8 + 19688 * m**7 + 289164 * m**6
                 + 2441215 * m**5 + 12719748 * m**4 + 41647456 * m**3
                 + 83518006 * m**2 + 93810211 * m + 45323972) * (n - 2),
        6: (36 * m**10 + 4609 * m**9 + 174677 * m**8 + 3042442 * m**7
            + 30064190 * m**6 + 185689733 * m**5 + 747015337 * m**4
            + 1965616896 * m**3 + 3272524240 * m**2 + 3136179408 * m
            + 1321501424),
        5: -2 * (1171 * m**8 + 67984 * m**7 + 1234216 * m**6
                 + 11204886 * m**5 + 59121913 * m**4 + 190739546 * m**3
                 + 372812292 * m**2 + 407205824 * m + 191474440) * (n - 2),
        4: 2 * (20229 * m**8 + 596062 * m**7 + 7566600 * m**6
                + 54209786 * m**5 + 240333483 * m**4 + 676552424 * m**3
                + 1182967080 * m**2 + 1176294720 * m + 509895520),
        3: -16 * (4852 * m**6 + 95667 * m**5 + 777487 * m**4
                  + 3345377 * m**3 + 8058895 * m**2 + 10324814 * m
                  + 5503940) * (n - 2),
        2: 64 * (917 * m**6 + 17831 * m**5 + 143658 * m**4 + 614607 * m**3
                 + 1474263 * m**2 + 1881545 * m + 998839),
        1: -128 * (156 * m**3 + 1344 * m**2 + 3901 * m + 3804)
        * (n - 3) * (n - 2),
        0: 640 * (4 * m**2 + 24 * m + 37) * (n - 3) ** 2,
    }
    return [c[d] for d in range(11)]


def h_poly(coeffs: list[Fraction], var: str) -> RationalPoly:
    """Univariate RationalPoly from an ascending coefficient list."""
    return RationalPoly.from_univariate_coeffs((var,), var, coeffs)


# -- SO(7)/SO(2) eliminant factors (fixed descending integer vectors)

# blocks (2, 3, 2): degree-22 factor of the x13-eliminant
V5R7_232_H1_DESC = [
    688046498713728, -5679627129033984, 21187741726130976, -47332135234207584,
    72943727603815728, -88042204949117760, 90811237969386720,
    -75973652107795440, 40485498601824360, -388980702921240,
    -24758853711650442, 32500688684143066, -27877210026039119,
    14899625214395426, -1186420879578712, -6317807798571000,
    7671384589125120, -6094614793248000, 3670257014726400, -1592931826944000,
    457180443648000, -76918947840000, 5733089280000,
]

# blocks (1, 4, 2): degree-10 factor of the x13-eliminant
V5R7_142_H2_DESC = [
    78808464, -391536432, 848044372, -1028743244, 802028465, -565003906,
    511844730, -416144424, 210074472, -55497312, 5668704,
]


def v5r7_232_h1_coeffs() -> list[Fraction]:
    """Ascending coefficients of the degree-22 (2,3,2) eliminant factor."""
    return [Fraction(c) for c in reversed(V5R7_232_H1_DESC)]


def v5r7_142_h2_coeffs() -> list[Fraction]:
    """Ascending coefficients of the degree-10 (1,4,2) eliminant factor."""
    return [Fraction(c) for c in reversed(V5R7_142_H2_DESC)]


# -- classical equal-off-diagonal Einstein points ---------------------------

def sqrt_fraction(value: Fraction, digits: int = 50) -> Fraction:
    """Rational approximation of sqrt(value) to about `digits` decimals."""
    if value < 0:
        raise DomainError("square root of a negative rational")
    scale = 10**digits
    num = isqrt(value.numerator * value.denominator * scale * scale)
    return Fraction(num, value.denominator * scale)


def jensen_x2(n: int, digits: int = 50) -> tuple[Fraction, Fraction]:
    """The two roots of (n-1)x^2 - 2(n-2)x + 2 = 0, i.e.
    (n-2 -+ sqrt(n^2-6n+6)) / (n-1), as high-precision rationals."""
    if n < 6:
        raise DomainError("requires n >= 6")
    disc = Fraction(n * n - 6 * n + 6)
    s = sqrt_fraction(disc, digits)
    return (Fraction(n - 2) - s) / (n - 1), (Fraction(n - 2) + s) / (n - 1)


def jensen_x2_142(digits: int = 50) -> tuple[Fraction, Fraction]:
    """The two roots of 6x^2 - 10x + 3 = 0, i.e. (5 -+ sqrt(7)) / 6."""
    s = sqrt_fraction(Fraction(7), digits)
    return (5 - s) / 6, (5 + s) / 6


# -- asymptotic root brackets for the (1, 3, n-4) sweep ---------------------

def alpha13_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Bracket for the x13-root in (0,1); valid for n >= 9."""
    n = _f(n)
    return 1 - 2 / n - 6 / n**2, 1 - 2 / n - Fraction(7, 2) / n**2


def beta13_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Bracket for the x13-root in (1,2); valid for n >= 9."""
    n = _f(n)
    return 1 + Fraction(50, 63) / n**2, 1 + 3 / n**2


def alpha12_bounds(n: int) -> tuple[None, Fraction]:
    """Upper bound for the x12-coordinate of the alpha branch; n >= 7.

    No lower bound is asserted for this coordinate: the candidate form
    2 - 2/n - 6/n**2 exceeds the upper bound for every n >= 7, leaving an
    empty interval, so only the upper bound is checked.
    """
    n = _f(n)
    return None, 2 - 4 / n - Fraction(31, 4) / n**2


def beta12_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Bracket for the x12-coordinate of the beta branch; valid for n >= 7."""
    n = _f(n)
    return Fraction(5, 3) / n + Fraction(815, 162) / n**2, (
        Fraction(5, 3) / n + 10 / n**2
    )


def alpha2_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Bracket for the x2-coordinate of the alpha branch; valid for n >= 16."""
    n = _f(n)
    return 1 / (2 * n) + Fraction(13, 8) / n**2, 1 / (2 * n) + Fraction(11, 5) / n**2


def beta2_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Bracket for the x2-coordinate of the beta branch; valid for n >= 16."""
    n = _f(n)
    return Fraction(5, 9) / n + Fraction(23, 20) / n**2, Fraction(5, 9) / n + 10 / n**2


# -- golden fixture file ----------------------------------------------------

def load_golden() -> dict:
    """Stored eliminant fixture data shipped with the package."""
    text = resources.files("stiefel_einstein.data").joinpath(
        "eliminants.json"
    ).read_text()
    return json.loads(text)


def verify_golden() -> list[str]:
    """Check stored fixture vectors against the in-code closed forms.

    Returns a list of mismatch descriptions; empty means verified.
    """
    data = load_golden()
    problems: list[str] = []
    if data["v5r7_232_h1_desc"] != V5R7_232_H1_DESC:
        problems.append("v5r7_232_h1_desc differs from in-code vector")
    if data["v5r7_142_h2_desc"] != V5R7_142_H2_DESC:
        problems.append("v5r7_142_h2_desc differs from in-code vector")
    for entry in data["v4rn_h_factors"]:
        n = entry["n"]
        for key, fn in (("h1", h1_coeffs), ("h2", h2_coeffs), ("h3", h3_coeffs)):
            got = [int(c) for c in fn(n)]
            if entry[key] != got:
                problems.append(f"{key} coefficients differ at n={n}")
    return problems
