"""Command-line front end: triples, ricci, solve, sweep, certify, fixtures-verify.

Reports are deterministic: floats are printed with 12 significant digits,
exact rationals as numerator/denominator pairs.  Exit codes: 0 success,
1 domain/usage error or a degenerate elimination, 2 an elimination over its
fixed cost limit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from .errors import EliminationOverflowError, StiefelError
from .fixtures import h1_coeffs, v5r7_142_h2_coeffs, verify_golden
from .ricci import InvariantMetric, ricci
from .so_algebra import BlockDecomposition, ModuleLabel
from .solver import (
    EinsteinSolution,
    bracket_report,
    build_system,
    certify,
    groebner_eliminant,
    positivity_report,
    solve,
    sweep,
    to_float,
)
from .triples import dims, triples_bruteforce, triples_closed_form

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_RESOURCE = 2


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, so main exits with EXIT_DOMAIN."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _fmt(x: float) -> float:
    """Round to 12 significant digits for stable serialization."""
    return float(f"{x:.12g}")


def _parse_blocks(text: str) -> tuple[list, bool]:
    """Parse "k1,k2,k3" or "k1,k2,R"; returns (parts, parametric)."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--blocks {text!r}: expected three comma-separated blocks")
    parametric = parts[2].strip().upper() == "R"
    try:
        return [int(p) for p in parts[:2 if parametric else 3]], parametric
    except ValueError:
        raise ValueError(f"--blocks {text!r}: expected integers k1,k2,k3 or k1,k2,R") from None


def _parse_n_range(text: str | None) -> list[int]:
    """Parse "7" or "6..12" into a nonempty inclusive list."""
    if not text:
        raise ValueError("--n is required with a parametric block spec")
    lo, sep, hi = text.partition("..")
    try:
        out = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        raise ValueError(f"--n {text!r}: expected an integer n or a range lo..hi") from None
    if not out:
        raise ValueError(f"empty n range {text!r}")
    return out


def _decomp(args) -> BlockDecomposition:
    """The one shape of a single-shape command (k1,k2,R takes one --n)."""
    blocks, parametric = _parse_blocks(args.blocks)
    if not parametric:
        if args.n:
            raise ValueError("--n is only valid with a parametric block spec")
        return BlockDecomposition(tuple(blocks))
    n_values = _parse_n_range(args.n)
    if len(n_values) != 1:
        raise ValueError(f"--n {args.n} gives {len(n_values)} shapes; "
                         f"{args.command} takes one shape")
    if n_values[0] <= sum(blocks):
        raise ValueError(f"--n {args.n} leaves no third block: "
                         f"--blocks {args.blocks} needs n > {sum(blocks)}")
    return BlockDecomposition((*blocks, n_values[0] - sum(blocks)))


def _parse_coeff(text: str) -> Fraction | float | None:
    """An exact rational, or a float when written with "." or an exponent;
    None for anything else, a zero denominator or a float that is not finite."""
    text = text.strip()
    try:
        if "/" in text:
            return Fraction(text)
        if "." in text or "e" in text or "E" in text:
            value = float(text)
            return value if math.isfinite(value) else None
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        return None


def _parse_tol(text: str) -> float:
    """A tolerance: a finite float >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _parse_coords(text: str, decomp: BlockDecomposition) -> dict[ModuleLabel, object]:
    by_name = {f"x{l.name}": l for l in dims(decomp)}
    expected = f"expected each of {', '.join(by_name)} once"
    out = {}
    for item in text.split(","):
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in by_name:
            raise ValueError(f"--coords: unknown coordinate {key!r}; {expected}")
        if by_name[key] in out:
            raise ValueError(f"--coords: repeated coordinate {key!r}; {expected}")
        value = _parse_coeff(val)
        if value is None:
            raise ValueError(f"--coords {key}={val!r}: expected an integer, "
                             "a fraction n/d or a finite float")
        out[by_name[key]] = value
    missing = [key for key, lbl in by_name.items() if lbl not in out]
    if missing:
        raise ValueError(f"--coords: missing {', '.join(missing)}; {expected}")
    return out


def _emit(args, payload: str) -> None:
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ValueError(f"--output {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(payload)


def _solutions_json(sols: list[EinsteinSolution]) -> dict:
    recs = []
    for s in sols:
        rec = s.to_json()
        rec["coords"] = {k: _fmt(v) for k, v in rec["coords"].items()}
        rec["lambda"] = _fmt(rec["lambda"])
        rec["residual"] = _fmt(rec["residual"])
        recs.append(rec)
    return {"solutions": recs}


def _brackets_json(n: int, sols: list[EinsteinSolution]) -> dict:
    """bracket_report with value and bounds rounded; ok stays unrounded."""
    return {
        name: {k: v if k == "ok" or v is None else _fmt(v) for k, v in entry.items()}
        for name, entry in bracket_report(n, sols).items()
    }


def _solutions_csv(rows: list[tuple[int, EinsteinSolution]]) -> str:
    buf = io.StringIO()
    names = sorted({name for _, s in rows for name in s.to_json()["coords"]})
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "branch", "classification", *names, "lambda", "residual"])
    for n, s in rows:
        rec = s.to_json()
        writer.writerow(
            [
                n,
                rec["branch"],
                rec["classification"],
                *[_fmt(rec["coords"][c]) if c in rec["coords"] else "" for c in names],
                _fmt(rec["lambda"]),
                _fmt(rec["residual"]),
            ]
        )
    return buf.getvalue()


def _solutions_pretty(sols: list[EinsteinSolution]) -> str:
    lines = []
    for s in sols:
        rec = s.to_json()
        coords = "  ".join(f"{k}={_fmt(v):.6g}" for k, v in rec["coords"].items())
        lines.append(
            f"{rec['classification']:<8} {coords}  lambda={_fmt(rec['lambda']):.6g}"
            f"  residual={rec['residual']:.2e}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def _cmd_triples(args) -> int:
    decomp = _decomp(args)
    table = (
        triples_bruteforce(decomp) if args.method == "brute"
        else triples_closed_form(decomp)
    )
    payload = json.dumps(table.to_json(), indent=1, sort_keys=True) + "\n"
    _emit(args, payload)
    return EXIT_OK


def _cmd_ricci(args) -> int:
    decomp = _decomp(args)
    coords = {l: Fraction(v) for l, v in _parse_coords(args.coords, decomp).items()}
    comp = ricci(InvariantMetric(decomp, coords))  # exact, so no float overflows midway
    residual = comp.residual()  # None when lambda <= 0
    out = {
        "components": {f"r{l.name}": _fmt(to_float(v, f"r{l.name}"))
                       for l, v in sorted(comp.values.items())},
        "lambda_candidate": _fmt(to_float(comp.einstein_constant_candidate, "lambda")),
        "residual": None if residual is None else _fmt(to_float(residual, "the residual")),
    }
    _emit(args, json.dumps(out, indent=1, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_solve(args) -> int:
    decomp = _decomp(args)
    sols = solve(build_system(decomp))
    if args.format == "csv":
        payload = _solutions_csv([(decomp.n, s) for s in sols])
    elif args.format == "pretty":
        payload = _solutions_pretty(sols)
    else:
        payload = json.dumps(_solutions_json(sols), indent=1, sort_keys=True) + "\n"
    _emit(args, payload)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    blocks, parametric = _parse_blocks(args.blocks)
    if not parametric or blocks != [1, 3]:
        raise ValueError("sweep supports --blocks 1,3,R")
    n_values = _parse_n_range(args.n)
    if min(n_values) < 6:
        raise ValueError("sweep requires n >= 6")
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    results = sweep(n_values, workers=args.workers)
    rows = [(n, s) for n in n_values for s in results[n]]
    if args.format == "json":
        out = {
            "sweep": [
                {
                    "n": n,
                    **_solutions_json(results[n]),
                    "positivity": positivity_report([n])[0].to_json(),
                    "brackets": _brackets_json(n, results[n]),
                }
                for n in n_values
            ]
        }
        payload = json.dumps(out, indent=1, sort_keys=True) + "\n"
    elif args.format == "pretty":
        payload = "".join(
            f"n={n}\n" + _solutions_pretty(results[n]) for n in n_values
        )
    else:
        payload = _solutions_csv(rows)
    _emit(args, payload)
    return EXIT_OK


def _cmd_certify(args) -> int:
    decomp = _decomp(args)
    result = certify(_parse_coords(args.coords, decomp), decomp, tol=args.tol)
    if isinstance(result, EinsteinSolution):
        out = {"accepted": True, **_solutions_json([result])["solutions"][0]}
    else:
        out = {"accepted": False, "reason": result.reason}
    _emit(args, json.dumps(out, indent=1, sort_keys=True) + "\n")
    return EXIT_OK if out["accepted"] else EXIT_DOMAIN


def _cmd_fixtures_verify(args) -> int:
    problems = verify_golden()
    # recompute the Groebner eliminants and compare with the stored closed forms
    checks = [((1, 3, n - 4), h1_coeffs(n),
               f"recomputed x13-eliminant differs from h1 at n={n}") for n in (6, 7)]
    checks.append(((1, 4, 2), v5r7_142_h2_coeffs(),
                   "recomputed (1,4,2) eliminant differs from stored factor"))
    for blocks, stored, problem in checks:
        coeffs = groebner_eliminant(build_system(BlockDecomposition(blocks)))
        ratio = coeffs[-1] / stored[-1] if len(coeffs) == len(stored) else None
        if ratio is None or any(a != ratio * b for a, b in zip(coeffs, stored)):
            problems.append(problem)
    out = {"ok": not problems, "problems": problems}
    _emit(args, json.dumps(out, indent=1, sort_keys=True) + "\n")
    return EXIT_OK if not problems else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stiefel-einstein",
        description="Invariant Einstein metrics on Stiefel manifolds SO(n)/SO(n-k).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, blocks=True):
        if blocks:
            p.add_argument("--blocks", required=True, help="k1,k2,k3 or k1,k2,R")
            p.add_argument("--n", help="n value or range lo..hi (parametric blocks)")
        p.add_argument("--output", help="write the report to this path")

    p = sub.add_parser("triples", help="structure-constant triple table")
    common(p)
    p.add_argument(
        "--method", choices=["closed", "brute"], default="closed",
        help="closed-form table or brute-force basis enumeration",
    )
    p.set_defaults(func=_cmd_triples)

    p = sub.add_parser("ricci", help="Ricci components of a diagonal metric")
    common(p)
    p.add_argument(
        "--coords", required=True,
        help="comma list x2=...,x12=...; fractions like 1/3 stay exact",
    )
    p.set_defaults(func=_cmd_ricci)

    p = sub.add_parser("solve", help="find certified Einstein metrics")
    common(p)
    p.add_argument("--format", choices=["json", "csv", "pretty"], default="json")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="solve the 1,3,R family over an n-range")
    common(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=["json", "csv", "pretty"], default="csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("certify", help="certify a candidate coordinate vector")
    common(p)
    p.add_argument("--coords", required=True)
    p.add_argument("--tol", type=_parse_tol, default=1e-10)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("fixtures-verify",
                       help="recompute eliminants and diff against stored data")
    common(p, blocks=False)
    p.set_defaults(func=_cmd_fixtures_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except EliminationOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (StiefelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
