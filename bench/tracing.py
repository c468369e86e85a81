"""Spans and per-layer metrics for the traced run.

The traced run rebinds functions in the package's module namespaces to
wrappers that record one span per call: name, start, end, parent span and
operation id.  No source file of the package changes.  A hooked name that no
longer exists is reported as absent; its metrics read 0.

A span's self time is its duration minus the duration of its child spans.
The self-time metrics of one pass add up to the traced pass time;
``groebner.wasted_s`` is the part of ``groebner.s`` spent in calls that
overflowed.
"""

from __future__ import annotations

import importlib
import json
import time
from fractions import Fraction

SOLVER = "stiefel_einstein.solver"
CLI = "stiefel_einstein.cli"

# (span name, module, attribute).  A function imported by name into several
# modules is rebound in each module that calls it.
HOOKS = [
    ("solver.build_system", SOLVER, "build_system"),
    ("solver.build_system", CLI, "build_system"),
    ("solver.solve", SOLVER, "solve"),
    ("solver.solve", CLI, "solve"),
    ("solver.eliminate", SOLVER, "_eliminate"),
    ("solver.newton", SOLVER, "_newton"),
    ("solver.certify", SOLVER, "certify"),
    ("solver.certify", CLI, "certify"),
    ("solver.jensen", SOLVER, "jensen_points"),
    ("groebner.buchberger", SOLVER, "buchberger"),
    ("resultants.eliminate", SOLVER, "eliminate_resultant"),
    ("resultants.resultant", "stiefel_einstein.polyalg.resultants", "resultant"),
    ("resultants.gcd", SOLVER, "poly_gcd"),
    ("resultants.gcd", "stiefel_einstein.polyalg.resultants", "poly_gcd"),
    ("sturm.squarefree", SOLVER, "squarefree_part"),
    ("sturm.squarefree", "stiefel_einstein.polyalg.sturm", "squarefree_part"),
    ("sturm.isolate", SOLVER, "isolate_real_roots"),
    ("sturm.refine", SOLVER, "bisect_to_width"),
    ("ricci.symbolic", SOLVER, "ricci"),
    ("ricci.exact", SOLVER, "ricci_general"),
    ("triples.closed_form", SOLVER, "triples_closed_form"),
    ("triples.closed_form", "stiefel_einstein.ricci", "triples_closed_form"),
]

# Spans recorded only at the outermost call: poly_gcd recurses through its
# module global, and only the calls the rest of the pipeline makes count.
OUTERMOST = {"resultants.gcd"}

# span name -> (self-time metric, call-count metric or None)
TIMES = {
    "cli.main": ("cli.self_s", None),
    "solver.build_system": ("solver.build_system_s", None),
    "solver.solve": ("solver.solve_self_s", None),
    "solver.eliminate": ("solver.solve_self_s", None),
    "solver.newton": ("solver.newton_s", "solver.newton_starts"),
    "solver.certify": ("solver.certify_s", "solver.certify_calls"),
    "solver.jensen": ("solver.jensen_s", "solver.jensen_calls"),
    "groebner.buchberger": ("groebner.s", "groebner.calls"),
    "resultants.eliminate": ("resultants.eliminate_s", None),
    "resultants.resultant": ("resultants.resultant_s", "resultants.resultant_calls"),
    "resultants.gcd": ("resultants.gcd_s", "resultants.gcd_calls"),
    "sturm.squarefree": ("sturm.squarefree_s", None),
    "sturm.isolate": ("sturm.isolate_s", None),
    "sturm.refine": ("sturm.refine_s", "sturm.refine_calls"),
    "ricci.symbolic": ("ricci.symbolic_s", "ricci.symbolic_calls"),
    "ricci.exact": ("ricci.exact_s", "ricci.exact_calls"),
    "triples.closed_form": ("triples.closed_form_s", "triples.closed_form_calls"),
}

# Metrics derived from errors and values returned at the hooked boundaries.
# The counts are exact and must repeat between runs.
DERIVED = [
    "groebner.overflows",
    "groebner.wasted_s",
    "resultants.eliminant_degree",
    "resultants.coeff_bits",
    "sturm.squarefree_degree",
    "sturm.roots_isolated",
    "solver.newton_converged",
    "solver.roots_positive",
    "solver.roots_resolved",
    "solver.certify_accepted",
]


def _strip_root_one(coeffs: list) -> list:
    """Divide the factors (x - 1) out of an ascending coefficient list: the
    solver splits the x13 = 1 branch off the eliminant the same way."""
    while len(coeffs) > 1 and sum(coeffs) == 0:
        quotient = [0] * (len(coeffs) - 1)
        acc = 0
        for i in range(len(coeffs) - 1, 0, -1):
            acc += coeffs[i]
            quotient[i - 1] = acc
        coeffs = quotient
    return coeffs


def _size(coeffs: list) -> dict:
    return {
        "degree": len(coeffs) - 1,
        "bits": max(
            max(Fraction(c).numerator.bit_length(), Fraction(c).denominator.bit_length())
            for c in coeffs
        ),
    }


def unit(metric: str) -> str:
    return "s" if metric.endswith(("_s", ".s")) else "count"


def _is_root_one(iv) -> bool:
    """True when the isolating interval holds the root x13 = 1."""
    return iv.lo < 1 <= iv.hi and sum(Fraction(c) for c in iv.coeffs) == 0


def _observe(name: str, args: tuple, kwargs: dict, result):
    """What a span keeps of its call's arguments and result."""
    if name == "resultants.eliminate":
        keep = args[1] if len(args) > 1 else kwargs["keep"]
        return _size(_strip_root_one(result.univariate_coeffs(keep)))
    if name == "sturm.squarefree":
        return {"degree": len(result) - 1}
    if name == "sturm.isolate":
        return {"roots": [[float(iv.lo), float(iv.hi), _is_root_one(iv)] for iv in result]}
    if name == "solver.newton":
        return {"converged": result is not None}
    if name == "solver.certify":
        return {"accepted": hasattr(result, "classification")}
    if name == "solver.solve":
        recs = [s.to_json() for s in result]
        return {"new_x13": [r["coords"]["x13"] for r in recs if r["classification"] == "New"]}
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "info", "child_s")

    def __init__(self, name: str, start: float, parent: int, op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.error = None
        self.info = None
        self.child_s = 0.0

    def to_json(self, origin: float) -> dict:
        return {
            "name": self.name,
            "start": self.start - origin,
            "end": self.end - origin,
            "parent": self.parent,
            "op": self.op,
            "error": self.error,
            "info": self.info,
        }


class Tracer:
    """Records spans in memory while ``recording`` is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self.recording = False
        self.absent: list[str] = []
        self.observe_errors = 0

    def install(self) -> None:
        for name, module, attr in HOOKS:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self._wrap(name, fn))

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        stack = self.stack
        if not self.recording or (
            name in OUTERMOST and stack and self.spans[stack[-1]].name == name
        ):
            return fn(*args, **kwargs)
        span = Span(name, 0.0, stack[-1] if stack else -1, self.op)
        index = len(self.spans)
        self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.parent >= 0:
                self.spans[span.parent].child_s += span.end - span.start
        try:
            span.info = _observe(name, args, kwargs, result)
        except (AttributeError, TypeError, ValueError, KeyError, IndexError):
            self.observe_errors += 1
        return result

    def write(self, path, origin: float, meta: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.to_json(origin)) + "\n")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of the spans of one pass."""
    out = {m: 0 for pair in TIMES.values() for m in pair if m}
    out.update({m: 0 for m in DERIVED})
    out["groebner.wasted_s"] = 0.0
    solve_roots: dict[int, list] = {}
    solve_new: dict[int, list[float]] = {}
    for index, s in enumerate(spans):
        duration = s.end - s.start
        time_metric, calls_metric = TIMES[s.name]
        out[time_metric] += duration - s.child_s
        if calls_metric:
            out[calls_metric] += 1
        info = s.info or {}
        parent = spans[s.parent].name if s.parent >= 0 else None
        if s.name == "groebner.buchberger" and s.error == "EliminationOverflowError":
            out["groebner.overflows"] += 1
            out["groebner.wasted_s"] += duration
        elif s.name == "resultants.eliminate" and info:
            out["resultants.eliminant_degree"] += info["degree"]
            out["resultants.coeff_bits"] = max(out["resultants.coeff_bits"], info["bits"])
        elif s.name == "sturm.squarefree" and info and parent == "solver.solve":
            out["sturm.squarefree_degree"] += info["degree"]
        elif s.name == "sturm.isolate" and info:
            out["sturm.roots_isolated"] += len(info["roots"])
            if parent == "solver.solve":
                roots = [r for r in info["roots"] if not r[2]]
                out["solver.roots_positive"] += len(roots)
                solve_roots.setdefault(s.parent, []).extend(roots)
        elif s.name == "solver.newton" and info.get("converged"):
            out["solver.newton_converged"] += 1
        elif s.name == "solver.certify" and info.get("accepted"):
            out["solver.certify_accepted"] += 1
        elif s.name == "solver.solve" and info:
            solve_new[index] = info["new_x13"]
    # a positive root is resolved when a certified New metric lies in its interval
    for index, new_x13 in solve_new.items():
        out["solver.roots_resolved"] += sum(
            any(lo <= x <= hi for x in new_x13) for lo, hi, _ in solve_roots.get(index, [])
        )
    return out
