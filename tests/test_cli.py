"""Command-line interface: exit codes, formats, determinism."""

from __future__ import annotations

import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stiefel_einstein
from stiefel_einstein import cli
from stiefel_einstein.cli import EXIT_DOMAIN, EXIT_OK, EXIT_RESOURCE, main
from stiefel_einstein.polyalg import resultants


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triples_json(capsys):
    code, out, err = run(capsys, "triples", "--blocks", "1,3,2")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["blocks"] == [1, 3, 2]
    assert data["dims"] == {"2": 3, "12": 3, "13": 2, "23": 6}
    by_modules = {tuple(rec["modules"]): (rec["num"], rec["den"]) for rec in data["triples"]}
    assert by_modules[("12", "13", "23")] == (3, 4)
    assert by_modules[("2", "2", "2")] == (3, 4)


def test_triples_brute_equals_closed(capsys):
    _, closed, _ = run(capsys, "triples", "--blocks", "2,3,2")
    _, brute, _ = run(capsys, "triples", "--blocks", "2,3,2", "--method", "brute")
    assert closed == brute


def test_ricci_values(capsys):
    code, out, _ = run(
        capsys, "ricci", "--blocks", "1,4,2",
        "--coords", "x2=1,x12=1,x13=1,x23=1",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["components"]["r2"] == 0.25
    assert data["components"]["r13"] == 0.3
    assert data["lambda_candidate"] == 0.275


@pytest.mark.parametrize("coords, lam", [
    ("x2=1/1000,x12=1/1000,x13=1/1000,x23=1", -62249.90625),
    ("x2=1,x12=4,x13=16/175,x23=1", 0.0),  # the exact mean is 0
], ids=["negative", "zero"])
def test_ricci_residual_is_null_at_nonpositive_lambda(capsys, coords, lam):
    # max |r - lambda| / lambda measures nothing at lambda <= 0, and at
    # lambda = 0 it is not defined
    code, out, _ = run(capsys, "ricci", "--blocks", "1,3,2", "--coords", coords)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["lambda_candidate"] == lam
    assert data["residual"] is None


def test_solve_pretty_and_json(capsys):
    code, out, _ = run(
        capsys, "solve", "--blocks", "1,3,2", "--format", "pretty"
    )
    assert code == EXIT_OK
    assert out.count("Jensen") == 2
    assert out.count("New") == 2
    code, out, _ = run(capsys, "solve", "--blocks", "1,3,2")
    data = json.loads(out)
    assert len(data["solutions"]) == 4
    for rec in data["solutions"]:
        assert rec["coords"]["x23"] == 1
        assert rec["residual"] < 1e-10
    # csv: one row per solution of the JSON report, in its order
    code, out, _ = run(capsys, "solve", "--blocks", "1,3,2", "--format", "csv")
    assert code == EXIT_OK
    header, *rows = out.splitlines()
    assert header == "n,branch,classification,x12,x13,x2,x23,lambda,residual"
    assert [row.split(",") for row in rows] == [
        ["6", rec["branch"], rec["classification"],
         *(str(rec["coords"][k]) for k in ("x12", "x13", "x2", "x23")),
         str(rec["lambda"]), str(rec["residual"])]
        for rec in data["solutions"]
    ]


def test_solve_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", "--blocks", "1,3,2", "--output", str(a)]) == EXIT_OK
    assert main(["solve", "--blocks", "1,3,2", "--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    # the parametric spelling of the same shape writes the same bytes
    c = tmp_path / "c.json"
    assert main(["solve", "--blocks", "1,3,R", "--n", "6", "--output", str(c)]) == EXIT_OK
    assert c.read_bytes() == a.read_bytes()


@pytest.mark.parametrize("target, reason", [
    (".", "Is a directory"),
    ("missing/report.json", "No such file or directory"),
], ids=["directory", "missing_directory"])
def test_unwritable_output_is_a_domain_error(capsys, tmp_path, target, reason):
    path = tmp_path / target
    code, out, err = run(capsys, "solve", "--blocks", "1,3,2", "--output", str(path))
    assert code == EXIT_DOMAIN and not out
    assert err == f"error: --output {path}: {reason}\n"


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--blocks", "1,3,R", "--n", "6..7")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["n", "branch", "classification"]
    assert len(lines) == 1 + 8  # four solutions per n
    assert {line.split(",")[0] for line in lines[1:]} == {"6", "7"}
    # pretty: a heading per n, then that n's solutions
    code, out, _ = run(capsys, "sweep", "--blocks", "1,3,R", "--n", "6..7",
                       "--format", "pretty")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert [lines[0], lines[5]] == ["n=6", "n=7"] and len(lines) == 10
    assert sorted(line.split()[0] for line in lines[1:5]) == ["Jensen", "Jensen", "New", "New"]


def test_sweep_json_includes_reports(capsys):
    code, out, _ = run(
        capsys, "sweep", "--blocks", "1,3,R", "--n", "9", "--format", "json"
    )
    assert code == EXIT_OK
    (entry,) = json.loads(out)["sweep"]
    assert entry["n"] == 9
    assert entry["positivity"]["h1_at_1"] < 0
    assert all(v["ok"] for v in entry["brackets"].values())
    for v in entry["brackets"].values():
        assert v["value"] == float(f"{v['value']:.12g}")


def test_sweep_rejects_other_families(capsys):
    code, _, err = run(capsys, "sweep", "--blocks", "2,3,R", "--n", "7")
    assert code == EXIT_DOMAIN
    assert "1,3,R" in err


def test_sweep_workers_are_bounded(capsys, monkeypatch):
    for workers in ("0", "-2"):
        code, out, err = run(capsys, "sweep", "--blocks", "1,3,R", "--n", "6",
                             "--workers", workers)
        assert code == EXIT_DOMAIN and not out
        assert err.startswith("error:") and "--workers" in err
    asked = []

    class Recorder:
        """Stands in for the process pool: records its size, maps in-process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    code, out, _ = run(capsys, "sweep", "--blocks", "1,3,R", "--n", "6..8",
                       "--workers", "64")
    assert code == EXIT_OK and len(out.strip().splitlines()) == 1 + 12
    assert asked == [3]


def test_resultant_over_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(resultants, "RESULTANT_BUDGET", 10)
    code, out, err = run(capsys, "solve", "--blocks", "1,3,2")
    assert code == EXIT_RESOURCE and not out
    assert err.startswith("error:") and "budget" in err


def test_resultant_budget_counts_the_assignment_window(capsys, monkeypatch):
    # the last (2,3,2) resultant takes one 256-bit prime (4 words) x 81 points
    # inside its degree window; the row-sum degree bound asked for 4 x 161 = 644
    monkeypatch.setattr(resultants, "RESULTANT_BUDGET", 400)
    code, out, err = run(capsys, "solve", "--blocks", "2,3,2")
    assert code == EXIT_OK and len(json.loads(out)["solutions"]) == 4, err


def test_certify_accept_and_reject(capsys):
    code, out, _ = run(
        capsys, "certify", "--blocks", "1,4,2",
        "--coords", "x2=1,x12=1,x13=1,x23=1",
    )
    assert code == EXIT_DOMAIN
    data = json.loads(out)
    assert data["accepted"] is False
    assert "residual" in data["reason"]


def test_certify_rejects_nonpositive_lambda(capsys):
    # the Ricci mean here is about -62249.9; a negative mean once gave a
    # negative residual, which passed residual <= tol
    code, out, _ = run(
        capsys, "certify", "--blocks", "1,3,2",
        "--coords", "x2=1/1000,x12=1/1000,x13=1/1000,x23=1",
    )
    assert code == EXIT_DOMAIN
    data = json.loads(out)
    assert data["accepted"] is False
    assert data["reason"] == "Ricci mean lambda = -62249.9 is not positive"


def test_certify_exact_jensen_point(capsys):
    # rational approximation of (4 - sqrt(6))/5 good to ~1e-11, then the
    # README example, on the equal-off-diagonal ansatz but 5e-8 from that
    # root: the ansatz alone makes it Jensen
    from stiefel_einstein.fixtures import jensen_x2

    lo, _ = jensen_x2(6)
    approx = lo.limit_denominator(10**12)
    readme = "310102/1000000"
    for x, tol in [(approx, "1e-9"), (readme, "1e-3")]:
        code, out, _ = run(
            capsys, "certify", "--blocks", "1,3,2",
            "--coords", f"x2={x},x12={x},x13=1,x23=1", "--tol", tol,
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["accepted"] is True
        assert data["classification"] == "Jensen"
        assert data["branch"] == "jensen"
    # a point on the ansatz away from both roots is not an Einstein metric
    code, out, _ = run(capsys, "certify", "--blocks", "1,3,2",
                       "--coords", "x2=1,x12=1,x13=1,x23=1", "--tol", "1e-3")
    assert code == EXIT_DOMAIN
    assert json.loads(out)["reason"].startswith("Einstein residual")


@pytest.mark.parametrize("blocks, coords", [
    ("1,1,4", "x12=8/5,x13=1,x23=1"),
    # x1 = x12 = (4 + sqrt(11)) / 5
    ("2,1,3", "x1=1.4633249580710799,x12=1.4633249580710799,x13=1,x23=1"),
    # the same metrics scaled by 7: classification is scale-free
    ("1,1,4", "x12=56/5,x13=7,x23=7"),
    ("2,1,3", "x1=10.2432747064975593,x12=10.2432747064975593,x13=7,x23=7"),
], ids=["114", "213", "114-scaled", "213-scaled"])
def test_certify_accepts_jensen_metrics_with_k2_1(capsys, blocks, coords):
    # solve needs k2 >= 2, certify does not: with k1 = k2 = 1 the Jensen
    # numerator is linear, x12 = 2(n - 2) / (n - 1)
    code, out, _ = run(capsys, "certify", "--blocks", blocks, "--coords", coords)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["accepted"] is True
    assert data["classification"] == "Jensen"
    assert data["residual"] < 1e-15


def test_bad_usage_is_domain_error(capsys):
    code, _, err = run(capsys, "solve", "--blocks", "1,3")
    assert code == EXIT_DOMAIN
    assert err
    code, _, _ = run(capsys, "solve", "--blocks", "1,3,R")  # missing --n...
    assert code == EXIT_DOMAIN
    code, _, _ = run(
        capsys, "ricci", "--blocks", "1,3,2", "--coords", "x2=1"
    )
    assert code == EXIT_DOMAIN
    code, out, err = run(capsys, "solve", "--blocks", "1,3,2", "--n", "6")
    assert code == EXIT_DOMAIN and not out
    assert err == "error: --n is only valid with a parametric block spec\n"
    code, _, err = run(capsys, "solve")  # missing --blocks
    assert code == EXIT_DOMAIN
    assert "--blocks" in err
    code, _, err = run(capsys, "solve", "--blocks", "1,3,2", "--strategy", "auto")
    assert code == EXIT_DOMAIN
    assert "--strategy" in err
    code, _, err = run(capsys, "sweep", "--blocks", "1,3,R")  # missing --n
    assert code == EXIT_DOMAIN
    assert err.startswith("error:") and "--n" in err
    code, _, err = run(capsys, "sweep", "--blocks", "1,3,R", "--n", "9..7")
    assert code == EXIT_DOMAIN
    assert err.startswith("error:") and "9..7" in err
    # malformed values name the option and the value
    for option, value in [("--n", "6..7..8"), ("--n", "abc"), ("--blocks", "1,x,2")]:
        argv = {"--n": "6..8", "--blocks": "1,3,R", option: value}
        code, out, err = run(capsys, "sweep", *(w for kv in argv.items() for w in kv))
        assert code == EXIT_DOMAIN and not out
        assert err.startswith("error:") and option in err and repr(value) in err
    # n below the V4 R^n range is refused before solving, in every format
    for fmt in ("json", "csv"):
        code, out, err = run(capsys, "sweep", "--blocks", "1,3,R", "--n", "5",
                             "--format", fmt)
        assert code == EXIT_DOMAIN and not out
        assert err.startswith("error:") and "n >= 6" in err
    # coordinates that are not finite numbers, or a coordinate given twice
    for cmd, coords in [
        ("certify", "x2=1e400,x12=1,x13=1,x23=1"),
        ("ricci", "x2=1e400,x12=1,x13=1,x23=1"),
        ("ricci", "x2=1/0,x12=1,x13=1,x23=1"),
        ("certify", "x2=1,x12=1,x13=1,x23=1,x2=2"),
    ]:
        code, out, err = run(capsys, cmd, "--blocks", "1,3,2", "--coords", coords)
        assert code == EXIT_DOMAIN and not out
        assert err.startswith("error:")
    # finite coordinates far from 1: ricci evaluates exactly, so no float
    # overflows or turns NaN midway; a value to report beyond the float range
    # is an error, in ricci and certify alike, as is the lambda of the (1,1,4)
    # Jensen metric scaled by 10^-400
    tiny = "0" * 400
    for cmd, blocks, coords, r1 in [
        ("ricci", "2,3,2", "x1=1e300,x2=1e-300,x12=1,x13=1,x23=1", 2.5e299),
        ("ricci", "2,3,2", "x1=1e-320,x2=1,x12=1,x13=1,x23=1", 2.5e-321),
        ("ricci", "2,3,2", "x1=1,x2=1,x12=1,x13=1e-320,x23=1", None),
        ("certify", "3,3,2", "x1=1,x2=1,x12=1,x13=1e-320,x23=1", None),
        ("certify", "3,3,2", f"x1=1,x2=1,x12=1,x13=1/1{tiny},x23=1", None),
        ("certify", "1,1,4", f"x12=8/5{tiny},x13=1/1{tiny},x23=1/1{tiny}", None),
    ]:
        code, out, err = run(capsys, cmd, "--blocks", blocks, "--coords", coords)
        if r1 is None:
            assert code == EXIT_DOMAIN and not out
            assert err.startswith("error:") and "beyond the float range" in err
        else:
            assert code == EXIT_OK and "NaN" not in out and "Infinity" not in out
            assert json.loads(out)["components"]["r1"] == r1
    # a malformed coordinate names --coords, the coordinate and the value
    for key, item in [("x12", "x12=abc"), ("x2", "x2"), ("x2", "x2=1.2.3"),
                      ("x2", "x2=1/x")]:
        value = item.partition("=")[2]
        coords = ",".join([item] + [f"{k}=1" for k in ("x2", "x12", "x13", "x23")
                                    if k != key])
        for cmd in ("certify", "ricci"):
            code, out, err = run(capsys, cmd, "--blocks", "1,3,2", "--coords", coords)
            assert code == EXIT_DOMAIN and not out
            assert err.startswith("error:") and "--coords" in err
            assert f"{key}={value!r}" in err
    # an unknown, repeated or missing coordinate names --coords and the
    # accepted coordinates
    for coords, what in [
        ("x9=1,x2=1,x12=1,x13=1,x23=1", "'x9'"),
        ("x2=1,x12=1,x13=1,x23=1,x12=2", "'x12'"),
        ("x2=1", "x12, x13, x23"),
    ]:
        for cmd in ("certify", "ricci"):
            code, out, err = run(capsys, cmd, "--blocks", "1,3,2", "--coords", coords)
            assert code == EXIT_DOMAIN and not out
            assert err.startswith("error: --coords") and what in err
            assert "x2, x12, x13, x23" in err
    # a negative, NaN, infinite or non-numeric tolerance
    for cmd, extra in [("solve", []), ("certify", ["--coords", "x2=1,x12=1,x13=1,x23=1"])]:
        for tol in ("-1", "nan", "inf", "abc"):
            code, out, err = run(capsys, cmd, "--blocks", "1,3,2", *extra, f"--tol={tol}")
            assert code == EXIT_DOMAIN and not out
            assert err.startswith("error:") and "--tol" in err
    # a parametric range where the command takes one shape
    for cmd, extra in [("solve", []), ("triples", []),
                       ("ricci", ["--coords", "x2=1,x12=1,x13=1,x23=1"]),
                       ("certify", ["--coords", "x2=1,x12=1,x13=1,x23=1"])]:
        code, out, err = run(capsys, cmd, "--blocks", "1,3,R", "--n", "6..8", *extra)
        assert code == EXIT_DOMAIN and not out
        assert err.startswith("error:") and "--n" in err and "one shape" in err
    # an n that leaves no third block names --n and --blocks, not a block
    # the user never typed
    for cmd, blocks in [("solve", "1,3,R"), ("triples", "2,3,R")]:
        code, out, err = run(capsys, cmd, "--blocks", blocks, "--n", "4")
        assert code == EXIT_DOMAIN and not out
        assert err.startswith("error:") and "--n" in err and "--blocks" in err


def test_solve_takes_no_tolerance(capsys):
    # solve certifies at CERTIFY_TOL: --tol 1 once passed two (2,4,3) points
    # with residuals 0.56 and 0.068 as New metrics
    code, out, err = run(capsys, "solve", "--blocks", "2,4,3", "--tol", "1")
    assert code == EXIT_DOMAIN and not out
    assert err.startswith("error:") and "--tol" in err


def test_fixtures_verify(capsys, monkeypatch):
    eliminants = []

    def recording_eliminant(system):
        eliminants.append(groebner_eliminant(system))
        return eliminants[-1]

    groebner_eliminant = cli.groebner_eliminant
    monkeypatch.setattr(cli, "groebner_eliminant", recording_eliminant)
    code, out, _ = run(capsys, "fixtures-verify")
    assert code == EXIT_OK
    assert json.loads(out) == {"ok": True, "problems": []}
    # a stored factor that is off in one coefficient is a problem; the
    # eliminants recorded above are compared again, not recomputed
    stored = cli.v5r7_142_h2_coeffs()
    monkeypatch.setattr(cli, "v5r7_142_h2_coeffs", lambda: [stored[0] + 1, *stored[1:]])
    monkeypatch.setattr(cli, "groebner_eliminant", lambda system: eliminants.pop(0))
    code, out, _ = run(capsys, "fixtures-verify")
    assert code == EXIT_DOMAIN
    assert json.loads(out) == {
        "ok": False, "problems": ["recomputed (1,4,2) eliminant differs from stored factor"]
    }


def test_ricci_float_report(capsys):
    # the report of the per-call table lookups, byte for byte
    code, out, _ = run(capsys, "ricci", "--blocks", "2,3,2", "--coords",
                       "x1=0.37,x2=1.3,x12=0.731,x13=1.1,x23=1")
    assert code == EXIT_OK
    assert out == (
        '{\n "components": {\n  "r1": 0.134440882592,\n  "r12": 0.197705618316,\n'
        '  "r13": 0.378748612226,\n  "r2": 0.411742765946,\n  "r23": 0.277429299838\n'
        ' },\n "lambda_candidate": 0.280013435784,\n "residual": 0.519877029415\n}\n'
    )


def test_solve_needs_no_numpy():
    # the package has no runtime dependency: solve and a one-worker sweep
    # run with numpy blocked and load only the standard library and the
    # package itself, and never the process-pool machinery
    code = (
        "import json, os, sys; sys.modules['numpy'] = None\n"
        "before = set(sys.modules)\n"
        "from stiefel_einstein import cli\n"
        "code = cli.main(['solve', '--blocks', '1,3,2'])\n"
        "code = code or cli.main(['sweep', '--blocks', '1,3,R', '--n', '6',\n"
        "                         '--workers', '1', '--output', os.devnull])\n"
        "new = [m for m in sys.modules if m not in before]\n"
        "print(json.dumps({'new': new, 'all': list(sys.modules)}), file=sys.stderr)\n"
        "sys.exit(code)"
    )
    src = str(Path(stiefel_einstein.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert len(json.loads(proc.stdout)["solutions"]) == 4
    modules = json.loads(proc.stderr.splitlines()[-1])
    foreign = [m for m in modules["new"] if m.partition(".")[0] not in
               sys.stdlib_module_names | {"stiefel_einstein"}]
    assert not foreign
    assert "stiefel_einstein.solver" in modules["new"]
    assert not {"concurrent.futures", "multiprocessing"} & set(modules["all"])


def test_start_up_loads_neither_dataclasses_nor_the_groebner_code():
    # importing the CLI and building its parser is what every run pays; the
    # Gröbner code loads on first use, and fixtures-verify still finds it
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from stiefel_einstein import cli\n"
        "cli.build_parser()\n"
        "new = [m for m in sys.modules if m not in before]\n"
        "from stiefel_einstein.polyalg import groebner\n"
        "print(json.dumps({'new': new, 'buchberger': groebner.buchberger.__module__}))\n"
        "sys.exit(cli.main(['fixtures-verify']))"
    )
    src = str(Path(stiefel_einstein.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    first, report = proc.stdout.split("\n", 1)
    loaded = json.loads(first)
    assert "stiefel_einstein.cli" in loaded["new"]
    assert not {"dataclasses", "inspect", "stiefel_einstein.polyalg.groebner"} & set(
        loaded["new"]
    )
    assert loaded["buchberger"] == "stiefel_einstein.polyalg.groebner"
    assert json.loads(report) == {"ok": True, "problems": []}
