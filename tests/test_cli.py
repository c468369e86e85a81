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


def test_solve_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", "--blocks", "1,3,2", "--output", str(a)]) == EXIT_OK
    assert main(["solve", "--blocks", "1,3,2", "--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--blocks", "1,3,R", "--n", "6..7")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["n", "branch", "classification"]
    assert len(lines) == 1 + 8  # four solutions per n
    assert {line.split(",")[0] for line in lines[1:]} == {"6", "7"}


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
    # the last (2,3,2) resultant takes 4 primes x 81 points inside its degree
    # window; the row-sum degree bound asked for 4 x 161 = 644
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


def test_certify_exact_jensen_point(capsys):
    # rational approximation of (4 - sqrt(6))/5 good to ~1e-11
    from stiefel_einstein.fixtures import jensen_x2

    lo, _ = jensen_x2(6)
    approx = lo.limit_denominator(10**12)
    coords = f"x2={approx},x12={approx},x13=1,x23=1"
    code, out, _ = run(
        capsys, "certify", "--blocks", "1,3,2", "--coords", coords,
        "--tol", "1e-9",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["accepted"] is True
    assert data["classification"] == "Jensen"


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
    # a negative or NaN tolerance
    for cmd, extra in [("solve", []), ("certify", ["--coords", "x2=1,x12=1,x13=1,x23=1"])]:
        for tol in ("-1", "nan"):
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


def test_fixtures_verify(capsys):
    code, out, _ = run(capsys, "fixtures-verify")
    assert code == EXIT_OK
    assert json.loads(out) == {"ok": True, "problems": []}


def test_solve_needs_no_numpy():
    # the package has no runtime dependency: solve must run with numpy blocked
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "from stiefel_einstein import cli\n"
        "sys.exit(cli.main(['solve', '--blocks', '1,3,2']))"
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
