import _posixsubprocess
import argparse
import ast
import contextlib
import importlib.util
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import threading
import tomllib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermquant.basis import kernel_s1_closed
from hermquant.cli import (_BUILDERS, _EXPORT_OPTIONS, SUITE_NAMES,
                           build_parser, main, parse_complex)
from hermquant.matrices import build_Q

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_env(**extra) -> dict:
    """The environment for a fresh interpreter that imports hermquant from
    this checkout, with extra variables set."""
    src = str(ROOT / "src")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_parse_complex_forms():
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-0.5-1i") == -0.5 - 1j
    assert parse_complex("2") == 2 + 0j
    assert parse_complex("3i") == 3j
    assert parse_complex("-i") == -1j
    assert parse_complex("1e-3+2e-4i") == complex(1e-3, 2e-4)
    with pytest.raises(ValueError):
        parse_complex("")


@given(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                          allow_infinity=False))
def test_parse_complex_round_trip(z):
    text = f"{z.real:.17g}{z.imag:+.17g}i"
    assert parse_complex(text) == complex(z.real, z.imag)


def test_poly_hermite_diagonal_value(capsys):
    # h^{2,2}(1+i) = 2! L_2(2) = 2 (1 - 4 + 2) = -2
    code, out, _ = run_cli(capsys, "poly", "hermite", "--r", "2", "--s", "2",
                           "--z", "1+1i")
    assert code == 0
    body = json.loads(out)
    assert body["re"] == pytest.approx(-2.0, abs=1e-13)
    assert body["im"] == pytest.approx(0.0, abs=1e-13)


def test_poly_assoc_hermite_coefficients(capsys):
    code, out, _ = run_cli(capsys, "poly", "assoc-hermite", "--n", "2",
                           "--s", "1")
    assert code == 0
    assert json.loads(out)["coefficients"] == ["-4", "0", "4"]

    code, out, _ = run_cli(capsys, "poly", "assoc-hermite", "--n", "3",
                           "--s", "0")
    assert json.loads(out)["coefficients"] == ["0", "-12", "0", "8"]


@pytest.mark.parametrize("argv, needle", [
    (("poly", "hermite", "--r", "-1", "--s", "0", "--z", "1"), ""),
    (("basis", "normalization", "--s", "1", "--t", "800"), "t = 800"),
    (("poly", "hermite", "--r", "400", "--s", "400", "--z", "1+1i"),
     "r = 400"),
    (("physics", "table", "--dim", "1"), "--dim"),
    (("poly", "assoc-hermite", "--n", "3", "--s", "-2"), "--s -2"),
    (("poly", "hermite", "--r", "1", "--s", "1", "--z", "nan+1i"),
     "--z nan+1i"),
    (("physics", "table", "--s-max", "-1"), "--s-max -1"),
    (("basis", "normalization", "--s", "-1", "--t", "1"), "--s -1"),
    (("basis", "normalization", "--s", "2", "--t", "nan"), "--t nan"),
    (("export", "--object", "lower-symbol-scan", "--operator", "AH",
      "--extent", "nan", "--grid-points", "2", "--dim", "20"), "--extent nan"),
    (("export", "--object", "kernel-grid", "--extent", "nan"),
     "--extent nan"),
    (("kernel", "--s", "-1", "--z", "1", "--zprime", "1"), "--s -1"),
    (("quantize", "--a", "1", "--b", "0", "--s", "-1", "--dim", "4"),
     "--s -1"),
    (("quantize", "--a", "1", "--b", "0", "--s", "-1", "--dim", "4",
      "--method", "numeric"), "--s -1"),
    (("spectrum", "eigenvalues", "--s", "-1", "--dim", "3"), "--s -1"),
    (("spectrum", "measure", "--s", "-1", "--dim", "3"), "--s -1"),
    (("export", "--object", "operator", "--operator", "Q", "--s", "-1",
      "--dim", "3"), "--s -1"),
    (("export", "--object", "kernel-grid", "--s", "-1", "--grid-points", "2"),
     "--s -1"),
    (("export", "--object", "lower-symbol-scan", "--operator", "AH",
      "--s", "-1", "--grid-points", "2", "--dim", "4"), "--s -1"),
    (("basis", "phi", "--n", "1", "--s", "-1", "--z", "1"), "--s -1"),
    (("physics", "hamiltonian", "--s", "-1", "--dim", "4"), "--s -1"),
    (("poly", "hermite", "--r", "1", "--s", "-1", "--z", "1"), "--s -1"),
    (("physics", "gamma", "--omega", "nan"), "--omega nan"),
    (("physics", "gamma", "--omega", "inf"), "--omega inf"),
    (("physics", "gamma", "--mass", "nan", "--omega", "3e15"), "--mass nan"),
    (("physics", "hamiltonian", "--omega", "nan", "--dim", "4"),
     "--omega nan"),
    (("physics", "hamiltonian", "--length", "oscillator", "--mass=-inf",
      "--dim", "4"), "--mass -inf"),
    (("physics", "hamiltonian", "--length", "oscillator", "--mass", "1e-200",
      "--omega", "1e-200", "--dim", "4"), "m * omega = 0.0"),
    (("physics", "gamma", "--omega", "1e308", "--mass", "1e-300"),
     "--mass 1e-300 --omega 1e+308"),
    (("physics", "hamiltonian", "--mass", "1e-320", "--dim", "4"),
     "--mass 1e-320"),
    (("physics", "hamiltonian", "--mass", "1e-300", "--omega", "1e300"),
     "--mass 1e-300 --omega 1e+300"),
    (("physics", "hamiltonian", "--mass", "1e200"), "--mass 1e+200"),
    (("physics", "hamiltonian", "--dim", "2"), "--dim 2"),
    (("physics", "hamiltonian", "--mass", "1e290"),
     "--mass 1e+290 --omega 3000000000000000.0: ell = 0.0"),
    (("physics", "gamma", "--mass", "1e300", "--omega", "1e308"),
     "--mass 1e+300 --omega 1e+308: ell = 0.0"),
    (("physics", "hamiltonian", "--s", "1" + "0" * 320, "--dim", "3"),
     "--s 1000"),
    (("physics", "hamiltonian", "--mode", "dimensionless", "--omega", "nan"),
     "--omega nan: not read under --mode dimensionless"),
    (("physics", "hamiltonian", "--mode", "dimensionless", "--mass", "2"),
     "--mass 2.0: not read"),
    (("physics", "hamiltonian", "--mode", "dimensionless", "--length",
      "compton"), "--length compton: not read"),
    (("export", "--object", "operator", "--zprime", "1"),
     "--zprime 1: not read by --object operator"),
    (("export", "--object", "operator", "--extent", "2"),
     "--extent 2.0: not read by --object operator"),
    (("export", "--object", "operator", "--grid-points", "9"),
     "--grid-points 9: not read by --object operator"),
    (("export", "--object", "operator", "--tol", "1e-10"),
     "--tol 1e-10: not read by --object operator"),
    (("export", "--object", "kernel-grid", "--operator", "Q"),
     "--operator Q: not read by --object kernel-grid"),
    (("export", "--object", "kernel-grid", "--dim", "12"),
     "--dim 12: not read by --object kernel-grid"),
    (("export", "--object", "kernel-grid", "--epsilon", "L"),
     "--epsilon L: not read by --object kernel-grid"),
    (("export", "--object", "lower-symbol-scan", "--zprime", "0+0i"),
     "--zprime 0+0i: not read by --object lower-symbol-scan"),
    (("export", "--object", "lower-symbol-scan", "--tol", "1e-10"),
     "--tol 1e-10: not read by --object lower-symbol-scan"),
    (("kernel", "--s", "1", "--z", "1e200", "--zprime", "0"),
     "--z 1e200: |z|^2 overflows a float"),
    (("kernel", "--s", "1", "--z", "0", "--zprime", "1e160+1e160i"),
     "--zprime 1e160+1e160i: |z|^2 overflows a float"),
    (("export", "--object", "kernel-grid", "--zprime=-1e200i",
      "--grid-points", "2"), "--zprime -1e200i: |z|^2 overflows a float"),
    (("export", "--object", "kernel-grid", "--extent", "1e154",
      "--grid-points", "2"), "--extent 1e+154: |z|^2 overflows a float"),
    (("export", "--object", "lower-symbol-scan", "--extent", "1e200",
      "--grid-points", "2", "--dim", "4"),
     "--extent 1e+200: |z|^2 overflows a float"),
    (("physics", "gamma", "--mass", "0", "--omega", "0"),
     "--mass 0.0 --omega 0.0: m = 0.0 must be finite and strictly positive"),
    (("physics", "hamiltonian", "--mass", "0", "--dim", "4"),
     "--mass 0.0 --omega 3000000000000000.0: m = 0.0"),
    (("basis", "phi", "--n", "0", "--s", "0", "--z", "0+1.4e154i"),
     "--z 0+1.4e154i: |z|^2 overflows a float"),
    (("basis", "phi", "--n", "0", "--s", "11", "--z", "1e150"),
     "--z 1e150: the Laguerre factor of phi_{n;s} overflows a float"),
    (("quantize", "--a", "-1", "--b", "0", "--s", "0", "--dim", "3"),
     "--a -1: must be nonnegative"),
    (("quantize", "--a", "0", "--b", "-2", "--s", "1", "--dim", "3",
      "--method", "numeric"), "--b -2: must be nonnegative"),
    (("kernel", "--s", "3", "--z", "1", "--zprime", "1", "--tol", "nan"),
     "--tol nan: must be finite"),
    (("kernel", "--s", "3", "--z", "1", "--zprime", "1", "--tol", "inf"),
     "--tol inf: must be finite"),
    (("kernel", "--s", "3", "--z", "1", "--zprime", "1", "--tol=-1"),
     "--tol -1.0: must be nonnegative"),
    (("export", "--object", "kernel-grid", "--tol", "nan"),
     "--tol nan: must be finite"),
    (("export", "--object", "kernel-grid", "--tol=-1e-10"),
     "--tol -1e-10: must be nonnegative"),
    (("export", "--object", "kernel-grid", "--grid-points=-1"),
     "--grid-points -1: must be nonnegative"),
    (("export", "--object", "lower-symbol-scan", "--grid-points=-1"),
     "--grid-points -1: must be nonnegative"),
    (("spectrum", "eigenvalues", "--s", "0", "--dim", "0"),
     "--dim 0: must be positive"),
    (("spectrum", "eigenvalues", "--s", "0", "--dim=-2"),
     "--dim -2: must be positive"),
    (("spectrum", "measure", "--s", "0", "--dim", "0"),
     "--dim 0: must be positive"),
    (("spectrum", "measure", "--s", "0", "--dim=-2"),
     "--dim -2: must be positive"),
    (("quantize", "--a", "1", "--b", "0", "--s", "0", "--dim", "0"),
     "--dim 0: must be positive"),
    (("export", "--object", "operator", "--dim", "0"),
     "--dim 0: must be positive"),
    (("export", "--object", "lower-symbol-scan", "--dim", "0"),
     "--dim 0: must be positive"),
    (("poly", "hermite", "--r=-1", "--s", "0", "--z", "1"),
     "--r -1: must be nonnegative"),
    (("basis", "phi", "--n=-1", "--s", "0", "--z", "1"),
     "--n -1: must be nonnegative"),
], ids=["negative-degree", "normalization-overflow", "hermite-overflow",
        "table-dim-1", "assoc-hermite-negative-s", "hermite-nan-z",
        "table-negative-s-max", "normalization-negative-s",
        "normalization-nan-t", "symbol-scan-nan-extent",
        "kernel-grid-nan-extent", "kernel-negative-s",
        "quantize-closed-negative-s", "quantize-numeric-negative-s",
        "eigenvalues-negative-s", "measure-negative-s",
        "export-operator-negative-s", "export-kernel-grid-negative-s",
        "export-symbol-scan-negative-s", "phi-negative-s",
        "hamiltonian-negative-s", "hermite-negative-s", "gamma-nan-omega",
        "gamma-inf-omega", "gamma-nan-mass", "hamiltonian-nan-omega",
        "oscillator-inf-mass", "oscillator-underflowing-product",
        "gamma-overflow", "hamiltonian-tiny-mass",
        "hamiltonian-overflowing-length", "hamiltonian-underflowing-length",
        "hamiltonian-dim-2", "hamiltonian-underflowing-ell",
        "gamma-underflowing-ell", "hamiltonian-s-beyond-floats",
        "dimensionless-omega",
        "dimensionless-mass", "dimensionless-length",
        "operator-zprime", "operator-extent", "operator-grid-points",
        "operator-tol", "kernel-grid-operator", "kernel-grid-dim",
        "kernel-grid-epsilon", "symbol-scan-zprime", "symbol-scan-tol",
        "kernel-overflowing-z", "kernel-overflowing-zprime",
        "kernel-grid-overflowing-zprime", "kernel-grid-overflowing-extent",
        "symbol-scan-overflowing-extent", "gamma-zero-mass",
        "hamiltonian-zero-mass", "phi-overflowing-z",
        "phi-overflowing-laguerre", "quantize-closed-negative-a",
        "quantize-numeric-negative-b", "kernel-nan-tol", "kernel-inf-tol",
        "kernel-negative-tol", "kernel-grid-nan-tol",
        "kernel-grid-negative-tol", "kernel-grid-negative-grid-points",
        "symbol-scan-negative-grid-points", "eigenvalues-dim-0",
        "eigenvalues-negative-dim", "measure-dim-0", "measure-negative-dim",
        "quantize-dim-0", "export-operator-dim-0", "symbol-scan-dim-0",
        "hermite-negative-r", "phi-negative-n"])
def test_domain_error_exit_code(capsys, argv, needle):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    # the message names the offending argument
    assert needle in err


@pytest.mark.parametrize("obj", ["kernel-grid", "lower-symbol-scan"])
def test_zero_grid_points_is_an_empty_grid(capsys, obj):
    code, out, err = run_cli(capsys, "export", "--object", obj,
                             "--grid-points", "0")
    assert code == 0, err
    assert json.loads(out)["rows"] == []


def test_hamiltonian_radicands_beyond_the_floats(capsys):
    # the entries of Q^2 at s = 1e200 carry radicands near 1e400, beyond the
    # float range, while the levels themselves are floats
    code, out, err = run_cli(capsys, "physics", "hamiltonian",
                             "--s", "1" + "0" * 200, "--dim", "3")
    assert code == 0, err
    assert json.loads(out)["levels"][0] == 2.4561317330509864e+187


def test_measure_weight_underflow_is_a_domain_error(capsys):
    # at --dim 400 the outermost Golub-Welsch weights fall below 1e-308
    code, _, err = run_cli(capsys, "spectrum", "measure", "--s", "1",
                           "--dim", "400")
    assert code == 2
    assert err.startswith("error: --dim 400: ") and err.count("\n") == 1
    assert "at node -27.7" in err and "underflows a float" in err


def test_io_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "export", "--object", "operator",
                           "--operator", "Q", "--dim", "3",
                           "--out", "/nonexistent/dir/x.csv")
    assert code == 3


def test_kernel_command_matches_library(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--s", "1", "--z", "0.5+0.5i",
                           "--zprime=-0.3+0.2i")
    assert code == 0
    body = json.loads(out)
    want = kernel_s1_closed(0.5 + 0.5j, -0.3 + 0.2j)
    assert complex(body["re"], body["im"]) == pytest.approx(want, rel=1e-8)
    assert body["est_tail"] >= 0.0


def test_quantize_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "quantize", "--a", "1", "--b", "0",
                           "--s", "0", "--dim", "4", "--format", "csv")
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()]
    assert len(rows) == 4 and len(rows[0]) == 8
    assert float(rows[0][2]) == pytest.approx(1.0)  # sqrt(s+1) on the band


def test_verify_suite_exit_codes(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "ladder")
    assert code == 0
    body = json.loads(out)
    assert body["all_passed"] is True
    assert all(c["max_residual"] == 0.0 for c in body["checks"])
    assert "[pass]" in err


def test_verify_all_runs_clean_with_runtime_warnings_as_errors():
    # the pytest warning filter covers only in-process code; a fresh
    # interpreter checks the CLI path, vectorised logs of zeros included
    env = cli_env()
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hermquant.cli",
         "verify", "--suite", "all", "--seed", "5"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    body = json.loads(proc.stdout)
    assert body["n_checks"] == 150 and body["all_passed"] is True
    assert all(c["passed"] for c in body["checks"])
    # stderr holds the 150 verdict lines and nothing else
    assert proc.stderr == "".join(
        f"[pass] {c['name']} residual={c['max_residual']:.3e} "
        f"tol={c['tol']:.1e}\n" for c in body["checks"])


def test_verify_all_loads_no_process_pool_modules():
    # "all" runs its suites in this process, so neither the import nor the
    # run loads multiprocessing or concurrent.futures
    code = (
        "import os, sys, hermquant.cli as c\n"
        "def pool():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.partition('.')[0] in "
        "('multiprocessing', 'concurrent'))\n"
        "loaded = pool()\n"
        "rc = c.main(['verify', '--suite', 'all', '--out', os.devnull])\n"
        "print(rc, loaded, pool())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=cli_env(), timeout=300)
    assert proc.returncode == 0 and proc.stdout == "0 [] []\n", proc.stderr


def test_verify_all_starts_no_process_or_thread(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("verify --suite all started a process or thread")

    # os.fork and _posixsubprocess.fork_exec start every process that os,
    # subprocess and each multiprocessing start method makes
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(_posixsubprocess, "fork_exec", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "5")
    assert code == 0 and json.loads(out)["n_checks"] == 150


def _loaded_modules(code: str) -> set:
    """The numpy and hermquant modules a fresh interpreter holds after
    running code."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys; print(json.dumps("
         "[m for m in sys.modules "
         "if m.partition('.')[0] in ('numpy', 'hermquant')]))"],
        capture_output=True, text=True, env=cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_parser_loads_no_numpy_and_no_compute_module():
    got = _loaded_modules("import hermquant.cli as c; c.build_parser()")
    assert got == {"hermquant", "hermquant.cli", "hermquant.errors"}


@pytest.mark.parametrize("argv", [
    ("spectrum", "eigenvalues", "--s", "1", "--dim", "30"),
    ("spectrum", "measure", "--s", "1", "--dim", "30"),
    ("physics", "table", "--s-max", "2", "--dim", "10"),
    ("export", "--object", "operator", "--operator", "Aq2", "--dim", "10"),
    ("export", "--object", "kernel-grid", "--s", "3", "--grid-points", "3"),
    ("export", "--object", "lower-symbol-scan", "--operator", "AH",
     "--s", "1", "--grid-points", "3", "--dim", "64"),
], ids=["eigenvalues", "measure", "table", "operator", "kernel-grid",
        "lower-symbol-scan"])
def test_benchmark_commands_load_no_verify_or_ladder(argv):
    got = _loaded_modules("import hermquant.cli as c\n"
                          f"assert c.main({list(argv)!r}) == 0")
    assert "numpy" in got
    assert not got & {"hermquant.verify", "hermquant.ladder"}, sorted(got)


def test_suite_choices_are_the_verify_suites():
    from hermquant import verify

    assert SUITE_NAMES == tuple(verify.SUITES)


def test_verify_all_reraises_a_suite_error_as_the_serial_run_does(
        monkeypatch, capfd):
    from hermquant import verify

    def overflowing(seed=0):
        raise OverflowError("e^t exceeds the float range")

    monkeypatch.setitem(verify.SUITES, "quantize", overflowing)
    serial = main(["verify", "--suite", "quantize"]), capfd.readouterr()
    # capfd captures the file descriptors too, so nothing written below
    # sys.stdout and sys.stderr escapes the comparison
    together = main(["verify", "--suite", "all"]), capfd.readouterr()
    assert serial == together
    code, (out, err) = together
    assert code == 2 and out == ""
    assert err == "error: e^t exceeds the float range\n"


@pytest.mark.parametrize("name, position", [("basis", 0), ("physics", -1)])
def test_verify_all_lets_the_first_and_last_suite_errors_through(
        monkeypatch, name, position):
    from hermquant import verify

    class SuiteFault(Exception):
        pass

    def failing(seed=0):
        raise SuiteFault(f"{name} failed")

    assert list(verify.SUITES)[position] == name
    monkeypatch.setitem(verify.SUITES, name, failing)
    with pytest.raises(SuiteFault, match=f"^{name} failed$"):
        verify.run("all", seed=5)


def test_export_operator_matches_builder(tmp_path, capsys):
    out_file = tmp_path / "q.csv"
    code, _, _ = run_cli(capsys, "export", "--object", "operator",
                         "--operator", "Q", "--s", "2", "--dim", "10",
                         "--format", "csv", "--out", str(out_file))
    assert code == 0
    rows = [r.split(",") for r in out_file.read_text().strip().splitlines()]
    got = np.array([[complex(float(r[2 * j]), float(r[2 * j + 1]))
                     for j in range(10)] for r in rows])
    assert np.array_equal(got, build_Q(2, 10).entries)


def test_export_kernel_grid_matches_closed_form(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "export", "--object", "kernel-grid",
                         "--s", "1", "--zprime", "0.4+0.1i", "--extent", "2",
                         "--grid-points", "5", "--format", "csv",
                         "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 1 + 25
    for ln in lines[1:]:
        x, y, re, im = (float(v) for v in ln.split(","))
        want = kernel_s1_closed(complex(x, y), 0.4 + 0.1j)
        assert complex(re, im) == pytest.approx(want, rel=1e-8, abs=1e-8)


def test_physics_table_columns(capsys):
    code, out, _ = run_cli(capsys, "physics", "table", "--s-max", "2",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    head = lines[0].split(",")
    assert "ground_direct" in head and "physically_equivalent" in head
    assert len(lines) == 4
    first = dict(zip(head, lines[1].split(",")))
    assert first["physically_equivalent"] == "True"
    assert float(first["global_shift"]) == 0.5


def test_lower_symbol_scan_export(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, _, _ = run_cli(capsys, "export", "--object", "lower-symbol-scan",
                         "--operator", "AH", "--s", "0", "--dim", "60",
                         "--extent", "1.5", "--grid-points", "4",
                         "--format", "csv", "--out", str(out_file))
    assert code == 0
    for ln in out_file.read_text().strip().splitlines()[1:]:
        x, y, re, im = (float(v) for v in ln.split(","))
        assert re == pytest.approx(x * x + y * y + 1.0, abs=1e-9)
        assert abs(im) < 1e-12


@pytest.mark.parametrize("argv", [
    ("--object", "kernel-grid", "--s", "1", "--zprime", "0.4+0.1i"),
    ("--object", "lower-symbol-scan", "--operator", "Aq2", "--s", "2",
     "--dim", "40"),
], ids=["kernel-grid", "lower-symbol-scan"])
def test_grid_export_json_rows_equal_csv_rows(capsys, argv):
    grid = ("export",) + argv + ("--extent", "1.3", "--grid-points", "4")
    code, csv_text, _ = run_cli(capsys, *grid, "--format", "csv")
    assert code == 0
    code, json_text, _ = run_cli(capsys, *grid, "--format", "json")
    assert code == 0
    lines = csv_text.splitlines()
    rows = json.loads(json_text)["rows"]
    assert lines[0] == "x,y,re,im" and len(lines) == 1 + len(rows) == 17
    for ln, row in zip(lines[1:], rows):
        # repr tells -0.0 from 0.0
        assert ([repr(float(v)) for v in ln.split(",")]
                == [repr(row[k]) for k in ("x", "y", "re", "im")])


def test_lower_symbol_grid_exits_2_naming_its_worst_point(capsys):
    # |z| is largest at the corners; the first corner written, (-3, -3),
    # is named of the four that tie
    code, out, err = run_cli(capsys, "export", "--object",
                             "lower-symbol-scan", "--operator", "AH",
                             "--s", "1", "--dim", "8", "--extent", "3",
                             "--grid-points", "5", "--format", "csv")
    assert code == 2 and out == ""
    assert err.startswith("error: coherent-state tail: dim=8 captures ")
    assert err.endswith(" of the norm at z = (-3-3j)\n")


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmHWM from /proc/self/status")
def test_lower_symbol_scan_memory_stays_flat(tmp_path):
    # a 41 x 41 scan at --dim 64 computes one grid row at a time: the
    # process's peak resident set grows by at most 2 MB past its imports
    # (about 8 MB when the whole grid's coefficients are held at once)
    code = f"""
import numpy, hermquant.cli as cli, hermquant.quantize, hermquant.matrices

def peak_kb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])

before = peak_kb()
code = cli.main(["export", "--object", "lower-symbol-scan", "--operator",
                 "Aq2", "--s", "1", "--dim", "64", "--extent", "2",
                 "--grid-points", "41", "--format", "csv",
                 "--out", {str(tmp_path / "scan.csv")!r}])
print(code, peak_kb() - before)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    exit_code, grown_kb = map(int, proc.stdout.split())
    assert exit_code == 0
    assert len((tmp_path / "scan.csv").read_text().splitlines()) == 1 + 41 * 41
    assert grown_kb <= 2048, grown_kb


def test_byte_identical_reruns(capsys):
    args = ("spectrum", "measure", "--s", "1", "--dim", "12", "--format", "csv")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2

    args = ("verify", "--suite", "quantize", "--seed", "7")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_spectrum_eigenvalues_json(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "eigenvalues", "--s", "0",
                           "--dim", "2")
    assert code == 0
    ev = json.loads(out)["eigenvalues"]
    assert ev == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_physics_gamma_command(capsys):
    code, out, _ = run_cli(capsys, "physics", "gamma", "--omega", "3e15")
    assert code == 0
    assert json.loads(out)["re"] == pytest.approx(2.4151662513905914e-07)


def test_physics_hamiltonian_modes(capsys):
    code, out, _ = run_cli(capsys, "physics", "hamiltonian", "--s", "1",
                           "--mode", "dimensionless", "--dim", "6")
    assert code == 0
    rep = json.loads(out)
    assert rep["diagonal_regime"] is True
    assert rep["levels"] == pytest.approx(list(np.arange(6) + 3.0))

    code, out, _ = run_cli(capsys, "physics", "hamiltonian", "--s", "0",
                           "--mode", "si", "--length", "oscillator",
                           "--omega", "3e15", "--dim", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,energy,gap"
    hw = 1.054571817e-34 * 3e15
    gaps = [float(r.split(",")[2]) for r in lines[2:]]
    assert gaps == pytest.approx([hw] * len(gaps), rel=1e-11)

    code, out, _ = run_cli(capsys, "physics", "hamiltonian", "--s", "2",
                           "--mode", "si", "--length", "compton",
                           "--omega", "3e15", "--dim", "5")
    rep = json.loads(out)
    assert rep["compton_choice"] is True and rep["gamma"] > 0


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="needs the Linux per-thread /proc entries")
def test_import_starts_no_blas_threads():
    # numpy loads after the package __init__, as in every command that runs
    code = ("import os, hermquant.cli, numpy; "
            "print(len(os.listdir('/proc/self/task')), "
            "os.environ['OPENBLAS_NUM_THREADS'])")
    env = cli_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "1 1\n", proc.stderr
    # a value set by the caller wins
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=cli_env(OPENBLAS_NUM_THREADS="2"),
                          timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.split()[1] == "2", proc.stderr


def _process_and_main_bytes(args, tmp_path, capsys) -> list:
    """The bytes a `python -m hermquant.cli` process writes to stdout under
    one and two BLAS threads, the second through --out, and those in-process
    main writes to stdout and to --out."""
    outs = []
    for n in ("1", "2"):
        out = ["--out", str(tmp_path / "process.txt")] if n == "2" else []
        proc = subprocess.run(
            [sys.executable, "-m", "hermquant.cli", *args, *out],
            capture_output=True, timeout=120,
            env=cli_env(OPENBLAS_NUM_THREADS=n))
        assert (proc.returncode, proc.stderr) == (0, b"")
        outs.append(proc.stdout)
    assert outs[1] == b""
    outs[1] = (tmp_path / "process.txt").read_bytes()
    code, text, _ = run_cli(capsys, *args)
    assert code == 0
    outs.append(text.encode())
    assert main([*args, "--out", str(tmp_path / "main.txt")]) == 0
    outs.append((tmp_path / "main.txt").read_bytes())
    return outs


def test_spectrum_table_bytes_do_not_depend_on_blas_threads(tmp_path, capsys):
    # nor on the process entry: `python -m hermquant.cli` writes, to stdout
    # and to --out, the bytes in-process main writes
    outs = _process_and_main_bytes(
        ["physics", "table", "--s-max", "4", "--dim", "200"], tmp_path, capsys)
    assert outs[0] and outs.count(outs[0]) == 4


def test_spectrum_eigenvalue_bytes_do_not_depend_on_blas_threads(tmp_path,
                                                                 capsys):
    # the LAPACK estimates only place the starting brackets; Sturm counts
    # set the printed digits
    outs = _process_and_main_bytes(
        ["spectrum", "eigenvalues", "--s", "1", "--dim", "300"], tmp_path,
        capsys)
    assert outs[0] and outs.count(outs[0]) == 4


@pytest.mark.parametrize("argv, code, first", [
    (["spectrum", "eigenvalues", "--s", "0", "--dim", "0"], 2,
     "error: --dim 0: must be positive"),
    (["spectrum", "eigenvalues", "--s", "0", "--bogus", "1"], 2,
     "usage: hermquant "),
    (["export", "--object", "operator", "--operator", "Q", "--dim", "3",
      "--out", "/nonexistent/dir/x.csv"], 3, "i/o error: "),
], ids=["domain-error", "usage-error", "unwritable-out"])
def test_process_entry_exit_codes(capsys, argv, code, first):
    # a process exits with the code in-process main returns (or argparse
    # raises), writes nothing to stdout and the same stderr
    proc = subprocess.run([sys.executable, "-m", "hermquant.cli", *argv],
                          capture_output=True, text=True, env=cli_env(),
                          timeout=60)
    try:
        got = run_cli(capsys, *argv)
    except SystemExit as exc:
        got = (exc.code, *capsys.readouterr())
    assert (proc.returncode, proc.stdout, proc.stderr) == got
    assert got[0] == code and got[2].startswith(first)
    if code != 2 or first.startswith("error"):
        assert got[2].count("\n") == 1
    else:
        assert got[2].endswith("error: unrecognized arguments: --bogus 1\n")


def test_console_script_and_module_share_the_process_entry():
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert meta["project"]["scripts"] == {"hermquant": "hermquant.cli:run"}
    tree = ast.parse((ROOT / "src" / "hermquant" / "cli.py").read_text())
    guard = [node for node in tree.body if isinstance(node, ast.If)
             and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for g in guard for stmt in g.body] == ["run()"]
    # run() freezes the heap only after main returns; atexit handlers still
    # run afterwards, and the exit code is main's
    code = ("import atexit, gc, sys, hermquant.cli as c\n"
            "atexit.register(lambda: print('atexit', gc.get_freeze_count() > 0,"
            " file=sys.stderr))\n"
            "sys.argv = ['hermquant', 'spectrum', 'eigenvalues', '--s', '0',"
            " '--dim', '0']\n"
            "c.run()\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=cli_env(), timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: --dim 0: must be positive\natexit True\n"


# the options of every leaf command, each read by its handler
LEAF_OPTIONS = {
    "poly hermite": {"--r", "--s", "--z", "--format", "--out"},
    "poly assoc-hermite": {"--n", "--s", "--format", "--out"},
    "basis phi": {"--epsilon", "--n", "--s", "--z", "--format", "--out"},
    "basis normalization": {"--s", "--t", "--format", "--out"},
    "kernel": {"--s", "--z", "--zprime", "--format", "--out", "--tol"},
    "quantize": {"--a", "--b", "--s", "--epsilon", "--method", "--format",
                 "--out", "--dim"},
    "spectrum eigenvalues": {"--s", "--format", "--out", "--dim"},
    "spectrum measure": {"--s", "--format", "--out", "--dim"},
    "physics gamma": {"--mass", "--omega", "--format", "--out"},
    "physics hamiltonian": {"--s", "--mode", "--length", "--mass", "--omega",
                            "--format", "--out", "--dim"},
    "physics table": {"--s-max", "--format", "--out", "--dim"},
    "verify": {"--suite", "--out", "--seed"},
    "export": {"--object", "--operator", "--epsilon", "--s", "--zprime",
               "--extent", "--grid-points", "--format", "--out", "--tol",
               "--dim"},
}


def _leaf_parsers(parser, path=()):
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaf_parsers(child, path + (name,))


def test_each_command_takes_only_the_options_it_reads():
    got = {path: {a.option_strings[0] for a in p._actions
                  if not isinstance(a, argparse._HelpAction)}
           for path, p in _leaf_parsers(build_parser())}
    assert got == LEAF_OPTIONS
    # 103 options before each command was cut down to what it reads
    assert sum(map(len, got.values())) == 71
    assert sum(map(len, REMOVED_OPTIONS.values())) == 103 - 71


# a valid invocation of each leaf command and the options it no longer takes
REMOVED_OPTIONS = {
    ("poly", "hermite", "--r", "1", "--s", "0", "--z", "1"):
        ("--tol", "--dim", "--seed"),
    ("poly", "assoc-hermite", "--n", "1", "--s", "0"):
        ("--tol", "--dim", "--seed"),
    ("basis", "phi", "--n", "1", "--s", "0", "--z", "1"):
        ("--tol", "--dim", "--seed"),
    ("basis", "normalization", "--s", "0", "--t", "1"):
        ("--tol", "--dim", "--seed"),
    ("kernel", "--s", "0", "--z", "1", "--zprime", "1"): ("--dim", "--seed"),
    ("quantize", "--a", "1", "--b", "0", "--s", "0", "--dim", "2"):
        ("--tol", "--seed"),
    ("spectrum", "eigenvalues", "--s", "0", "--dim", "2"): ("--tol", "--seed"),
    ("spectrum", "measure", "--s", "0", "--dim", "2"): ("--tol", "--seed"),
    ("physics", "gamma", "--omega", "3e15"): ("--tol", "--dim", "--seed"),
    ("physics", "hamiltonian", "--dim", "3"): ("--tol", "--seed"),
    ("physics", "table", "--s-max", "0", "--dim", "2"): ("--tol", "--seed"),
    ("verify", "--suite", "ladder"): ("--format", "--tol", "--dim"),
    ("export", "--object", "operator", "--dim", "2"): ("--seed", "--s-max"),
}
REMOVED_CASES = [(base, flag) for base, flags in REMOVED_OPTIONS.items()
                 for flag in flags]


@pytest.mark.parametrize("base, flag", REMOVED_CASES, ids=[
    " ".join([w for w in base[:2] if not w.startswith("-")] + [flag])
    for base, flag in REMOVED_CASES])
def test_removed_option_is_a_usage_error(capsys, base, flag):
    code, _, _ = run_cli(capsys, *base)
    assert code == 0
    value = "csv" if flag == "--format" else "3"
    with pytest.raises(SystemExit) as exc:
        main(list(base) + [flag, value])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: hermquant")
    assert f"error: unrecognized arguments: {flag} {value}\n" in err
    assert "Traceback" not in err


# every leaf command, every export object and every operator name once, so
# that a handler which lost an import fails here and not in a user's run
HANDLER_RUNS = [
    ("poly", "hermite", "--r", "2", "--s", "1", "--z", "1+1i"),
    ("poly", "assoc-hermite", "--n", "2", "--s", "1"),
    ("basis", "phi", "--n", "1", "--s", "1", "--z", "0.5+0.1i"),
    ("basis", "normalization", "--s", "1", "--t", "0.5"),
    ("kernel", "--s", "1", "--z", "0.5", "--zprime", "0.1i"),
    ("quantize", "--a", "1", "--b", "1", "--s", "1", "--dim", "3"),
    ("quantize", "--a", "1", "--b", "1", "--s", "1", "--dim", "3",
     "--method", "numeric"),
    ("spectrum", "eigenvalues", "--s", "1", "--dim", "3"),
    ("spectrum", "measure", "--s", "1", "--dim", "3"),
    ("physics", "gamma", "--omega", "3e15"),
    ("physics", "hamiltonian", "--dim", "3"),
    ("physics", "hamiltonian", "--mode", "dimensionless", "--dim", "3"),
    ("physics", "table", "--s-max", "1", "--dim", "3"),
    ("verify", "--suite", "nlpb"),
    ("export", "--object", "kernel-grid", "--s", "1", "--grid-points", "2"),
    ("export", "--object", "lower-symbol-scan", "--operator", "Hhat",
     "--s", "1", "--extent", "0.5", "--grid-points", "2", "--dim", "20"),
] + [("export", "--object", "operator", "--operator", name, "--s", "1",
      "--dim", "3") for name in _BUILDERS]


def _leaf(argv) -> str:
    return " ".join(w for w in argv[:2] if not w.startswith("-"))


def test_handler_runs_cover_every_path():
    assert {_leaf(a) for a in HANDLER_RUNS} == set(LEAF_OPTIONS)
    export = dict(_leaf_parsers(build_parser()))["export"]
    objects = next(a.choices for a in export._actions if a.dest == "object")
    assert {a[2] for a in HANDLER_RUNS if a[0] == "export"} == set(objects)


@pytest.mark.parametrize("argv", HANDLER_RUNS,
                         ids=[" ".join(a) for a in HANDLER_RUNS])
def test_every_handler_path_runs(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out


def test_spectrum_table_is_no_export_object(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", "--object", "spectrum-table"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "invalid choice: 'spectrum-table'" in err


def _benchmark_ops(monkeypatch) -> list:
    """One round of each benchmark workload, drawn with seed 1."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return [op for make in workloads.WORKLOADS.values()
            for op in make(random.Random(1))]


def test_parser_accepts_every_benchmark_invocation(monkeypatch):
    # the benchmark runs these argument lists through the CLI; a change of
    # options that breaks one of them must fail here first
    parser = build_parser()
    ops = _benchmark_ops(monkeypatch)
    assert {op.argv[0] for op in ops} == {"verify", "export", "spectrum",
                                          "physics"}
    for op in ops:
        parser.parse_args(op.argv)


def test_benchmark_export_invocations_run_at_small_sizes(monkeypatch,
                                                        capsys):
    # each export object rejects the options it does not read, so every
    # export argument shape of the benchmark must still exit 0; the grids
    # and operators are cut down, the lower symbol keeps the --dim its
    # coherent states need
    ops = [op for op in _benchmark_ops(monkeypatch) if op.argv[0] == "export"]
    assert {op.argv[2] for op in ops} == set(_EXPORT_OPTIONS)
    for op in ops:
        argv = list(op.argv)
        for flag in ("--grid-points", "--dim"):
            if flag in argv and (flag == "--grid-points"
                                 or argv[2] == "operator"):
                argv[argv.index(flag) + 1] = "3"
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        assert out and not err


def _readme_cli_examples() -> list:
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```\n")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("hermquant ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    examples = _readme_cli_examples()
    assert len(examples) >= 15
    assert any("--out" in argv for argv in examples)
    # the relative --out paths land in tmp_path
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


# bounds that keep every fuzzed case fast; the sector and degree options
# range over -2..14, and verify runs only its quickest suites
_FUZZ_INTS = {"--dim": (-2, 24), "--grid-points": (-1, 5)}
_FUZZ_SUITES = ("ladder", "nlpb", "physics")


def _fuzz_value(action) -> st.SearchStrategy:
    """Command-line text for one option: in range, out of range, NaN,
    infinite or unparsable."""
    flag = action.option_strings[0]
    if flag == "--suite":
        return st.sampled_from(_FUZZ_SUITES)
    if action.choices is not None:
        return st.sampled_from([*action.choices, "X"])
    if action.type is int:
        return st.integers(*_FUZZ_INTS.get(flag, (-2, 14))).map(str)
    if action.type is float:
        return st.floats().map(repr)
    if flag == "--out":
        return st.just(str(ROOT / "no-such-directory" / "out"))
    if flag == "--operator":
        return st.sampled_from([*_BUILDERS, "X"])
    # --z and --zprime: a complex literal from any two floats, or text
    return st.builds("{!r}{:+}i".format, st.floats(), st.floats()) | st.text(
        max_size=6)


def _fuzz_argv(leaf: str, data) -> list:
    parser = dict(_leaf_parsers(build_parser()))[leaf]
    argv = leaf.split()
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        value = _fuzz_value(action)
        # an omitted --suite would run them all
        text = data.draw(value if action.required or action.dest == "suite"
                         else st.none() | value)
        if text is not None:
            # the = form keeps a value that starts with "-" a value
            argv.append(f"{action.option_strings[0]}={text}")
    return argv


@pytest.mark.parametrize("leaf", sorted(LEAF_OPTIONS))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_options_keep_the_exit_code_contract(leaf, data):
    argv = _fuzz_argv(leaf, data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    # 1 means "verification failed", which only verify reports
    assert code != 1 or leaf == "verify", argv
