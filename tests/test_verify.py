import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hermquant import verify
from hermquant.report import CheckResult

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        verify.run("nope")


def test_all_suites_pass_in_fixed_order():
    checks = verify.run("all", seed=99)
    assert checks and all(c.passed for c in checks)
    # the suites run in the order of SUITES, the same on every run
    again = [c.name for c in verify.run("all", seed=99)]
    assert [c.name for c in checks] == again
    # the benchmark checks each verify report against this list
    want = (BENCH_DIR / "verify_check_names.txt").read_text().split()
    assert sorted(again) == want


def test_report_json_schema():
    checks = verify.run("ladder")
    payload = json.loads(verify.report_json(checks, "ladder"))
    assert payload["suite"] == "ladder"
    assert payload["n_checks"] == len(checks)
    assert payload["all_passed"] is True
    for c in payload["checks"]:
        assert set(c) == {"name", "n_checked", "max_residual", "tol",
                          "passed", "witness"}


def test_check_fails_above_tol_and_keeps_witness():
    c = CheckResult("x", 2e-9, 1e-9, 3, "s=1")
    assert c.passed is False and c.witness == "s=1"


def test_check_passes_at_tol_and_drops_witness():
    for res in (0.0, 1e-9):
        c = CheckResult("x", res, 1e-9, 3, "s=1")
        assert c.passed is True and c.witness is None


def test_nan_residual_fails():
    c = CheckResult("x", math.nan, 1.0, 1, "nan")
    assert c.passed is False and c.witness == "nan"


def test_to_dict_passed_is_python_bool():
    d = CheckResult("x", np.float64(0.5), 1.0, np.int64(2)).to_dict()
    assert type(d["passed"]) is bool and d["passed"] is True
    assert type(d["max_residual"]) is float and type(d["n_checked"]) is int


@pytest.mark.parametrize("attr", [
    "specfun.laguerre", "quadrature.gauss_laguerre_rule", "tridiag.eigenvalues",
    "tridiag.golub_welsch", "spectral.eigenvalues", "matrices.build_Q",
    "quantize.quantize_numeric", "quantize.Monomial", "basis.kernel",
    "verify.SUITES", "cli.build_parser", "cli.main",
])
def test_benchmark_names_exist(attr):
    module, name = attr.split(".")
    assert hasattr(importlib.import_module(f"hermquant.{module}"), name)
