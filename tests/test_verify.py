import importlib
import importlib.util
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


def _traced_functions() -> set:
    """module.function of every three-part per-layer name in BENCHMARK.json
    whose module perfbench/trace_cli.py wraps."""
    spec = importlib.util.spec_from_file_location(
        "trace_cli", BENCH_DIR / "trace_cli.py")
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parts = [m["name"].split(".") for m in bench["per_layer"]]
    return {f"{p[0]}.{p[1]}" for p in parts
            if len(p) == 3 and p[0] in trace_cli.MODULES}


# the names the benchmark calls directly
CALLED = ["specfun.laguerre", "quadrature.gauss_laguerre_rule",
          "tridiag.eigenvalues", "tridiag.golub_welsch",
          "spectral.eigenvalues", "matrices.build_Q",
          "quantize.quantize_numeric", "quantize.Monomial", "basis.kernel",
          "verify.SUITES", "cli.build_parser", "cli.main"]
TRACED = _traced_functions()


@pytest.mark.parametrize("attr", CALLED + sorted(TRACED - set(CALLED)))
def test_benchmark_names_exist(attr):
    module, name = attr.split(".")
    mod = importlib.import_module(f"hermquant.{module}")
    assert hasattr(mod, name)
    if attr in TRACED:
        # the tracer wraps only the public functions a module defines, and
        # a per-layer figure of any other name is never produced
        obj = getattr(mod, name)
        assert not name.startswith("_") and callable(obj)
        assert not isinstance(obj, type) and obj.__module__ == mod.__name__


def test_carleman_verdict_fails_for_a_bounded_series(monkeypatch):
    from hermquant import spectral

    def bounded(s, n_terms):
        return math.fsum((s + k) ** -2.0 for k in range(1, n_terms + 1))

    monkeypatch.setattr(spectral, "carleman_partial_sum", bounded)
    check = {c.name: c for c in verify.suite_spectral()}[
        "spectral.carleman_sums_diverge"]
    assert not check.passed and check.max_residual > 0.9


def test_band_rule_fails_for_a_wrong_declared_band(monkeypatch):
    from hermquant import quantize

    name = "quantize.band_rule_and_adjoint_covariance"
    offset = quantize._band_offset
    monkeypatch.setattr(quantize, "_band_offset",
                        lambda a, b, eps: offset(a, b, eps) + 1)
    check = {c.name: c for c in verify.suite_quantize()}[name]
    assert not check.passed and check.max_residual > 0.1
