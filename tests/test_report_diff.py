import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", SCRIPT)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def _check(name, residual, tol=1e-10, passed=True):
    return {"name": name, "max_residual": residual, "tol": tol,
            "passed": passed}


def _report(*checks):
    return {"checks": list(checks)}


def test_identical_reports_differ_in_nothing():
    rep = _report(_check("a", 1e-12), _check("b", 0.0, 0.0))
    assert report_diff.diff_reports(rep, rep) == []


def test_lists_names_verdicts_tolerances_and_residual_moves():
    old = _report(_check("gone", 0.0), _check("tight", 3e-12, 1e-12, False),
                  _check("zeroed", 2e-11, 1e-3), _check("steady", 1e-12),
                  _check("doubled", 1e-12), _check("tripled", 1e-12))
    new = _report(_check("tight", 3e-12, 1e-11), _check("zeroed", 0.0, 0.0),
                  _check("steady", 1.9e-12), _check("doubled", 2e-12),
                  _check("tripled", 3e-12), _check("fresh", 0.0))
    assert report_diff.diff_reports(old, new) == [
        "removed: gone",
        "added: fresh",
        "verdict: tight FAIL -> pass",
        "tol: tight 1e-12 -> 1e-11",
        "tol: zeroed 0.001 -> 0",
        "residual: zeroed 2e-11 -> 0",
        "residual: tripled 1e-12 -> 3e-12",
    ]


def test_a_nan_residual_counts_as_moved():
    nan = _report(_check("x", math.nan, passed=False))
    assert report_diff.diff_reports(nan, nan) == []
    assert report_diff.diff_reports(_report(_check("x", 1e-12)), nan) == [
        "verdict: x pass -> FAIL", "residual: x 1e-12 -> nan"]


def test_repeated_names_compare_occurrence_by_occurrence():
    old = _report(_check("dual", 0.0), _check("dual", 0.0), _check("one", 0.0))
    new = _report(_check("dual", 0.0), _check("dual", 1.0, passed=False))
    assert report_diff.diff_reports(old, new) == [
        "removed: one", "verdict: dual[1] pass -> FAIL",
        "residual: dual[1] 0 -> 1"]


def test_command_line_exit_status(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(_report(_check("a", 1e-12))))
    new.write_text(json.dumps(_report(_check("a", 1e-12, 0.0, False))))

    def run(*args):
        return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                              capture_output=True, text=True)

    same, moved, usage = run(old, old), run(old, new), run(old)
    assert (same.returncode, same.stdout) == (0, "")
    assert moved.returncode == 1
    assert moved.stdout.splitlines() == ["verdict: a pass -> FAIL",
                                         "tol: a 1e-10 -> 0"]
    assert usage.returncode == 2 and "OLD NEW" in usage.stderr
