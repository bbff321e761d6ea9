import json

import pytest

from hermquant import verify


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        verify.run("nope")


def test_all_suites_pass_in_fixed_order():
    checks = verify.run("all", seed=99)
    assert checks and all(c.passed for c in checks)
    # the suites run in the order of SUITES, the same on every run
    again = [c.name for c in verify.run("all", seed=99)]
    assert [c.name for c in checks] == again


def test_report_json_schema():
    checks = verify.run("ladder")
    payload = json.loads(verify.report_json(checks, "ladder"))
    assert payload["suite"] == "ladder"
    assert payload["n_checks"] == len(checks)
    assert payload["all_passed"] is True
    for c in payload["checks"]:
        assert set(c) == {"name", "n_checked", "max_residual", "tol",
                          "passed", "witness"}
