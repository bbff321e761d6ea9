"""Byte-for-byte guard on operator exports, closed-form quantizations and the
spectrum table.

tests/data/golden_sha256.json holds the sha256 of the stdout of each CLI
invocation below.  Rewrite it only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hermquant import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_sha256.json"
OPERATORS = ("Q", "P", "Az", "Azbar", "Aq2", "Ap2", "AH", "Hhat")
FORMATS = ("csv", "json")


def operator_argvs(name: str, fmt: str) -> list:
    return [["export", "--object", "operator", "--operator", name,
             "--epsilon", eps, "--s", str(s), "--dim", str(dim),
             "--format", fmt]
            for eps in ("L", "R") for s in (0, 2) for dim in (1, 2, 7, 60)]


def quantize_argvs() -> list:
    return [["quantize", "--method", "closed", "--a", str(a), "--b", str(b),
             "--s", str(s), "--epsilon", eps, "--dim", "12",
             "--format", "csv"]
            for s in (0, 2, 5) for eps in ("L", "R")
            for a in range(5) for b in range(5 - a)]


def table_argv(dim: int) -> list:
    return ["physics", "table", "--s-max", "4", "--dim", str(dim),
            "--format", "csv"]


def all_argvs() -> list:
    out = [a for name in OPERATORS for fmt in FORMATS
           for a in operator_argvs(name, fmt)]
    return out + quantize_argvs() + [table_argv(8), table_argv(200)]


def stdout_sha256(argv: list) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _mismatches(argvs: list) -> list:
    want = _golden()
    return [" ".join(a) for a in argvs
            if stdout_sha256(a) != want[" ".join(a)]]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", OPERATORS)
def test_operator_export_bytes(name, fmt):
    assert _mismatches(operator_argvs(name, fmt)) == []


def test_closed_form_quantization_bytes():
    assert _mismatches(quantize_argvs()) == []


@pytest.mark.parametrize("dim", [8, 200])
def test_spectrum_table_bytes(dim):
    assert _mismatches([table_argv(dim)]) == []


def test_a_float_band_left_at_twice_its_value_fails(monkeypatch):
    from hermquant.matrices import TruncatedOperator

    # the floats rounded from the exact bands of the Jacobi operators, which
    # hold twice each value, and not halved
    from_exact = TruncatedOperator.from_exact.__func__
    monkeypatch.setattr(TruncatedOperator, "from_exact", classmethod(
        lambda cls, exact, N, band, sector=None, scale=1: from_exact(
            cls, exact, N, band, sector, 1 if scale == 2 else scale)))
    doubled = ("Q", "P", "Aq2", "Ap2", "AH", "Hhat")
    for name in OPERATORS:
        argvs = [a for fmt in FORMATS for a in operator_argvs(name, fmt)
                 if a[a.index("--dim") + 1] in ("1", "7")]
        missed = _mismatches(argvs)
        if name not in doubled:
            assert missed == [], name
        else:
            # only the zero 1 x 1 sections of Q and P keep their bytes
            assert len(missed) == len(argvs) - 8 * (name in ("Q", "P")), name
    assert _mismatches([table_argv(8)]) != []


def test_golden_covers_every_invocation():
    assert sorted(_golden()) == sorted(" ".join(a) for a in all_argvs())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {" ".join(a): stdout_sha256(a) for a in all_argvs()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
