import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hermquant.basis import kernel_s1_closed
from hermquant.cli import main, parse_complex
from hermquant.matrices import build_Q


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


@pytest.mark.parametrize("argv", [
    ("poly", "hermite", "--r", "-1", "--s", "0", "--z", "1"),
    ("basis", "normalization", "--s", "1", "--t", "800"),
    ("poly", "hermite", "--r", "400", "--s", "400", "--z", "1+1i"),
], ids=["negative-degree", "normalization-overflow", "hermite-overflow"])
def test_domain_error_exit_code(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_export_spectrum_table_columns(capsys):
    code, out, _ = run_cli(capsys, "export", "--object", "spectrum-table",
                           "--s-max", "2", "--format", "csv")
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
