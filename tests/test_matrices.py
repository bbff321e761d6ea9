import json
import math
from fractions import Fraction

import numpy as np
import pytest

from hermquant import matrices
from hermquant.exact import (Surd, exact_matmul, exact_max_abs, exact_sub,
                             to_complex_array)
from hermquant.ladder import ladder_apply, left
from hermquant.matrices import (TruncatedOperator, band_matvec, build_A_z,
                                build_A_zbar, build_AH, build_Ap2, build_Aq2,
                                build_Hhat,
                                build_P, build_Q, eps_sign, operator_csv_rows,
                                operator_json_obj, verify_almost_canonical,
                                verify_square_identities,
                                verify_weyl_commutator)


def test_annihilator_superdiagonal_s0():
    op = build_A_z(0, 5, "L")
    assert np.allclose(np.diag(op.entries, 1), np.sqrt([1, 2, 3, 4]))
    assert set(op.bands) == {1}


def test_annihilator_superdiagonal_s2():
    op = build_A_z(2, 6, "L")
    assert np.allclose(np.diag(op.entries, 1), np.sqrt([3, 4, 5, 6, 7]))


def test_right_sector_is_transpose_pattern():
    l = build_A_z(1, 6, "L")
    r = build_A_z(1, 6, "R")
    assert np.allclose(r.entries, l.entries.T)


def test_adjoint_pairs_are_exact_conjugate_transposes():
    for build in (build_A_z, build_P, build_Q):
        op = build(2, 7, "L")
        adj = op.adjoint()
        assert np.array_equal(adj.entries, op.entries.conj().T)
    zbar = build_A_zbar(2, 7, "L")
    assert np.array_equal(zbar.entries, build_A_z(2, 7, "L").entries.conj().T)


def test_position_top_corner_and_hermiticity():
    for s in range(4):
        q = build_Q(s, 6)
        assert q.entries[0, 0] == 0
        assert q.entries[0, 1] == pytest.approx(math.sqrt((s + 1) / 2))
        assert np.array_equal(q.entries, q.entries.conj().T)
        p = build_P(s, 6, "L")
        assert np.array_equal(p.entries, p.entries.conj().T)
        assert np.allclose(p.entries.real, 0.0)


def test_projected_ladder_matches_matrix_builders():
    # restriction of the abstract lowering operator to one sector equals the
    # built matrix on the common block
    for s in (0, 2):
        N = 7
        m = np.zeros((N, N), complex)
        for n in range(N):
            for idx, c in ladder_apply("AL", left(n, s)).items():
                if idx.kind in ("L", "G") and idx.s == s and idx.n < N:
                    m[idx.n, n] = complex(c)
        assert np.allclose(m, build_A_z(s, N, "L").entries)


@pytest.mark.parametrize("epsilon", ["L", "R"])
@pytest.mark.parametrize("s", range(7))
def test_weyl_commutator_exact(epsilon, s):
    check = verify_weyl_commutator(s, 10, epsilon)
    assert check.passed and check.max_residual == 0.0


@pytest.mark.parametrize("epsilon", ["L", "R"])
@pytest.mark.parametrize("s", range(7))
def test_almost_canonical_commutator_exact(epsilon, s):
    check = verify_almost_canonical(s, 10, epsilon)
    assert check.passed and check.max_residual == 0.0


@pytest.mark.parametrize("epsilon", ["L", "R"])
def test_exact_identities_at_large_dimension(epsilon):
    N = 1000
    checks = [verify_weyl_commutator(3, N, epsilon),
              verify_almost_canonical(3, N, epsilon)]
    if epsilon == "L":
        checks += verify_square_identities(3, N)
    for check in checks:
        assert check.passed and check.max_residual == 0.0, check


def test_exact_identities_at_ten_thousand():
    s, N = 2, 10**4
    checks = [verify_weyl_commutator(s, N, "L"),
              verify_almost_canonical(s, N, "L"),
              *verify_square_identities(s, N)]
    assert len(checks) == 7
    for check in checks:
        assert check.passed and check.max_residual == 0.0, check


def test_perturbed_jacobi_weight_fails_the_commutator(monkeypatch):
    s = 2
    weights = matrices._jacobi_weights

    def perturbed(s, N):
        # c_4 = sqrt((4 + s)/2) off by 1/1000, in Q and in P
        w = weights(s, N)
        w[3] = w[3] + Surd(Fraction(2, 1000))
        return w

    monkeypatch.setattr(matrices, "_jacobi_weights", perturbed)
    for epsilon in ("L", "R"):
        check = verify_almost_canonical(s, 10, epsilon)
        assert check.name == f"matrices.commutator_Q_P.{epsilon}.s{s}"
        assert not check.passed and check.max_residual > 1e-3


def test_band_products_match_dense_products(rng):
    q, p = build_Q(2, 9), build_P(2, 9, "R")
    qp = TruncatedOperator.from_exact(exact_matmul(q.exact, p.exact), 9,
                                      (-2, 2), scale=4)
    assert np.allclose(qp.entries, q.entries @ p.entries, atol=1e-13)
    c = rng.normal(size=9) + 1j * rng.normal(size=9)
    for op in (q, p, build_Aq2(1, 9), build_A_zbar(0, 9, "L")):
        assert np.allclose(band_matvec(op.bands, c), op.entries @ c,
                           atol=1e-13)


def test_commutator_float_matches_shifted_identity():
    s, N = 3, 8
    q = build_Q(s, N + 2).entries
    p = build_P(s, N + 2, "L").entries
    comm = (q @ p - p @ q)[:N, :N]
    want = 1j * np.eye(N)
    want[0, 0] += 1j * s
    assert np.allclose(comm, want, atol=1e-13)


@pytest.mark.parametrize("s", range(7))
def test_square_identities_exact(s):
    for check in verify_square_identities(s, 12):
        assert check.passed and check.max_residual == 0.0, check


JACOBI_BUILDERS = (build_Q, build_P, build_Aq2, build_Ap2, build_AH,
                   build_Hhat)


@pytest.mark.parametrize("build", JACOBI_BUILDERS)
def test_jacobi_operators_hold_integer_coefficients_at_twice_their_value(
        build):
    for s in range(4):
        for eps in ("L", "R"):
            op = build(s, 9, eps)
            assert op.exact_scale == 2 and op.adjoint().exact_scale == 2
            for k, d in op.exact.items():
                assert all(type(q) is int for x in d
                           for pair in x.terms.values() for q in pair)
                # each float is the exact half, bit for bit
                halves = np.array([complex(x) for x in d]) / 2
                assert np.array_equal(op.bands[k], halves)
                assert np.array_equal(np.signbit(op.bands[k].view(float)),
                                      np.signbit(halves.view(float)))


def test_jacobi_floats_round_the_rational_weights():
    # sqrt((k+s)/2) rounded from its exact value with the 1/2 kept as a
    # Fraction, as the weights were built before they were doubled
    for s in range(4):
        q, p = build_Q(s, 40), build_P(s, 40, "R")
        want = [complex(Surd.sqrt(Fraction(k + s, 2))).real
                for k in range(1, 40)]
        assert q.bands[1].real.tolist() == want
        assert p.bands[1].imag.tolist() == want
        assert q.exact[1] == [Surd.sqrt(2 * (k + s)) for k in range(1, 40)]


def test_AH_spectrum_is_shifted_integers():
    op = build_AH(3, 6)
    assert np.array_equal(np.diag(op.entries).real, np.arange(6) + 7)
    assert exact_max_abs(exact_sub(op.exact, op.exact)) == 0.0


def test_Hhat_levels_and_gaps():
    for s in range(5):
        hh = np.diag(build_Hhat(s, 6).entries).real
        assert hh[0] == (s + 1) / 2
        assert hh[1] - hh[0] == s / 2 + 1
        assert np.allclose(np.diff(hh[1:]), 1.0)


def test_shift_between_direct_and_substituted():
    for s in range(5):
        d = np.diag(build_AH(s, 8).entries).real - np.diag(build_Hhat(s, 8).entries).real
        assert d[0] == pytest.approx(s + 0.5 + s / 2)
        assert np.allclose(d[1:], s + 0.5)


def test_mirror_symmetry_of_built_matrices():
    for s in range(4):
        assert np.array_equal(build_Q(s, 6, "R").entries, build_Q(s, 6, "L").entries)
        assert np.array_equal(build_P(s, 6, "R").entries,
                              np.conj(build_P(s, 6, "L").entries))
        assert np.array_equal(build_A_z(s, 6, "R").entries,
                              np.conj(build_A_zbar(s, 6, "L").entries))


def test_commutator_sign_reverses_under_mirror():
    s, N = 2, 6
    def comm(eps):
        q = build_Q(s, N + 2, eps).entries
        p = build_P(s, N + 2, eps).entries
        return (q @ p - p @ q)[:N, :N]
    assert np.allclose(comm("R"), -comm("L"))


def test_eps_sign_convention():
    assert eps_sign("L") == -1 and eps_sign("R") == 1
    with pytest.raises(ValueError):
        eps_sign("X")


def test_band_metadata_and_violation():
    op = build_Aq2(1, 8)
    assert (op.band_low, op.band_high) == (-2, 2)
    # nothing outside the declared band
    assert not np.triu(op.entries, 3).any()
    assert not np.tril(op.entries, -3).any()


def test_csv_and_json_export_round_trip():
    op = build_P(1, 3, "L")
    rows = operator_csv_rows(op)
    assert len(rows) == 3 and len(rows[0]) == 6
    rebuilt = np.array([[complex(float(r[2 * j]), float(r[2 * j + 1]))
                         for j in range(3)] for r in rows])
    assert np.array_equal(rebuilt, op.entries)
    obj = operator_json_obj(op)
    assert obj["dim"] == 3 and obj["band_low"] == -1
    assert obj["entries"][0][1]["im"] == op.entries[0, 1].imag
    json.dumps(obj)  # serializable


def test_truncated_operator_validation():
    with pytest.raises(ValueError):
        TruncatedOperator(3, {1: np.ones(3)}, 1, 1)  # offset 1 holds 2
    op = build_Q(0, 4)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0  # frozen storage


@pytest.mark.parametrize("dim", [1, 2, 5, 9])
def test_to_complex_array_places_every_band(dim):
    rng = np.random.default_rng(dim)
    bands = {k: rng.standard_normal(dim - abs(k))
             + 1j * rng.standard_normal(dim - abs(k))
             for k in range(1 - dim, dim) if k % 3 != 1}
    want = np.full((dim, dim), -0j)
    for k, d in bands.items():
        for t, x in enumerate(d):
            want[t + max(0, -k), t + max(0, k)] = x
    got = to_complex_array(bands, dim, -0j)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
