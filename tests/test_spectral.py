import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from hermquant.spectral import (DiscreteMeasure, JacobiMatrix, PolyExact,
                                assoc_hermite, assoc_hermite_laguerre_check,
                                assoc_laguerre_coeffs, carleman_partial_sum,
                                char_poly, compensated_horner, eigenvalues,
                                golub_welsch, monic_q, orthonormal_values,
                                selfadjointness_divergence_test)

from oracles import charpoly_faddeev


def test_monic_q_hand_computed():
    assert monic_q(2, 0).coeffs == (Fraction(-1, 2), 0, 1)
    assert monic_q(2, 1).coeffs == (Fraction(-1), 0, 1)
    assert monic_q(0, 5).coeffs == (1,)
    assert monic_q(1, 5).coeffs == (0, 1)


@pytest.mark.parametrize("s", range(7))
def test_monic_q_is_monic(s):
    for n in range(31):
        assert monic_q(n, s).is_monic()


def test_assoc_hermite_reduces_to_classical():
    assert assoc_hermite(2, 0).coeffs == (-2, 0, 4)
    assert assoc_hermite(3, 0).coeffs == (0, -12, 0, 8)
    # classical recurrence oracle
    h_prev, h = PolyExact([1]), PolyExact([0, 2])
    for n in range(2, 12):
        nxt = [0] + [2 * c for c in h.coeffs]
        for i, c in enumerate(h_prev.coeffs):
            nxt[i] -= 2 * (n - 1) * c
        h_prev, h = h, PolyExact(nxt)
        assert assoc_hermite(n, 0) == h


def test_assoc_hermite_first_shifted_case():
    assert assoc_hermite(2, 1).coeffs == (-4, 0, 4)


@pytest.mark.parametrize("s", range(7))
def test_doubling_relation_between_families(s):
    for n in range(26):
        q = monic_q(n, s)
        h = assoc_hermite(n, s)
        assert PolyExact([Fraction(c, 2**n) for c in h.coeffs]) == q


def test_char_poly_trivial_sections():
    assert char_poly(1, 0).coeffs == (0, 1)
    assert char_poly(2, 0).coeffs == (Fraction(-1, 2), 0, 1)


@pytest.mark.parametrize("s", range(7))
def test_char_poly_equals_monic_recursion(s):
    for n in range(1, 21):
        assert char_poly(n, s) == monic_q(n, s)


@pytest.mark.parametrize("s", range(4))
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
def test_char_poly_against_trace_algorithm_oracle(s, n):
    assert list(char_poly(n, s).coeffs) == charpoly_faddeev(n, s)


def test_eigenvalues_two_by_two():
    ev = eigenvalues(2, 0)
    assert np.allclose(np.sort(ev), [-1 / math.sqrt(2), 1 / math.sqrt(2)])


@pytest.mark.parametrize("s", range(5))
def test_odd_sections_contain_zero(s):
    ev = eigenvalues(3, s)
    assert np.min(np.abs(ev)) < 1e-14


@pytest.mark.parametrize("s", range(5))
def test_spectrum_symmetric(s):
    ev = eigenvalues(12, s)
    assert np.max(np.abs(ev + ev[::-1])) < 1e-13


@pytest.mark.parametrize("s", range(5))
def test_interlacing_of_consecutive_sections(s):
    for n in range(2, 16):
        a = eigenvalues(n, s)
        b = eigenvalues(n + 1, s)
        assert all(b[i] < a[i] < b[i + 1] for i in range(n))


@pytest.mark.parametrize("s", range(5))
def test_eigenvalues_match_lapack_oracle(s):
    for n in (5, 20, 40, 400):
        jm = JacobiMatrix(s, n)
        ref = eigh_tridiagonal(np.zeros(n), jm.offdiag(), eigvals_only=True)
        assert np.max(np.abs(eigenvalues(n, s) - ref)) < 1e-12


def test_roots_annihilate_exact_polynomial():
    for s in range(5):
        n = 40
        q = monic_q(n, s)
        scale_at = lambda x: sum(abs(float(c)) * abs(x) ** k
                                 for k, c in enumerate(q.coeffs))
        for x in eigenvalues(n, s):
            assert abs(q(x)) <= 1e-13 * scale_at(x)


def test_compensated_horner_beats_cancellation():
    # (x - 1)^12 near x = 1: naive evaluation is pure noise at this scale,
    # the compensated form stays within its eps^2 * condition bound
    coeffs = [math.comb(12, k) * (-1) ** (12 - k) for k in range(13)]
    x = 1.0009765625  # 1 + 2^-10, exact in binary
    exact = (x - 1.0) ** 12
    got = compensated_horner(list(reversed(coeffs)), x)
    naive = 0.0
    for c in coeffs[::-1]:
        naive = naive * x + c
    eps = np.finfo(float).eps
    cond_scale = sum(abs(c) * x**k for k, c in enumerate(coeffs))
    assert abs(got - exact) <= 64 * eps**2 * cond_scale
    assert abs(naive - exact) > 1e4 * abs(got - exact)


@pytest.mark.parametrize("s", range(5))
def test_golub_welsch_measure(s):
    meas = golub_welsch(s, 40)
    assert abs(meas.total_mass - 1.0) < 1e-13
    assert np.all(np.diff(meas.nodes) > 0)
    pv = orthonormal_values(s, 12, meas.nodes)
    gram = (pv * meas.weights) @ pv.T
    assert np.max(np.abs(gram - np.eye(13))) < 1e-11


@pytest.mark.parametrize("s", range(5))
def test_shifted_hermite_norms_under_measure(s):
    meas = golub_welsch(s, 40)
    for k in range(13):
        h = assoc_hermite(k, s)
        hv = np.array([h(x) for x in meas.nodes])
        got = float(np.dot(meas.weights, hv * hv))
        want = 2.0**k * math.gamma(k + s + 1) / math.gamma(s + 1)
        assert abs(got - want) <= 1e-9 * want


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([0.0, 1.0]), np.array([0.5, -0.5]))


def test_carleman_divergence_report():
    rep = selfadjointness_divergence_test(0, 10_000)
    assert rep.partial_sum > 190
    assert rep.exceeds(190) and not rep.exceeds(1e9)
    # ~ 2 sqrt(N) growth
    assert abs(rep.partial_sum - rep.rate_estimate) < 0.05 * rep.rate_estimate


@pytest.mark.parametrize("s", [0, 5])
def test_carleman_partial_sums_monotone(s):
    sums = [carleman_partial_sum(s, n) for n in (10, 100, 1000)]
    assert sums[0] < sums[1] < sums[2]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5), st.integers(1, 200))
def test_carleman_increment_positive(s, n):
    assert carleman_partial_sum(s, n + 1) > carleman_partial_sum(s, n)


@pytest.mark.parametrize("s", range(5))
@pytest.mark.parametrize("n", range(5))
def test_laguerre_factorizations(s, n):
    for check in assoc_hermite_laguerre_check(n, s):
        assert check.passed, check


def test_laguerre_factorization_degree_zero():
    # H_0 = 1 = sigma_0 * Lcal_0 and H_1 = 2x = 2x sigma_0 * L_0
    even = assoc_laguerre_coeffs(0, Fraction(-1, 2), Fraction(1, 2), False)
    odd = assoc_laguerre_coeffs(0, Fraction(1, 2), Fraction(1, 2), True)
    assert even == [Fraction(1)] and odd == [Fraction(1)]


def test_laguerre_factorization_classical_reduction():
    # at s = 0 the even family collapses to classical Laguerre L_n^(-1/2):
    # H_{2n}(x) = (-1)^n 2^{2n} n! L_n^(-1/2)(x^2)
    from hermquant.specfun import laguerre
    for n in range(1, 5):
        h = assoc_hermite(2 * n, 0)
        for x in (0.3, 0.9, 1.7):
            want = ((-1) ** n * 4**n * math.factorial(n)
                    * laguerre(n, -0.5, x * x))
            assert h(x) == pytest.approx(want, rel=1e-12)


def test_odd_s_half_integer_parameter_is_pole_free():
    # c = s/2 with odd s exercises the half-integer parameter branch
    for s in (1, 3, 5, 7):
        for n in range(4):
            for check in assoc_hermite_laguerre_check(n, s):
                assert check.passed, (s, n, check)
