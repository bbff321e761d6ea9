import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from hermquant import spectral
from hermquant.spectral import (DiscreteMeasure, JacobiMatrix, PolyExact,
                                assoc_hermite, assoc_hermite_laguerre_check,
                                assoc_laguerre_coeffs, carleman_partial_sum,
                                char_poly, eigenvalues,
                                golub_welsch, monic_q, orthonormal_values,
                                scaled_char_poly, scaled_monic_q,
                                section_eigenvalues,
                                selfadjointness_divergence_test)

import oracles
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


def test_exact_evaluation_beats_cancellation():
    # (x - 1)^12 near x = 1: naive Horner is pure noise at this scale, the
    # exact evaluation returns the value itself
    coeffs = [math.comb(12, k) * (-1) ** (12 - k) for k in range(13)]
    x = 1.0009765625  # 1 + 2^-10, exact in binary
    assert PolyExact(coeffs)(x) == 2.0 ** -120
    naive = 0.0
    for c in coeffs[::-1]:
        naive = naive * x + c
    assert abs(naive - 2.0 ** -120) > 1e20 * 2.0 ** -120


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(max_denominator=50, min_value=-1000,
                             max_value=1000), min_size=1, max_size=14),
       st.floats(min_value=-30.0, max_value=30.0))
def test_poly_value_is_the_rounded_exact_value(coeffs, x):
    exact = sum(c * Fraction(x) ** k for k, c in enumerate(coeffs))
    assert PolyExact(coeffs)(x) == float(exact)


def test_integer_sturm_counts_match_lapack():
    # at shifts apart from every eigenvalue, and at the eigenvalue 0 of an
    # odd order, which the strict count leaves out
    for s in range(3):
        for n in (1, 2, 5, 9):
            off = JacobiMatrix(s, n).offdiag()
            ev = eigh_tridiagonal(np.zeros(n), off, eigvals_only=True)
            for x in (-2.75, -0.5, 0.0, 0.375, 3.0):
                a, b = x.as_integer_ratio()
                want = np.sum(ev < x - 1e-9)
                assert oracles.jacobi_sturm_count(s, n, a, b) == want


@pytest.mark.parametrize("s", range(5))
def test_eigenvalues_are_certified_by_integer_sturm_counts(s):
    # tridiag bounds each eigenvalue's error by a backward error of a few
    # u*||J|| (u = 2^-53), taken here as 4 u*||J|| with ||J|| the Gershgorin
    # bound; the worst measured is 2.  The interval of that half-width about
    # eigenvalue i holds exactly the i-th true one when at most i
    # eigenvalues lie below its lower end and more than i below its upper end
    for n in (16, 40, 100):
        lam = eigenvalues(n, s)
        off = JacobiMatrix(s, n).offdiag()
        delta = Fraction(4 * 2.0**-53 * np.max(np.r_[off, 0] + np.r_[0, off]))

        def below(x):
            return oracles.jacobi_sturm_count(s, n, *x.as_integer_ratio())

        def certified(i, x):
            return below(x - delta) <= i < below(x + delta)

        assert all(certified(i, Fraction(x)) for i, x in enumerate(lam))
        # the largest eigenvalue moved by twice the bound is not
        assert not certified(n - 1, Fraction(lam[-1]) + 2 * delta)


@pytest.mark.parametrize("s", range(5))
def test_golub_welsch_measure(s):
    meas = golub_welsch(s, 40)
    assert abs(meas.weights.sum() - 1.0) < 1e-13
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
    even = assoc_laguerre_coeffs(0, 1, False)
    odd = assoc_laguerre_coeffs(0, 1, True)
    assert even == ([1], 1) and odd == ([1], 1)


@pytest.mark.parametrize("s", range(9))
def test_integer_3f2_coefficients_equal_the_fraction_sums(s):
    for n in range(9):
        for odd in (False, True):
            nums, big_d = assoc_laguerre_coeffs(n, s, odd)
            want = oracles.assoc_laguerre_coeffs(
                n, Fraction(1 if odd else -1, 2), Fraction(s, 2), odd)
            assert big_d > 0 and all(type(c) is int for c in nums)
            assert [Fraction(c, big_d) for c in nums] == want, (n, s, odd)
            # each float rounds once from the same rational
            assert [c / big_d for c in nums] == [float(c) for c in want]


@pytest.mark.parametrize("s", range(7))
def test_scaled_rows_are_the_integer_polynomials(s):
    for n in range(1, 21):
        q, d = scaled_monic_q(n, s), scaled_char_poly(n, s)
        assert all(type(c) is int for c in q + d)
        assert q == d == assoc_hermite(n, s).coeffs
        assert [Fraction(c, 2 ** n) for c in q] == list(monic_q(n, s).coeffs)
        assert [Fraction(c, 2 ** n) for c in d] == list(char_poly(n, s).coeffs)


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


def test_polynomial_families_reject_negative_sectors():
    for family in (monic_q, assoc_hermite):
        with pytest.raises(ValueError):
            family(3, -2)


@pytest.mark.parametrize("s", range(5))
def test_section_eigenvalues_equal_one_section_calls(s):
    sizes = [16, 2, 7, 1]
    for n, ev in zip(sizes, section_eigenvalues(sizes, s)):
        assert np.array_equal(ev, eigenvalues(n, s))


@pytest.mark.parametrize("family", (monic_q, assoc_hermite, char_poly))
def test_recurrences_do_not_depend_on_call_order(family):
    # the kept rows serve a rising sweep; any other order starts again
    calls = [(7, 2), (3, 2), (12, 2), (12, 4), (5, 2), (5, 2), (20, 4),
             (1, 4), (9, 0)]
    fresh = {}
    for n, s in calls:
        spectral._LAST_ROWS.clear()
        fresh[n, s] = family(n, s)
    for n, s in calls + calls[::-1]:
        assert family(n, s) == fresh[n, s], (n, s)
