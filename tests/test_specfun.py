import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermquant.quadrature import gauss_laguerre_rule
from hermquant.specfun import (binomial_general, complex_hermite,
                               complex_hermite_coeffs, complex_hermite_exact,
                               complex_hermite_laguerre,
                               complex_hermite_laguerre_exact, laguerre,
                               laguerre_coeffs, laguerre_many)

from conftest import laguerre_scale, rel_err
# the Fraction references of the integer 3F2 sums in spectral
from oracles import PoleError, hyp3f2_terminating, pochhammer_exact


def test_pochhammer_empty_product():
    assert pochhammer_exact(5, 0) == 1


def test_pochhammer_factorial():
    assert pochhammer_exact(1, 4) == 24


def test_pochhammer_half_integer():
    assert pochhammer_exact(Fraction(3, 2), 2) == Fraction(15, 4)


def test_pochhammer_exact_matches_float():
    # an independent route: (a)_k = Gamma(a + k) / Gamma(a) for a > 0, and a
    # falling product of |a| down to |a| - k + 1 for a nonpositive integer
    for a in (2, Fraction(1, 2), Fraction(7, 3)):
        for k in range(6):
            assert float(pochhammer_exact(a, k)) == pytest.approx(
                math.gamma(a + k) / math.gamma(a), rel=1e-14)
    for k in range(6):
        assert pochhammer_exact(-3, k) == (
            (-1) ** k * math.perm(3, k))


@given(st.fractions(-10, 10, max_denominator=8), st.integers(0, 8),
       st.integers(0, 8))
def test_pochhammer_splits_multiplicatively(a, j, k):
    assert pochhammer_exact(a, j + k) == (
        pochhammer_exact(a, j) * pochhammer_exact(a + j, k))


def test_laguerre_degree_zero_is_one():
    for alpha in (-0.5, 0.0, 2.7):
        for x in (0.0, 1.3, 40.0):
            assert laguerre(0, alpha, x) == 1.0


def test_laguerre_degree_one_root():
    # L_1^(2)(3) = 1 + 2 - 3 = 0
    assert laguerre(1, 2.0, 3.0) == 0.0


def test_laguerre_value_at_zero_is_binomial():
    for s in range(8):
        for alpha in (0, 1, 3):
            assert laguerre(s, alpha, 0.0) == pytest.approx(
                math.comb(s + alpha, s))


def test_laguerre_orthogonality_under_gauss_rule():
    """Weighted orthogonality against Gamma(1+a)*binom(n+a, n), with the
    rule oversized to 2*degree + 4 nodes."""
    for alpha in (0, 1, 2):
        deg = 2 * 10 + alpha
        rule = gauss_laguerre_rule(2 * deg + 4)
        u = rule.radial_nodes
        for m in range(11):
            lm = laguerre(m, alpha, u)
            for n in range(11):
                ln = laguerre(n, alpha, u)
                val = float(np.dot(rule.radial_weights, u**alpha * lm * ln))
                want = (math.gamma(1 + alpha) * math.comb(n + alpha, n)
                        if m == n else 0.0)
                assert abs(val - want) < 1e-10 * max(1.0, abs(want)), (alpha, m, n)


def _laguerre_exact(s, alpha, x):
    acc = Fraction(0)
    xf = Fraction(x)
    for c in reversed(laguerre_coeffs(s, alpha)):
        acc = acc * xf + c
    return float(acc)


@pytest.mark.parametrize("s", [3, 5, 6, 7, 8, 12, 20, 30])
def test_laguerre_accuracy_across_representation_seam(s):
    # the sum path serves s <= 6; the recurrence must stay at machine
    # precision relative to the exact rational value for every degree
    for x in np.linspace(0.5, 60.0, 16):
        exact = _laguerre_exact(s, 3, float(x))
        got = float(laguerre(s, 3, float(x)))
        assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact)), (s, x)


def test_laguerre_many_matches_scalar():
    ns = np.arange(40, dtype=float)
    for s in range(5):
        got = laguerre_many(s, ns, 7.5)
        want = np.array([laguerre(s, int(n), 7.5) for n in ns])
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("s", range(10))
def test_laguerre_many_array_x_matches_scalar(s):
    # both branches of the scalar laguerre (finite sum for s <= 6, the
    # recurrence above) against the table over alpha x points
    alphas = np.arange(40)
    xs = np.linspace(0.0, 60.0, 13)
    table = laguerre_many(s, alphas, xs)
    assert table.shape == (40, 13)
    for j, x in enumerate(xs):
        # a column is the scalar-x table, bit for bit
        assert np.array_equal(table[:, j], laguerre_many(s, alphas, float(x)))
        for a in alphas:
            want = laguerre(s, int(a), float(x))
            scale = max(1.0, laguerre_scale(s, int(a), float(x)))
            assert abs(table[a, j] - want) <= 1e-14 * scale, (s, a, x)
    grid = xs.reshape(13, 1) * np.ones((1, 2))
    assert laguerre_many(s, alphas, grid).shape == (40, 13, 2)
    assert laguerre_many(s, 3, xs).shape == xs.shape


def test_laguerre_table_matches_mpmath_at_large_arguments():
    # the range normalization_series reaches at t = 50: n to 135 terms
    mpmath = pytest.importorskip("mpmath")
    ns = np.arange(0, 201, 10)
    ts = np.linspace(0.0, 60.0, 13)
    with mpmath.workdps(30):
        for s in range(7):
            table = laguerre_many(s, ns, ts)
            for i, n in enumerate(ns):
                for j, t in enumerate(ts):
                    want = float(mpmath.laguerre(s, int(n), mpmath.mpf(t)))
                    scale = laguerre_scale(s, int(n), float(t))
                    assert abs(table[i, j] - want) <= 1e-14 * scale, (s, n, t)


def test_binomial_general_integer_and_real():
    assert binomial_general(7, 3) == 35
    # a float argument is taken at its exact binary value
    assert binomial_general(2.5, 2) == Fraction(15, 8)
    assert binomial_general(0.1, 1) == Fraction(0.1) != Fraction(1, 10)


def test_laguerre_coeffs_of_a_float_alpha_are_exact():
    assert laguerre_coeffs(2, 0.5) == laguerre_coeffs(2, Fraction(1, 2)) == [
        Fraction(15, 8), Fraction(-5, 2), Fraction(1, 2)]
    assert all(type(c) is Fraction for c in laguerre_coeffs(3, 0.1))


def test_hyp3f2_zero_terminates_immediately():
    assert hyp3f2_terminating(0, 3.3, -7.0, 0.1, 2.0) == 1.0


def test_hyp3f2_single_step():
    a2, a3, b1, b2 = 1.7, -0.3, 2.2, 0.9
    got = hyp3f2_terminating(-1, a2, a3, b1, b2)
    assert got == pytest.approx(1.0 - a2 * a3 / (b1 * b2), rel=1e-15)


def test_hyp3f2_exact_mode():
    got = hyp3f2_terminating(Fraction(-2), Fraction(1, 2), Fraction(3),
                             Fraction(5, 2), Fraction(2))
    # 1 + (-2)(1/2)(3)/((5/2)(2)) + [(-2)(-1)(1/2)(3/2)(3)(4)]/[(5/2)(7/2)(2)(3) * 2]
    want = 1 + Fraction(-3, 5) + Fraction(18, Fraction(105, 2) * 2)
    assert type(got) is Fraction and got == want
    # a float parameter enters at its exact binary value
    assert hyp3f2_terminating(-1, 0.1, 1, 1, 1) == 1 - Fraction(0.1)


def test_hyp3f2_pole_detection():
    with pytest.raises(PoleError):
        hyp3f2_terminating(-3, 1.0, 1.0, -2.0, 1.5)
    # pole just outside the summation range is fine
    hyp3f2_terminating(-3, 1.0, 1.0, -3.5, 1.5)


def test_hyp3f2_rejects_a_non_terminating_first_parameter():
    for a1 in (1, 3, -0.5, Fraction(-5, 2)):
        with pytest.raises(ValueError, match="nonpositive integer"):
            hyp3f2_terminating(a1, 1.0, 1.0, 2.0, 1.5)


def test_complex_hermite_constant():
    assert complex_hermite(0, 0, 0.7 - 0.2j) == 1.0


@pytest.mark.parametrize("n", range(6))
def test_complex_hermite_pure_conjugate_power(n, rng):
    for _ in range(5):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert complex_hermite(n, 0, z) == pytest.approx(
            np.conj(z) ** n, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("s", range(6))
def test_complex_hermite_diagonal_is_laguerre(s, rng):
    for _ in range(5):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        t = abs(z) ** 2
        want = (-1) ** s * math.factorial(s) * laguerre(s, 0, t)
        assert complex_hermite(s, s, z) == pytest.approx(want, rel=1e-12)


def test_complex_hermite_conjugation_symmetry(rng):
    # incremental power tables make the swap symmetry exact, not just 1e-12
    for _ in range(50):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        r = int(rng.integers(0, 13))
        s = int(rng.integers(0, 13))
        a = complex_hermite(r, s, z)
        b = complex_hermite(s, r, z)
        assert a == np.conj(b), (r, s, z)


def test_complex_hermite_coeff_table_transposes_under_conjugation():
    for r in range(8):
        for s in range(8):
            ca = complex_hermite_coeffs(r, s)
            cb = complex_hermite_coeffs(s, r)
            assert ca == {(j, i): c for (i, j), c in cb.items()}


def test_exact_backends_agree_everywhere(rng):
    for _ in range(60):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s = int(rng.integers(0, 13))
        n = int(rng.integers(0, 13))
        a = complex_hermite_exact(s + n, s, z)
        b = complex_hermite_laguerre_exact(s, n, z)
        assert rel_err(a, b) < 1e-14


def test_float_path_agrees_with_exact_to_scale(rng):
    for _ in range(40):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s = int(rng.integers(0, 13))
        n = int(rng.integers(0, 13))
        scale = sum(abs(c) * abs(z) ** (i + j)
                    for (i, j), c in complex_hermite_coeffs(s + n, s).items())
        a = complex_hermite(s + n, s, z)
        b = complex_hermite_exact(s + n, s, z)
        assert abs(a - b) <= 1e-13 * max(1.0, scale)


def test_laguerre_form_examples(rng):
    z = 1.0 + 2.0j
    assert complex_hermite_laguerre(0, 3, z) == pytest.approx(np.conj(z) ** 3)
    t = abs(z) ** 2
    assert complex_hermite_laguerre(1, 2, z) == pytest.approx(
        np.conj(z) ** 2 * (t - 2 - 1), rel=1e-13)
    # equality with the double sum at one fixed point
    assert complex_hermite(5, 3, 1 + 2j) == pytest.approx(
        complex_hermite_laguerre(3, 2, 1 + 2j), rel=1e-12)


@settings(max_examples=60)
@given(st.integers(0, 8), st.integers(0, 8),
       st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                          allow_infinity=False))
def test_conjugation_property_small_indices(r, s, z):
    a = complex_hermite(r, s, z)
    b = complex_hermite(s, r, z)
    assert abs(a - np.conj(b)) <= 1e-9 * max(1.0, abs(a))
