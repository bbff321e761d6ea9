import cmath
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermquant.basis import (BasisLabel, cs_coefficients,
                             displacement_element, gamma_like_pdf, kernel,
                             kernel_s1_closed, normalization,
                             normalization_deficit_log, normalization_scaled,
                             normalization_series, phi, phi_values,
                             poisson_like_pmf, reproduce)
from hermquant import basis, specfun
from hermquant.errors import NonConvergence, TailError
from hermquant.quadrature import gauss_laguerre_rule
from hermquant.specfun import laguerre, laguerre_coeffs, log_factorial
from hermquant.verify import phi_gram_residual

from conftest import laguerre_scale


def test_phi_ground_state_coincides_across_sectors():
    z = 0.7 + 0.3j
    for s in range(5):
        left = phi(BasisLabel("L", 0, s), z)
        right = phi(BasisLabel("R", 0, s), z)
        want = (-1) ** s * math.exp(-abs(z) ** 2 / 2) * laguerre(s, 0, abs(z) ** 2)
        assert left == right
        assert left == pytest.approx(want, rel=1e-14)


def test_phi_s_zero_is_weighted_conjugate_power(rng):
    for n in range(8):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        want = (math.exp(-abs(z) ** 2 / 2) * np.conj(z) ** n
                / math.sqrt(math.factorial(n)))
        assert phi(BasisLabel("L", n, 0), z) == pytest.approx(want, rel=1e-13)


def test_phi_large_argument_stays_finite():
    val = phi(BasisLabel("L", 3, 2), 30.0 + 1.0j)  # |z|^2 ~ 901
    assert val == 0.0 or (math.isfinite(val.real) and abs(val) < 1e-150)
    assert phi(BasisLabel("L", 900, 0), 30.0) != 0.0


def test_phi_table_matches_mpmath_closed_form():
    # the closed form at 40 digits, at the t = |z|^2 and arg z that the
    # table receives as floats: rounding |z|^2 itself moves L_s^(n) near a
    # zero by more than 1e-12 relative (L_1^(16) vanishes at t = 17)
    mpmath = pytest.importorskip("mpmath")
    ts = (0.0, 1e-3, 0.37, 1.9, 6.25, 17.0, 48.5, 121.0, 333.3, 640.0, 900.0)
    angles = (0.3, 2.2, -1.1, 3.0, -2.6)
    zs = np.array([math.sqrt(t) * cmath.exp(1j * angles[k % 5])
                   for k, t in enumerate(ts)])
    worst = 0.0
    with mpmath.workdps(40):
        tf = [mpmath.mpf(t) for t in (np.abs(zs) ** 2).tolist()]
        th = [mpmath.mpf(a) for a in np.angle(zs).tolist()]
        for s in range(13):
            ns = list(range(61)) + ([900] if s == 0 else [])
            table = phi_values(s, np.array(ns), zs)
            assert table.shape == (len(ns), zs.size)
            for n, row in zip(ns, table):
                # s! L_s^(n)(t) = sum_m (-1)^m C(s+n, s-m) (s!/m!) t^m
                coeffs = [(-1) ** m * math.comb(s + n, s - m)
                          * (math.factorial(s) // math.factorial(m))
                          for m in range(s, -1, -1)]
                pref = (-1) ** s / mpmath.sqrt(
                    math.factorial(s) * mpmath.mpf(math.factorial(s + n)))
                for got, t, a in zip(row, tf, th):
                    want = complex(pref * mpmath.polyval(coeffs, t)
                                   * mpmath.exp(-t / 2) * t ** (n / 2)
                                   * mpmath.expj(-n * a))
                    if abs(want) > 1e-290:
                        worst = max(worst, abs(got - want) / abs(want))
                    else:
                        assert abs(got) <= 1e-290, (s, n, float(t))
    assert worst <= 1e-12


def test_phi_scalar_and_array_forms_and_sectors():
    zs = np.array([[0.0, 0.4 - 1.2j], [2.5 + 0.1j, -3.0j]])
    for s, n in ((0, 0), (2, 0), (1, 3), (4, 7)):
        table = phi(BasisLabel("L", n, s), zs)
        assert table.shape == zs.shape
        assert np.array_equal(phi(BasisLabel("R", n, s), zs), np.conj(table))
        for z, want in zip(zs.ravel().tolist(), table.ravel().tolist()):
            left = phi(BasisLabel("L", n, s), z)
            assert type(left) is complex and left == want
            assert phi(BasisLabel("R", n, s), z) == want.conjugate()
    assert phi_values(1, np.arange(6).reshape(2, 3), zs).shape == (2, 3, 2, 2)


def test_phi_gram_identity_to_1e9():
    worst = max(phi_gram_residual(s, 10) for s in range(5))
    assert worst < 1e-9


def test_phi_cross_sector_orthogonality():
    # <phi^L_{n;s}, phi^R_{n';s'}> = 0 unless both hit the shared ground state
    rule = gauss_laguerre_rule(40)
    thetas = 2 * np.pi * np.arange(25) / 25
    zg = np.sqrt(rule.radial_nodes)[:, None] * np.exp(1j * thetas)[None, :]
    cases = [((2, 1), (1, 1)), ((1, 0), (2, 3)), ((0, 1), (0, 2)), ((0, 1), (0, 1))]
    for (n1, s1), (n2, s2) in cases:
        f1 = phi(BasisLabel("L", n1, s1), zg)
        f2 = phi(BasisLabel("R", n2, s2), zg)
        gaussians = np.exp(np.abs(zg) ** 2)  # fold the rule weight back out
        val = np.dot(rule.radial_weights,
                     (np.conj(f1) * f2 * gaussians).mean(axis=1))
        want = 1.0 if (n1 == n2 == 0 and s1 == s2) else 0.0
        assert abs(val - want) < 1e-9, ((n1, s1), (n2, s2), val)


def test_normalization_low_orders_are_structurally_exact():
    for t in (0.1, 1.0, 17.5, 50.0):
        assert normalization(0, t) == math.exp(t)
        assert normalization(1, t) == math.exp(t) - t


def test_normalization_closed_form_matches_series():
    for s in range(7):
        for t in np.linspace(0.25, 50.0, 21):
            closed = normalization(s, float(t))
            series, _ = normalization_series(s, float(t))
            assert abs(closed - series) <= 1e-10 * abs(series), (s, t)


def test_normalization_strict_upper_bound():
    for s in range(1, 7):
        for t in np.linspace(0.25, 50.0, 21):
            v = normalization(s, float(t))
            assert 0.0 < v <= math.exp(t)
            assert normalization_deficit_log(s, float(t)) > -math.inf


def test_normalization_deficit_vanishes_only_at_zero_or_s_zero():
    assert normalization_deficit_log(0, 3.0) == -math.inf
    assert normalization_deficit_log(3, 0.0) == -math.inf


@pytest.mark.parametrize("fn", [normalization, normalization_series,
                                normalization_scaled,
                                normalization_deficit_log])
def test_normalization_rejects_negative_arguments(fn):
    with pytest.raises(ValueError, match="s = -1"):
        fn(-1, 1.0)
    with pytest.raises(ValueError, match="t must be nonnegative"):
        fn(2, -0.5)


@pytest.mark.parametrize("fn", [normalization, normalization_series,
                                normalization_scaled,
                                normalization_deficit_log])
def test_normalization_rejects_non_finite_t(fn):
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"t must be finite: t = {t}"):
            fn(2, t)
    # the first non-finite element in C order is named, also before a
    # negative one
    ts = np.array([[1.0, -1.0], [math.nan, math.inf]])
    with pytest.raises(ValueError, match="t must be finite: t = nan"):
        fn(2, ts)


def test_cs_coefficients_reject_non_finite_z():
    for z in (complex(math.nan, 0.0), complex(0.5, math.inf)):
        with pytest.raises(ValueError, match=re.escape(f"z = {z}")):
            cs_coefficients(1, z, 4)
    # |z|^2 beyond the floats is rejected too, with no overflow warning
    zs = np.array([[0.5, 1e200], [complex(2.0, math.nan), 0.0]])
    with pytest.raises(ValueError, match=re.escape("z = (1e+200+0j)")):
        cs_coefficients(1, zs, 4)


def _deficit_log_finite_sum(s: int, t: float) -> float:
    """log(e^t - N_s(t)) as the scalar finite sum over m < s with the
    scalar `laguerre` (its coefficient sum up to degree 6): the reference
    for the array forms."""
    terms = [log_factorial(m) - log_factorial(s) + (s - m) * math.log(t)
             + 2.0 * math.log(abs(laguerre(m, s - m, t)))
             for m in range(s) if t > 0.0 and laguerre(m, s - m, t) != 0.0]
    if not terms:
        return -math.inf
    top = max(terms)
    return top + math.log(sum(math.exp(v - top) for v in terms))


def test_array_normalization_matches_the_scalar_finite_sum():
    # up to s = 10: at s = 11 the finite sum itself is off by 1.5e-14
    # (against mpmath at t = 14.5), the recurrence by 3e-15
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 700.0, 60)])
    for s in range(11):
        closed = normalization(s, ts)
        scaled = normalization_scaled(s, ts)
        assert closed.shape == scaled.shape == ts.shape
        for t, got, got_scaled in zip(ts.tolist(), closed.tolist(),
                                      scaled.tolist()):
            deficit = _deficit_log_finite_sum(s, t)
            want = math.exp(t) - math.exp(deficit)
            assert abs(got - want) <= 1e-14 * want, (s, t)
            want_scaled = 1.0 - math.exp(deficit - t)
            assert abs(got_scaled - want_scaled) <= 1e-14 * want_scaled
            # each element of the array is the scalar call's float
            assert normalization(s, t) == got
            assert isinstance(normalization(s, t), float)


def _series_loop(s: int, t: float, tol: float = 1e-14) -> tuple:
    """N_s(t) from its series, term by term in a Python loop over blocks of
    the phi table: the reference for the array form of the series."""
    total, small = 0.0, 0
    for start in range(0, 100_000, 64):
        ns = np.arange(start, start + 64)
        terms = np.exp(2.0 * basis._log_phi(s, ns, t)[0] + t)
        for n, term in zip(ns.tolist(), terms.tolist()):
            total += term
            small = small + 1 if term <= tol * max(total, 1.0) else 0
            if small >= 3:
                return total, n + 1
    raise AssertionError("the reference series did not settle")


def test_array_normalization_series_equals_the_term_loop():
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 700.0, 30),
                         np.linspace(0.5, 50.0, 25)]).reshape(2, -1)
    for s in range(13):
        values, used = normalization_series(s, ts)
        assert values.shape == used.shape == ts.shape
        for t, v, n in zip(ts.ravel().tolist(), values.ravel().tolist(),
                           used.ravel().tolist()):
            assert (v, n) == _series_loop(s, t) == normalization_series(s, t)


def test_array_normalization_edge_cases():
    ts = np.array([[0.0, 1.5], [0.0, 30.0]])
    assert np.all(normalization_deficit_log(0, ts) == -math.inf)
    assert np.array_equal(normalization(0, ts), np.exp(ts))
    deficit = normalization_deficit_log(3, ts)
    assert deficit[0, 0] == deficit[1, 0] == -math.inf
    assert np.all(np.isfinite(deficit[:, 1]))
    assert normalization(3, ts)[0, 0] == normalization_scaled(3, ts)[1, 0] \
        == 1.0
    assert normalization_deficit_log(0, 0.0) == -math.inf
    for fn in (normalization, normalization_series):
        with pytest.raises(OverflowError, match="t = 720.5"):
            fn(2, np.array([1.0, 720.5, 800.0]))
    for fn in (normalization, normalization_scaled,
               normalization_deficit_log, normalization_series):
        with pytest.raises(ValueError, match="t = -0.5"):
            fn(2, np.array([1.0, -0.5]))
    # the scaled form and the deficit need no e^t: finite past the overflow
    assert normalization_scaled(2, np.array([720.5]))[0] == 1.0


def test_normalization_at_laguerre_zeros_matches_mpmath():
    # N_6(t) where one factor L_m^(6-m) of its deficit vanishes, for every
    # zero of every factor: the float nearest the zero and its neighbours
    mpmath = pytest.importorskip("mpmath")
    s = 6
    worst = 0.0
    with mpmath.workdps(30):
        for m in range(1, s):
            coeffs = [mpmath.mpf(c.numerator) / c.denominator
                      for c in reversed(laguerre_coeffs(m, s - m))]
            for root in mpmath.polyroots(coeffs, maxsteps=200, extraprec=60):
                t0 = float(mpmath.re(root))
                ts = np.array([np.nextafter(t0, 0.0), t0,
                               np.nextafter(t0, math.inf)])
                got = normalization(s, ts)
                for t, g in zip(ts.tolist(), got.tolist()):
                    x = mpmath.mpf(t)
                    # mpmath.laguerre does not settle at its own zeros
                    want = mpmath.exp(x) - mpmath.fsum(
                        mpmath.factorial(k) / mpmath.factorial(s)
                        * x ** (s - k) * mpmath.polyval(
                            [mpmath.mpf(c.numerator) / c.denominator
                             for c in reversed(laguerre_coeffs(k, s - k))],
                            x) ** 2
                        for k in range(s))
                    worst = max(worst, float(abs(g - want) / want))
    assert worst <= 1e-13, worst


def test_normalization_scaled_matches_deficit():
    for s in range(5):
        for t in (0.5, 3.0, 20.0):
            scaled = normalization_scaled(s, t)
            assert scaled == pytest.approx(normalization(s, t) * math.exp(-t),
                                           rel=1e-12)
            assert 0.0 < scaled <= 1.0


def test_normalization_matches_mpmath_at_large_arguments():
    # N_s(t) = e^t - sum_{m<s} (m!/s!) t^(s-m) L_m^(s-m)(t)^2 at 60 digits,
    # the Laguerre sums written out: mpmath.laguerre does not converge at
    # t = 700
    mpmath = pytest.importorskip("mpmath")
    worst = worst_series = worst_scaled = 0.0
    with mpmath.workdps(60):
        for s in range(13):
            for t in (0.25, 1.0, 4.0, 10.0, 30.0, 60.0, 120.0, 250.0, 450.0,
                      700.0):
                x = mpmath.mpf(t)
                deficit = mpmath.mpf(0)
                for m in range(s):
                    a = s - m
                    lag = mpmath.fsum((-1) ** k * math.comb(m + a, m - k)
                                      * x ** k / math.factorial(k)
                                      for k in range(m + 1))
                    deficit += (mpmath.mpf(math.factorial(m))
                                / math.factorial(s) * x ** a * lag ** 2)
                want = mpmath.exp(x) - deficit
                worst = max(worst, float(abs(normalization(s, t) - want)
                                         / want))
                worst_series = max(worst_series, float(
                    abs(normalization_series(s, t)[0] - want) / want))
                want_scaled = want * mpmath.exp(-x)
                worst_scaled = max(worst_scaled, float(
                    abs(normalization_scaled(s, t) - want_scaled)
                    / want_scaled))
    assert (worst <= 1e-12 and worst_series <= 1e-12
            and worst_scaled <= 1e-12), (worst, worst_series, worst_scaled)
    # beyond t = log(float max) ~ 709.78 both float forms refuse
    for fn in (normalization, normalization_series):
        with pytest.raises(OverflowError, match="t = 720"):
            fn(12, 720.0)


def test_kernel_s0_is_exponential(rng):
    for _ in range(20):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        kv = kernel(0, a, b)
        want = cmath.exp(np.conj(a) * b)
        assert abs(kv.value - want) <= 1e-10 * max(1.0, abs(want))


def test_kernel_s1_matches_closed_form(rng):
    for _ in range(20):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        kv = kernel(1, a, b)
        closed = kernel_s1_closed(a, b)
        assert abs(kv.value - closed) <= 1e-8 * max(1.0, abs(closed))


def test_kernel_hermitian_symmetry(rng):
    for s in range(4):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert abs(kernel(s, a, b).value
                   - np.conj(kernel(s, b, a).value)) < 1e-10


def test_kernel_tail_estimate_honored():
    a, b = 1.3 + 0.4j, -0.8 + 1.1j
    for s in (0, 2):
        coarse = kernel(s, a, b, tol=1e-6)
        fine = kernel(s, a, b, tol=1e-15, max_terms=2000)
        assert abs(fine.value - coarse.value) <= coarse.est_tail
        assert fine.truncation_n >= coarse.truncation_n


def test_kernel_nonconvergence_budget():
    with pytest.raises(NonConvergence):
        kernel(0, 40.0, 40.0, max_terms=30)


@pytest.mark.parametrize("s", [0, 1, 2])
def test_reproducing_property_ground_state(s):
    target = BasisLabel("L", 0, s)
    got = reproduce(s, 0.7 + 0.3j, partial(phi, target), n_max=4)
    assert abs(got - phi(target, 0.7 + 0.3j)) < 1e-7


def test_reproducing_property_excited_state(rng):
    target = BasisLabel("L", 3, 1)
    f = partial(phi, target)
    for _ in range(5):
        pt = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        assert abs(reproduce(1, pt, f, n_max=5) - phi(target, pt)) < 1e-7


def test_reproducing_kills_other_sectors():
    alien = BasisLabel("L", 2, 3)
    got = reproduce(1, 0.5 + 0.2j, partial(phi, alien), n_max=4,
                    f_degree=1 + 3)
    assert abs(got) < 1e-7


def test_displacement_vacuum_element():
    for z in (0.3 + 0.1j, 1.5 - 2.0j):
        assert displacement_element(0, 0, z) == pytest.approx(
            math.exp(-abs(z) ** 2 / 2))


def test_displacement_branch_restriction():
    with pytest.raises(IndexError):
        displacement_element(1, 2, 0.5 + 0.5j)


def test_displacement_partial_unitarity_monotone():
    for s in range(4):
        for z in (0.6 + 0.2j, 1.5 - 1.0j):
            terms = [abs(displacement_element(m, s, z)) ** 2
                     for m in range(s, s + 70)]
            partials = np.cumsum(terms)
            assert np.all(np.diff(partials) >= 0)
            assert partials[-1] <= 1.0 + 1e-12
            if s >= 1:
                assert partials[-1] < 1.0


def test_phi_square_sum_equals_scaled_normalization():
    # sum_n |phi_{n;s}(z)|^2 = e^{-t} N_s(t), < 1 for s >= 1
    for s in range(4):
        for z in (0.8 + 0.1j, 1.8 - 0.7j):
            t = abs(z) ** 2
            total = sum(abs(phi(BasisLabel("L", n, s), z)) ** 2
                        for n in range(80))
            assert total == pytest.approx(normalization_scaled(s, t), abs=1e-12)
            if s >= 1:
                assert total < 1.0


def test_radial_density_normalization():
    rule = gauss_laguerre_rule(60)
    for s in range(5):
        for n in range(0, 9, 2):
            vals = [math.exp(u) * gamma_like_pdf(n, s, u)
                    for u in rule.radial_nodes]
            assert abs(float(np.dot(rule.radial_weights, vals)) - 1.0) < 1e-10


def test_occupancy_distribution_normalization():
    for t in (0.5, 2.0, 10.0):
        for s in range(5):
            assert abs(sum(poisson_like_pmf(n, s, t)
                           for n in range(250)) - 1.0) < 1e-10


def test_distributions_reduce_to_gamma_and_poisson_at_s_zero():
    for t in (0.3, 2.0, 9.0):
        for n in range(6):
            assert gamma_like_pdf(n, 0, t) == pytest.approx(
                math.exp(-t) * t**n / math.factorial(n), rel=1e-13)
            assert poisson_like_pmf(n, 0, t) == pytest.approx(
                math.exp(-t) * t**n / math.factorial(n), rel=1e-13)


def _pdf_scalar(n, s, t):
    """The radial density one point at a time, from the scalar laguerre."""
    if t == 0.0:
        return 1.0 if n == 0 else 0.0
    lag = laguerre(s, n, t)
    if lag == 0.0:
        return 0.0
    logv = (log_factorial(s) - log_factorial(s + n)
            - t + n * math.log(t) + 2.0 * math.log(abs(lag)))
    return math.exp(logv) if logv > -745.0 else 0.0


def _assert_matches_scalar(got, want, n, s, t):
    """Relative agreement at 1e-13, widened by the conditioning of L_s^(n)(t)
    (coefficient scale over value): near a zero of L the finite sum behind
    the scalar form loses digits that the table keeps."""
    if want == 0.0:
        assert got == 0.0, (n, s, t)
        return
    cond = laguerre_scale(s, n, t) / abs(laguerre(s, n, t))
    assert abs(got - want) <= 1e-13 * want * cond, (n, s, t)


def test_gamma_like_pdf_array_matches_scalar_form():
    u = np.concatenate([[0.0, 3.0], gauss_laguerre_rule(60).radial_nodes])
    for s in range(5):
        for n in range(0, 31, 5):
            got = gamma_like_pdf(n, s, u)
            assert got.shape == u.shape
            for g, t in zip(got, u):
                _assert_matches_scalar(g, _pdf_scalar(n, s, float(t)),
                                       n, s, float(t))
    grid = gamma_like_pdf(np.arange(4), 2, u.reshape(2, -1))
    assert grid.shape == (4, 2, u.size // 2)
    assert isinstance(gamma_like_pdf(2, 1, 0.5), float)


def test_poisson_like_pmf_array_matches_scalar_form():
    ns = np.arange(250)
    for s in range(5):
        for t in (0.0, 0.5, 2.0, 10.0, 40.0):
            got = poisson_like_pmf(ns, s, t)
            norm = normalization_scaled(s, t)
            for n in ns[::3]:
                _assert_matches_scalar(got[n], _pdf_scalar(int(n), s, t) / norm,
                                       int(n), s, t)


def test_normalization_series_terms_on_verify_grid():
    # the grid of basis.normalization_closed_vs_series; the total is the
    # one the scalar-laguerre series used
    used = sum(normalization_series(s, float(t))[1]
               for s in range(7) for t in np.linspace(0.5, 50.0, 25))
    assert used == 14_139


def test_radial_series_build_no_laguerre_coefficients(monkeypatch):
    builds = []

    def counted(s, alpha):
        builds.append((s, alpha))
        return laguerre_coeffs(s, alpha)

    monkeypatch.setattr(specfun, "laguerre_coeffs", counted)
    normalization_series(3, 50.0)
    assert builds == []
    for s in range(5):
        for t in (0.5, 10.0):
            builds.clear()
            poisson_like_pmf(np.arange(250), s, t)
            # N_s(t) too takes its factors from the degree recurrence
            assert builds == []


@settings(max_examples=40)
@given(st.integers(0, 4), st.integers(0, 30),
       st.floats(min_value=0.0, max_value=60.0, allow_nan=False))
def test_distribution_values_in_range(s, n, t):
    p = poisson_like_pmf(n, s, t)
    assert 0.0 <= p <= 1.0 + 1e-12


def test_cs_coefficients_unit_norm(rng):
    for s in range(4):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c = cs_coefficients(s, z, 70)
        assert abs(np.sum(np.abs(c) ** 2) - 1.0) < 1e-13


def test_cs_coefficients_tail_error():
    with pytest.raises(TailError):
        cs_coefficients(0, 3.0 + 0.0j, 5)


def test_cs_coefficients_of_an_array_are_the_scalar_vectors():
    zs = np.array([[0.0, 0.6 - 0.2j, -1.5 + 1.0j],
                   [2.0j, -0.3, 1.1 + 1.1j]])
    for s in range(4):
        for eps in ("L", "R"):
            table = cs_coefficients(s, zs, 60, eps)
            assert table.shape == (60,) + zs.shape
            for idx in np.ndindex(zs.shape):
                scalar = cs_coefficients(s, complex(zs[idx]), 60, eps)
                assert np.array_equal(table[(slice(None),) + idx], scalar)


def test_cs_coefficients_tail_error_names_the_worst_point():
    zs = np.array([1.0, -3.0, 2.5j, 3.0j, 0.5])
    with pytest.raises(TailError, match=r"z = \(-3\+0j\)"):
        cs_coefficients(0, zs, 8)


def test_displacement_elements_of_an_array_are_the_scalar_values():
    for s in range(4):
        for z in (0.6 + 0.2j, 1.5 - 1.0j, 0.0):
            ms = np.arange(s, s + 80)
            table = displacement_element(ms, s, z)
            assert table.shape == ms.shape
            for m, value in zip(ms.tolist(), table.tolist()):
                scalar = displacement_element(m, s, z)
                assert type(scalar) is complex and scalar == value
    with pytest.raises(IndexError):
        displacement_element(np.arange(1, 5), 2, 0.5)


def test_cs_coefficients_sector_phases():
    z = 0.9 + 0.4j
    cl = cs_coefficients(1, z, 40, "L")
    cr = cs_coefficients(1, z, 40, "R")
    assert np.allclose(cr, np.conj(cl))
