import math

import numpy as np
import pytest

from hermquant.basis import BasisLabel, phi
from hermquant.errors import HintViolation, TailError
from hermquant.exact import exact_max_abs, exact_sub
from hermquant.matrices import build_A_z, build_A_zbar, build_AH, build_Aq2
from hermquant.quadrature import QuadratureRule, gauss_laguerre_rule
from hermquant.quantize import (Monomial, Sampled, angular_phase_sign,
                                default_rule, laguerre_integral,
                                laguerre_integral_quadrature, lower_symbol,
                                quantize_monomial, quantize_numeric)
from hermquant.tridiag import golub_welsch

from oracles import monomial_band, quad2d_gauss


def test_gauss_laguerre_single_node():
    rule = gauss_laguerre_rule(1)
    assert rule.radial_nodes[0] == pytest.approx(1.0)
    assert rule.radial_weights[0] == pytest.approx(1.0)


def test_gauss_laguerre_moment_exactness():
    for n_r in (5, 12, 25):
        rule = gauss_laguerre_rule(n_r)
        for k in range(2 * n_r):
            got = float(np.dot(rule.radial_weights, rule.radial_nodes**k))
            assert abs(got - math.factorial(k)) <= 1e-13 * math.factorial(k)


def test_gauss_laguerre_radial_part_is_shared_and_read_only():
    a, b = gauss_laguerre_rule(23, 1), gauss_laguerre_rule(23, 9)
    assert a.radial_nodes is b.radial_nodes
    assert a.radial_weights is b.radial_weights
    with pytest.raises(ValueError):
        b.radial_nodes[0] = 0.0
    with pytest.raises(ValueError):
        a.radial_weights[0] = 0.0


def test_gauss_laguerre_cached_rule_equals_fresh_golub_welsch():
    for n_r in (1, 2, 20, 60):
        k = np.arange(n_r, dtype=float)
        nodes, weights = golub_welsch(2.0 * k + 1.0, k[1:])
        rule = gauss_laguerre_rule(n_r, 5)
        assert np.array_equal(rule.radial_nodes, nodes)
        assert np.array_equal(rule.radial_weights, weights)


@pytest.mark.parametrize("n_r, m", [(0, 1), (-3, 1), (4, 0)])
def test_gauss_laguerre_rejects_empty_rules(n_r, m):
    with pytest.raises(ValueError):
        gauss_laguerre_rule(n_r, m)


def test_gauss_laguerre_reproduces_weighted_orthogonality():
    rule = gauss_laguerre_rule(40)
    u = rule.radial_nodes
    from hermquant.specfun import laguerre
    for alpha in (0, 1, 2):
        for m in range(8):
            for n in range(8):
                val = float(np.dot(rule.radial_weights,
                                   u**alpha * laguerre(m, alpha, u)
                                   * laguerre(n, alpha, u)))
                want = (math.gamma(1 + alpha) * math.comb(n + alpha, n)
                        if m == n else 0.0)
                assert abs(val - want) < 1e-11 * max(1.0, abs(want))


def test_angular_sign_convention():
    assert angular_phase_sign("L") == 1
    assert angular_phase_sign("R") == -1


@pytest.mark.parametrize("epsilon", ["L", "R"])
def test_unit_monomial_is_identity(epsilon):
    for s in range(4):
        op = quantize_monomial(0, 0, s, epsilon, 9)
        assert np.allclose(op.entries, np.eye(9))


def test_linear_monomial_matches_ladder_matrix():
    for s in range(4):
        got = quantize_monomial(1, 0, s, "L", 9)
        assert np.allclose(got.entries, build_A_z(s, 9, "L").entries)
        gotr = quantize_monomial(1, 0, s, "R", 9)
        assert np.allclose(gotr.entries, build_A_z(s, 9, "R").entries)


def test_modulus_square_is_shifted_number_operator():
    for s in range(4):
        op = quantize_monomial(1, 1, s, "L", 9)
        assert np.allclose(op.entries, np.diag(np.arange(9) + 2 * s + 1))


def test_square_monomials_give_double_shift_band():
    for s in range(4):
        up = quantize_monomial(2, 0, s, "L", 9).entries
        dn = quantize_monomial(0, 2, s, "L", 9).entries
        n = np.arange(7)
        want = np.sqrt((n + s + 1) * (n + s + 2))
        assert np.allclose(np.diag(up, 2), want)
        assert np.allclose(dn, up.conj().T)


def test_position_square_decomposition_matches_builder():
    for s in range(4):
        comb = (quantize_monomial(1, 1, s, "L", 12).entries
                + 0.5 * (quantize_monomial(2, 0, s, "L", 12).entries
                         + quantize_monomial(0, 2, s, "L", 12).entries))
        assert np.abs(comb - build_Aq2(s, 12).entries).max() < 1e-10


def test_closed_form_vs_numeric_integral():
    worst = 0.0
    for s in range(4):
        for eps in ("L", "R"):
            for a in range(5):
                for b in range(5 - a):
                    closed = quantize_monomial(a, b, s, eps, 12)
                    numeric = quantize_numeric(Monomial(a, b), s, eps, 12)
                    scale = max(1.0, np.abs(closed.entries).max())
                    worst = max(worst, float(np.abs(
                        closed.entries - numeric.entries).max()) / scale)
    assert worst < 1e-10


def test_numeric_quantization_stays_finite_at_large_dim():
    # u^{(n+n')/2} alone overflows a float at N = 150, a RuntimeWarning and
    # so an error here; the radial factors come from log magnitudes instead
    numeric = quantize_numeric(Monomial(2, 1), 3, "R", 150).entries
    closed = quantize_monomial(2, 1, 3, "R", 150).entries
    assert np.abs(numeric - closed).max() <= 1e-12 * np.abs(closed).max()


def test_negative_exponents_are_rejected_by_both_methods():
    for a, b in ((-1, 0), (0, -2)):
        with pytest.raises(ValueError, match="exponents must be nonnegative"):
            quantize_monomial(a, b, 0, "L", 3)
        with pytest.raises(ValueError, match="exponents must be nonnegative"):
            quantize_numeric(Monomial(a, b), 0, "L", 3)


def test_band_selection_rule():
    for s in range(3):
        for eps in ("L", "R"):
            for (a, b) in ((1, 0), (2, 1), (0, 3)):
                # n - n' = eps (b - a) with eps = +1 for L: column minus
                # row is eps (a - b)
                off = (1 if eps == "L" else -1) * (a - b)
                closed = quantize_monomial(a, b, s, eps, 10)
                assert set(closed.bands) == set(closed.exact) == {off}
                assert (closed.band_low, closed.band_high) == (off, off)
                numeric = quantize_numeric(Monomial(a, b), s, eps, 10)
                mask = ~np.eye(10, k=off, dtype=bool)
                assert np.abs(numeric.entries[mask]).max() < 1e-12


@pytest.mark.parametrize("eps", ["L", "R"])
@pytest.mark.parametrize("s", range(5))
def test_monomials_equal_the_matrix_builders_exactly(s, eps):
    # z, zbar and |z|^2 quantize to the builders' exact bands, and so to
    # the same floats
    for (a, b), build in (((1, 0), build_A_z), ((0, 1), build_A_zbar),
                          ((1, 1), build_AH)):
        closed, built = quantize_monomial(a, b, s, eps, 9), build(s, 9, eps)
        # A_H holds its exact bands at twice their value
        assert {k: [x * built.exact_scale for x in d]
                for k, d in closed.exact.items()} == built.exact
        assert np.array_equal(closed.entries, built.entries)
    # q^2 = (z^2 + zbar^2)/2 + z zbar, doubled to stay on integers; the
    # exact bands of A_{q^2} hold 2 A_{q^2}
    zzbar, z2, zbar2 = (quantize_monomial(a, b, s, eps, 9).exact
                        for a, b in ((1, 1), (2, 0), (0, 2)))
    rest = build_Aq2(s, 9, eps).exact
    for term in (zzbar, zzbar, z2, zbar2):
        rest = exact_sub(rest, term)
    assert exact_max_abs(rest) == 0.0


def test_adjoint_covariance_under_conjugation():
    for s in range(3):
        for (a, b) in ((1, 0), (2, 1), (0, 3), (2, 2)):
            direct = quantize_monomial(a, b, s, "L", 9).entries
            swapped = quantize_monomial(b, a, s, "L", 9).entries
            assert np.allclose(direct, swapped.conj().T)


def test_mirror_relation_between_sectors():
    # R-sector operator of f equals the conjugate L-sector operator of conj f
    for (a, b) in ((1, 0), (2, 1), (3, 0)):
        right = quantize_monomial(a, b, 2, "R", 9).entries
        left = quantize_monomial(b, a, 2, "L", 9).entries
        assert np.allclose(right, np.conj(left))


def test_sampled_function_with_hints():
    # q^2 written as a sampled function: F(u, theta) = u (1 + cos 2 theta)
    f = Sampled(lambda u, th: u * (1.0 + np.cos(2.0 * th)),
                max_angular_freq=2, radial_degree=1)
    for s in range(3):
        got = quantize_numeric(f, s, "L", 10)
        assert np.abs(got.entries - build_Aq2(s, 10).entries).max() < 1e-10


def test_sampled_without_hints_raises():
    with pytest.raises(HintViolation):
        quantize_numeric(Sampled(lambda u, th: u), 0, "L", 6)
    # an explicit rule overrides the missing hints
    rule = default_rule(Monomial(1, 1), 0, 6)
    quantize_numeric(Sampled(lambda u, th: u + 0 * th), 0, "L", 6, rule=rule)


def test_real_symbol_quantizes_to_hermitian():
    f = Sampled(lambda u, th: np.sqrt(u) * np.cos(th) + u * np.sin(th) ** 2,
                max_angular_freq=2, radial_degree=1)
    op = quantize_numeric(f, 1, "L", 10).entries
    assert np.abs(op - op.conj().T).max() < 1e-12


def test_numeric_matches_independent_quadrature_oracle():
    # spot-check one matrix element against a from-scratch 2D integral
    s, eps, n, npr = 1, "L", 2, 3
    rule = gauss_laguerre_rule(30)
    lbl_n = BasisLabel(eps, n, s)
    lbl_np = BasisLabel(eps, npr, s)

    def integrand(z):
        # f(z) = z: matrix element <n| A_z |n'> = int conj(phi_n) z phi_n' * weightless
        return (np.conj(phi(lbl_n, z)) * z * phi(lbl_np, z)
                * np.exp(abs(z) ** 2))

    got = quad2d_gauss(integrand, rule.radial_nodes, rule.radial_weights, 31)
    want = quantize_monomial(1, 0, s, eps, 6).entries[n, npr]
    assert abs(got - want) < 1e-10


def test_lower_symbol_of_identity_is_one():
    op = quantize_monomial(0, 0, 2, "L", 40)
    for z in (0.3, 1.1 - 0.7j):
        assert lower_symbol(op, z, 2) == pytest.approx(1.0, abs=1e-12)


def test_lower_symbol_of_energy_operator(rng):
    ah = build_AH(0, 70)
    for _ in range(5):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        t = abs(z) ** 2
        assert lower_symbol(ah, z, 0) == pytest.approx(t + 1.0, abs=1e-10)


def test_lower_symbol_dimension_guard():
    with pytest.raises(TailError):
        lower_symbol(build_AH(0, 6), 3.0 + 0.0j, 0)


def test_laguerre_integral_orthogonality_reduction():
    # int x^alpha e^{-x} L_m^(alpha) L_n^(alpha) = delta_mn (n+alpha)!/n!,
    # scaled by m! n!
    for alpha in (0, 1, 2):
        for m in range(5):
            for n in range(5):
                want = (math.factorial(n) * math.factorial(n + alpha)
                        if m == n else 0)
                assert laguerre_integral(alpha, alpha, alpha, m, n) == want


def test_laguerre_integral_trivial_case():
    for lam in (0, 3, 7):
        assert laguerre_integral(lam, 1, 4, 0, 0) == math.factorial(lam)


def test_laguerre_integral_single_polynomial_reduction():
    # r! int x^lam e^{-x} L_r^(alpha) = lam! (alpha - lam)_r, a polynomial
    # in alpha, so it holds for alpha below lam as well
    for lam in (1, 3):
        for alpha in (0, 2, 5):
            for r in range(6):
                want = math.factorial(lam) * math.prod(
                    alpha - lam + j for j in range(r))
                assert laguerre_integral(lam, alpha, 5, r, 0) == want


def test_laguerre_integral_prefactor_pole_cancellation():
    # the terminating-3F2 form of this integral is 0 * inf here; the integer
    # sum has no pole and gives -12 = -144 / (2! 3!)
    assert laguerre_integral(2, 1, 1, 2, 3) == -144
    assert laguerre_integral_quadrature(2, 1, 1, 2, 3) == pytest.approx(
        -12.0, abs=1e-12)


INTEGER_CASES = ((2, 1, 1, 2, 3), (0, 1, 1, 4, 4), (3, 2, 0, 3, 5),
                 (1, 0, 2, 5, 2), (4, 2, 6, 3, 1), (5, 0, 3, 6, 2),
                 (0, 0, 0, 0, 0))


def _unscaled(lam, alpha, beta, r, s) -> float:
    return (laguerre_integral(lam, alpha, beta, r, s)
            / (math.factorial(r) * math.factorial(s)))


def test_laguerre_integral_routes_agree():
    for case in INTEGER_CASES:
        exact = _unscaled(*case)
        got = laguerre_integral_quadrature(*case)
        assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


def test_quadrature_route_needs_every_node(monkeypatch):
    # ceil((r+s+lam+1)/2) nodes integrate the degree r+s+lam exactly; one
    # fewer does not, so the route carries no spare nodes
    from hermquant import quantize

    rule = quantize.gauss_laguerre_rule
    monkeypatch.setattr(quantize, "gauss_laguerre_rule",
                        lambda n_r: rule(n_r - 1))
    for case in INTEGER_CASES[:-1]:  # the last case has a single node
        exact = _unscaled(*case)
        got = laguerre_integral_quadrature(*case)
        assert abs(got - exact) > 1e-6 * max(1.0, abs(exact))


def test_laguerre_integral_domain_guard():
    for args in ((-1, 1, 1, 1, 1), (2, -1, 0, 1, 1), (2, 0, 0, -1, 1),
                 (1.5, 1, 1, 1, 1), (2, 0.5, 1, 2, 0), (2.0, 1, 1, 2, 3)):
        with pytest.raises(ValueError):
            laguerre_integral(*args)


@pytest.mark.parametrize("N", [1, 12, 60])
def test_monomial_bands_equal_the_integer_sum_oracle(N):
    for s in range(7):
        for eps in ("L", "R"):
            for a in range(5):
                for b in range(5):
                    assert (quantize_monomial(a, b, s, eps, N).exact
                            == monomial_band(a, b, s, eps, N))


def test_default_rule_tables_are_shared_and_read_only():
    from hermquant import quantize

    f = Monomial(2, 1)
    first = quantize_numeric(f, 2, "R", 9).entries
    n_r = default_rule(f, 2, 9).radial_nodes.size
    pairs = quantize._shared_radial_pairs(2, 9, n_r)
    assert pairs is quantize._shared_radial_pairs(2, 9, n_r)
    assert not any(row.flags.writeable for row in pairs)
    assert np.array_equal(quantize_numeric(f, 2, "R", 9).entries, first)


def test_a_callers_rule_never_reads_a_shared_table():
    # a rule of the default size on other nodes: its own nodes give its
    # own radial factors, however many default tables exist already
    f = Monomial(1, 1)
    shared = default_rule(f, 1, 8)
    quantize_numeric(f, 1, "L", 8)
    moved = QuadratureRule(shared.radial_nodes * 1.01, shared.radial_weights,
                           shared.angular_count)
    got = quantize_numeric(f, 1, "L", 8, rule=moved).entries
    # z zbar = u has no angular part: the rule's sum of e^u phi_n^2 u
    u = moved.radial_nodes
    phi2 = np.array([np.abs(phi(BasisLabel("L", n, 1), np.sqrt(u))) ** 2
                     for n in range(8)]) * np.exp(u)
    want = np.diag(phi2 @ (moved.radial_weights * u))
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()
    assert np.abs(got - quantize_numeric(f, 1, "L", 8).entries).max() > 1e-3
