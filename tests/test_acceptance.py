"""Acceptance gate: the release criteria, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
Everything here is identity- or oracle-based and runs at desk scale.
"""

import math
import time
from fractions import Fraction
from functools import partial

import numpy as np

from hermquant import basis, matrices, quantize, spectral, verify
from hermquant.basis import BasisLabel, kernel, kernel_s1_closed, \
    normalization, normalization_deficit_log, normalization_series, phi, \
    reproduce
from hermquant.report import worst_case
from hermquant.specfun import (complex_hermite_exact,
                               complex_hermite_laguerre_exact)


def _report(num: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: PASS{suffix}")


def _gate(tol: float, cases) -> float:
    """The largest residual of (residual, witness) cases, asserted <= tol
    by the verify report's rule, under which a NaN case fails."""
    check = worst_case("acceptance", tol, cases)
    assert check.passed, check
    return check.max_residual


def test_criterion_01_hermite_family_orthogonality():
    """Quadrature Gram of h^{s+n,s} equals diag(s!(s+n)!) to 1e-8, s<=4, n<=8."""
    worst = _gate(1e-8, ((verify.hermite_orthogonality_residual(s, 8),
                          f"s={s}") for s in range(5)))
    _report(1, "hermite family orthogonality", f"residual {worst:.2e}")


def test_criterion_02_dual_representation_agreement():
    """Double sum vs Laguerre form at 100 random z, s,n <= 12, rel 1e-12."""
    rng = np.random.default_rng(1234)
    cases = []
    for _ in range(100):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s = int(rng.integers(0, 13))
        n = int(rng.integers(0, 13))
        a = complex_hermite_exact(s + n, s, z)
        b = complex_hermite_laguerre_exact(s, n, z)
        cases.append((abs(a - b) / max(1.0, abs(a), abs(b)), f"s={s} n={n}"))
    worst = _gate(1e-12, cases)
    _report(2, "dual representation agreement", f"residual {worst:.2e}")


def test_criterion_03_normalization():
    """N_0 = e^t and N_1 = e^t - t structurally; closed vs series 1e-10 on
    (0, 50]; strict bound N_s < e^t for s >= 1."""
    for t in np.linspace(0.5, 50.0, 25):
        assert normalization(0, float(t)) == math.exp(t)
        assert normalization(1, float(t)) == math.exp(t) - t
    cases = []
    for s in range(7):
        for t in np.linspace(0.25, 50.0, 25):
            closed = normalization(s, float(t))
            series, _ = normalization_series(s, float(t))
            cases.append((abs(closed - series) / abs(series), f"s={s} t={t}"))
            if s >= 1:
                assert 0.0 < closed <= math.exp(t)
                assert normalization_deficit_log(s, float(t)) > -math.inf
    worst = _gate(1e-10, cases)
    _report(3, "normalization closed form", f"series residual {worst:.2e}")


def test_criterion_04_kernel():
    """s=0 kernel = e^{zbar z'} (1e-10); s=1 vs closed form (1e-8, 20 random
    pairs); reproduction to 1e-7."""
    rng = np.random.default_rng(4321)
    cases0, cases1 = [], []
    for _ in range(20):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        k0 = kernel(0, a, b).value
        cases0.append((abs(k0 - np.exp(np.conj(a) * b)) / max(1.0, abs(k0)),
                       f"z={a} z'={b}"))
        k1 = kernel(1, a, b).value
        closed = kernel_s1_closed(a, b)
        cases1.append((abs(k1 - closed) / max(1.0, abs(closed)),
                       f"z={a} z'={b}"))
    worst0 = _gate(1e-10, cases0)
    worst1 = _gate(1e-8, cases1)

    cases = []
    for s in (0, 1, 2):
        lbl = BasisLabel("L", 0, s)
        got = reproduce(s, 0.7 + 0.3j, partial(phi, lbl), n_max=4)
        cases.append((abs(got - phi(lbl, 0.7 + 0.3j)), f"s={s}"))
    lbl = BasisLabel("L", 3, 1)
    f = partial(phi, lbl)
    for _ in range(5):
        pt = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        cases.append((abs(reproduce(1, pt, f, n_max=5) - phi(lbl, pt)),
                      f"n=3 s=1 z={pt}"))
    worst_rep = _gate(1e-7, cases)
    _report(4, "reproducing kernels",
            f"s0 {worst0:.1e}, s1-closed {worst1:.1e}, repro {worst_rep:.1e}")


def test_criterion_05_commutators_exact():
    """[A_z, A_zbar] = 1 + s P0 and [Q, P] = (-1)^{eps+1} i (1 + s P0),
    exact closed-form arithmetic on interior blocks, N = 20, s <= 6."""
    for s in range(7):
        for eps in ("L", "R"):
            c1 = matrices.verify_weyl_commutator(s, 20, eps)
            c2 = matrices.verify_almost_canonical(s, 20, eps)
            assert c1.passed and c1.max_residual == 0.0, c1
            assert c2.passed and c2.max_residual == 0.0, c2
    _report(5, "almost-canonical commutators", "exact, residual 0")


def test_criterion_06_quantization_oracle():
    """Closed-form matrix elements vs numerical integral, rel 1e-10, for all
    monomials a+b <= 4, both sectors, s <= 3, N = 12."""
    cases = []
    for s in range(4):
        for eps in ("L", "R"):
            for a in range(5):
                for b in range(5 - a):
                    closed = quantize.quantize_monomial(a, b, s, eps, 12)
                    numeric = quantize.quantize_numeric(
                        quantize.Monomial(a, b), s, eps, 12)
                    scale = max(1.0, float(np.abs(closed.entries).max()))
                    cases.append((float(np.abs(
                        closed.entries - numeric.entries).max()) / scale,
                        f"a={a} b={b} s={s} eps={eps}"))
    worst = _gate(1e-10, cases)
    _report(6, "quantization closed form vs integral", f"residual {worst:.2e}")


def test_criterion_07_operator_identities():
    """A_{q^2} = Q^2 + (s+1/2)1 + (s/2)P0 and A_H = Hhat + shift, exact on
    interior blocks; A_H spectrum and Hhat first gap exact."""
    for s in range(7):
        for check in matrices.verify_square_identities(s, 20):
            assert check.passed and check.max_residual == 0.0, check
        ah = np.diag(matrices.build_AH(s, 8).entries).real
        assert np.array_equal(ah, np.arange(8) + 2 * s + 1)
        hh = np.diag(matrices.build_Hhat(s, 8).entries).real
        assert hh[0] == (s + 1) / 2
        assert hh[1] - hh[0] == s / 2 + 1
    _report(7, "operator square identities", "exact, residual 0")


def test_criterion_08_spectral_routes():
    """char_poly = monic_q = 2^{-n} H_n exactly (n <= 20, s <= 6);
    Golub-Welsch orthonormality 1e-11 (k <= 12, n = 40); norms of H_k under
    the measure match 2^k Gamma(k+s+1)/Gamma(s+1) to 1e-9."""
    for s in range(7):
        for n in range(1, 21):
            q = spectral.monic_q(n, s)
            assert spectral.char_poly(n, s) == q
            h = spectral.assoc_hermite(n, s)
            assert spectral.PolyExact(
                [Fraction(c, 2 ** n) for c in h.coeffs]) == q
    gw_cases, norm_cases = [], []
    for s in range(5):
        meas = spectral.golub_welsch(s, 40)
        pv = spectral.orthonormal_values(s, 12, meas.nodes)
        gram = (pv * meas.weights) @ pv.T
        gw_cases.append((float(np.abs(gram - np.eye(13)).max()), f"s={s}"))
        for k in range(13):
            h = spectral.assoc_hermite(k, s)
            hv = np.array([h(x) for x in meas.nodes])
            got = float(np.dot(meas.weights, hv * hv))
            want = 2.0 ** k * math.gamma(k + s + 1) / math.gamma(s + 1)
            norm_cases.append((abs(got - want) / want, f"k={k} s={s}"))
    worst_gw = _gate(1e-11, gw_cases)
    worst_norm = _gate(1e-9, norm_cases)
    _report(8, "spectral measure and polynomial routes",
            f"GW {worst_gw:.1e}, norms {worst_norm:.1e}")


def test_criterion_09_laguerre_factorization():
    """H_{2n}, H_{2n+1} against the associated-Laguerre 3F2 forms at sample
    points, rel 1e-10, n <= 4, s in 0..4 (pole-free throughout)."""
    checks = [check for s in range(5) for n in range(5)
              for check in spectral.assoc_hermite_laguerre_check(n, s)]
    for check in checks:
        assert check.passed, check
    worst = _gate(1e-10, ((c.max_residual, c.name) for c in checks))
    _report(9, "associated-Laguerre factorizations", f"residual {worst:.2e}")


def test_criterion_10_nlpb_and_dual_hamiltonians():
    """Cubic pseudo-boson chain and the dual-Hamiltonian relations, exact on
    index space up to n = 30."""
    for check in verify.suite_nlpb():
        assert check.passed and check.max_residual == 0.0, check
    _report(10, "pseudo-boson and dual-Hamiltonian identities",
            "exact, residual 0, n <= 30")


def test_criterion_11_infimum_scan():
    """The quantized-square infimum check of the report, at tolerance 0:
    A_{q^2} = Q^2 + (s + 1/2) + (s/2) P_0 with its sibling identities
    exactly on the interior block, and a least lower-symbol gap of exactly
    s + 1/2, for s <= 3, in under 30 seconds."""
    start = time.time()
    check = {c.name: c for c in verify.suite_physics()}[
        "physics.quantized_square_infimum"]
    elapsed = time.time() - start
    assert check.tol == 0.0 and check.passed and check.max_residual == 0.0
    assert elapsed < 30.0
    _report(11, "quantized-square infimum",
            f"exact, residual 0 in {elapsed:.1f}s")


def test_criterion_12_distributions():
    """Radial density integrates to one and the occupancy distribution sums
    to one, both to 1e-10."""
    from hermquant.quadrature import gauss_laguerre_rule
    rule = gauss_laguerre_rule(60)
    cases = []
    for s in range(5):
        for n in range(0, 9, 2):
            vals = [math.exp(u) * basis.gamma_like_pdf(n, s, u)
                    for u in rule.radial_nodes]
            cases.append((abs(float(np.dot(rule.radial_weights, vals)) - 1.0),
                          f"density s={s} n={n}"))
    for t in (0.5, 2.0, 10.0):
        for s in range(5):
            cases.append((abs(sum(basis.poisson_like_pmf(n, s, t)
                                  for n in range(250)) - 1.0),
                          f"occupancy s={s} t={t}"))
    worst = _gate(1e-10, cases)
    _report(12, "probability distributions normalized", f"residual {worst:.2e}")
