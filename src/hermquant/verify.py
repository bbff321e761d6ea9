"""End-to-end verification sweeps.

Each suite returns a list of CheckResult records; `run` dispatches by name
and `report_json` renders the machine-readable form consumed by the CLI.
Tolerances: 0.0 for exact-arithmetic checks, 1e-10 for quadrature-backed
identities, 1e-7 for two-dimensional reproduction integrals.
"""

from __future__ import annotations

import inspect
import json
import math
import os
from fractions import Fraction
from functools import partial

import numpy as np

from . import (__version__, basis, ladder, matrices, physics, quantize,
               spectral)
from .basis import kernel, kernel_s1_closed, normalization, \
    normalization_series, reproduce
from .quadrature import gauss_laguerre_rule, grid_points
from .report import CheckResult
from .specfun import (complex_hermite, complex_hermite_coeffs,
                      complex_hermite_exact, complex_hermite_laguerre,
                      complex_hermite_laguerre_exact)

QUAD_TOL = 1e-10
REPRO_TOL = 1e-7


def _hermite_member(s: int, n: int):
    """e^{-|z|^2/2} h^{s+n,s}(z, zbar), a member of the L sector s, from the
    double sum of h: evaluated on a whole grid, without the phi table."""
    coeffs = complex_hermite_coeffs(s + n, s)

    def f(z):
        return np.exp(-np.abs(z) ** 2 / 2.0) * sum(
            c * z ** i * np.conj(z) ** j for (i, j), c in coeffs.items())
    return f


def _family_gram(s: int, n_max: int, family) -> np.ndarray:
    """Gram matrix of the functions family(ns, z)[n], n <= n_max, each a
    polynomial times e^{-|z|^2/2}, integrated by a polar rule exact for every
    entry; family gives shape ns.shape + z.shape."""
    rule = gauss_laguerre_rule(n_max + 2 * s + 10, 2 * n_max + 3)
    zg = grid_points(rule).ravel()
    vals = family(np.arange(n_max + 1), zg)
    # the rule's weights carry e^{-|z|^2}, which the functions already hold
    w = np.repeat(np.exp(rule.radial_nodes) * rule.radial_weights
                  / rule.angular_count, rule.angular_count)
    return (vals * w) @ vals.conj().T


def hermite_orthogonality_residual(s: int, n_max: int) -> float:
    """Worst normalized residual of the Gram matrix of h^{s+n,s} against
    diag(s!(s+n)!), integrated by the exact polar rule."""
    gram = _family_gram(s, n_max, lambda ns, z: np.array(
        [_hermite_member(s, n)(z) for n in ns]))
    norms = np.array([float(math.factorial(s) * math.factorial(s + n))
                      for n in range(n_max + 1)])
    scale = np.sqrt(np.outer(norms, norms))
    return float((np.abs(gram - np.diag(norms)) / scale).max())


def phi_gram_residual(s: int, n_max: int) -> float:
    """Worst deviation of the phi_{n;s} Gram matrix from the identity."""
    gram = _family_gram(s, n_max, partial(basis.phi_values, s))
    return float(np.abs(gram - np.eye(n_max + 1)).max())


def suite_basis(seed: int = 20240901) -> list:
    rng = np.random.default_rng(seed)
    checks = []

    worst = max(hermite_orthogonality_residual(s, 8) for s in range(5))
    checks.append(CheckResult(
        "basis.hermite_family_orthogonality", worst, 1e-8, 5 * 81,
        "s<=4, n<=8"))

    worst = max(phi_gram_residual(s, 10) for s in range(5))
    checks.append(CheckResult("basis.phi_gram_is_identity", worst, 1e-9,
                              5 * 121, "s<=4, n<=10"))

    worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s = int(rng.integers(0, 13))
        n = int(rng.integers(0, 13))
        a = complex_hermite_exact(s + n, s, z)
        b = complex_hermite_laguerre_exact(s, n, z)
        worst = max(worst, abs(a - b) / max(1.0, abs(a), abs(b)))
    checks.append(CheckResult(
        "basis.hermite_double_sum_vs_laguerre_form", worst, 1e-12, 100,
        "random z"))

    # the float paths agree to machine precision relative to the coefficient
    # scale (cancellation caps value-relative accuracy beyond degree ~ 20)
    worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s = int(rng.integers(0, 13))
        n = int(rng.integers(0, 13))
        a = complex_hermite(s + n, s, z)
        b = complex_hermite_laguerre(s, n, z)
        scale = sum(abs(c) * abs(z) ** (i + j)
                    for (i, j), c in complex_hermite_coeffs(s + n, s).items())
        worst = max(worst, abs(a - b) / max(1.0, scale))
    checks.append(CheckResult(
        "basis.hermite_float_paths_scale_relative", worst, 1e-13, 100,
        "random z"))

    worst = 0.0
    bound_ok = True
    for s in range(7):
        for t in np.linspace(0.5, 50.0, 25):
            closed = normalization(s, float(t))
            series, _ = normalization_series(s, float(t))
            worst = max(worst, abs(closed - series) / abs(series))
            if s >= 1:
                # strict upper bound checked through the subtracted polynomial,
                # which stays resolvable after e^t - N_s saturates in floats
                if not (0.0 < closed <= math.exp(t)
                        and basis.normalization_deficit_log(s, float(t)) > -math.inf):
                    bound_ok = False
    checks.append(CheckResult(
        "basis.normalization_closed_vs_series", worst, 1e-10, 7 * 25,
        "t in (0, 50]"))
    checks.append(CheckResult("basis.normalization_strictly_below_exponential",
                              float(not bound_ok), 0.0, 6 * 25))

    worst0 = worst1 = wsym = 0.0
    for _ in range(20):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        k0 = kernel(0, a, b).value
        worst0 = max(worst0, abs(k0 - np.exp(np.conj(a) * b)) / max(1.0, abs(k0)))
        k1 = kernel(1, a, b).value
        worst1 = max(worst1, abs(k1 - kernel_s1_closed(a, b)) / max(1.0, abs(k1)))
        wsym = max(wsym, abs(k1 - np.conj(kernel(1, b, a).value)))
    checks.append(CheckResult(
        "basis.kernel_s0_is_exponential", worst0, QUAD_TOL, 20))
    checks.append(CheckResult(
        "basis.kernel_s1_matches_closed_form", worst1, 1e-8, 20))
    checks.append(CheckResult(
        "basis.kernel_hermitian_symmetry", wsym, QUAD_TOL, 20))

    # members in the double-sum form of h, which does not read the phi
    # table that the kernel is built from
    worst = 0.0
    for s in (0, 1, 2):
        f = _hermite_member(s, 0)
        worst = max(worst, abs(reproduce(s, 0.7 + 0.3j, f, n_max=4)
                               - f(0.7 + 0.3j)))
    f = _hermite_member(1, 3)
    for _ in range(5):
        pt = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        worst = max(worst, abs(reproduce(1, pt, f, n_max=5) - f(pt)))
    worst_cross = abs(reproduce(1, 0.4 + 0.2j, _hermite_member(3, 2), n_max=4,
                                f_degree=1 + 3))
    checks.append(CheckResult(
        "basis.kernel_reproduces_members", worst, REPRO_TOL, 8))
    checks.append(CheckResult(
        "basis.kernel_annihilates_other_sectors", worst_cross, REPRO_TOL, 1))

    rule = gauss_laguerre_rule(60)
    u = rule.radial_nodes
    worst_pdf = 0.0
    for s in range(5):
        for n in range(0, 9, 2):
            tot = float(np.dot(rule.radial_weights,
                               np.exp(u) * basis.gamma_like_pdf(n, s, u)))
            worst_pdf = max(worst_pdf, abs(tot - 1.0))
    worst_pmf = 0.0
    for t in (0.5, 2.0, 10.0):
        for s in range(5):
            tot = float(np.sum(basis.poisson_like_pmf(np.arange(250), s, t)))
            worst_pmf = max(worst_pmf, abs(tot - 1.0))
    checks.append(CheckResult(
        "basis.radial_density_normalized", worst_pdf, QUAD_TOL, 25))
    checks.append(CheckResult(
        "basis.occupancy_distribution_normalized", worst_pmf, QUAD_TOL, 15))

    # displacement partial sums: nondecreasing, bounded by one, tail-complete
    ok = True
    worst = 0.0
    for s in range(4):
        for zv in (0.6 + 0.2j, 1.5 - 1.0j):
            t = abs(zv) ** 2
            terms = [abs(basis.displacement_element(m, s, zv)) ** 2
                     for m in range(s, s + 80)]
            partials = np.cumsum(terms)
            if np.any(np.diff(partials) < 0) or np.any(partials > 1 + 1e-12):
                ok = False
            expected_tail = basis.normalization_scaled(s, t)
            worst = max(worst, abs(partials[-1] - expected_tail))
            if s >= 1 and partials[-1] >= 1.0:
                ok = False
    checks.append(CheckResult(
        "basis.displacement_partial_unitarity", worst, QUAD_TOL, 8,
        "nondecreasing, < 1 for s >= 1"))
    checks.append(CheckResult("basis.displacement_monotonicity",
                              float(not ok), 0.0, 8))
    return checks


def suite_ladder() -> list:
    return ladder.verify_commutators_full(10, 8)


def suite_nlpb() -> list:
    checks = ladder.nlpb_verify(30, 8)
    for s in (0, 1, 2, 3):
        checks.extend(ladder.dual_hamiltonian_verify(30, s))
    return checks


def suite_quantize(seed: int = 20240902) -> list:
    checks = []
    worst = 0.0
    witness = None
    for s in range(4):
        for eps in ("L", "R"):
            for a in range(5):
                for b in range(5 - a):
                    closed = quantize.quantize_monomial(a, b, s, eps, 12)
                    numeric = quantize.quantize_numeric(
                        quantize.Monomial(a, b), s, eps, 12)
                    scale = max(1.0, float(np.abs(closed.entries).max()))
                    res = float(np.abs(closed.entries - numeric.entries).max()) / scale
                    if res > worst:
                        worst, witness = res, f"a={a} b={b} s={s} eps={eps}"
    checks.append(CheckResult(
        "quantize.closed_form_vs_integral", worst, QUAD_TOL, 4 * 2 * 15,
        witness))

    worst = max(float(np.abs(quantize.quantize_monomial(0, 0, s, eps, 10).entries
                             - np.eye(10)).max())
                for s in range(4) for eps in ("L", "R"))
    checks.append(CheckResult(
        "quantize.unit_function_resolves_identity", worst, 1e-12, 8))

    worst = 0.0
    for s in range(4):
        for eps in ("L", "R"):
            for (a, b) in ((1, 0), (2, 0), (2, 1), (0, 3), (1, 1)):
                op = quantize.quantize_monomial(a, b, s, eps, 10)
                worst = max(worst, op.band_violation())
                adj = quantize.quantize_monomial(b, a, s, eps, 10)
                worst = max(worst, float(np.abs(
                    op.entries - adj.entries.conj().T).max()))
    checks.append(CheckResult(
        "quantize.band_rule_and_adjoint_covariance", worst, 1e-12, 40))

    worst = 0.0
    for s in range(4):
        comb = (quantize.quantize_monomial(1, 1, s, "L", 12).entries
                + 0.5 * (quantize.quantize_monomial(2, 0, s, "L", 12).entries
                         + quantize.quantize_monomial(0, 2, s, "L", 12).entries))
        worst = max(worst, float(np.abs(
            comb - matrices.build_Aq2(s, 12).entries).max()))
    checks.append(CheckResult("quantize.position_square_decomposition", worst,
                              QUAD_TOL, 4))

    rng = np.random.default_rng(seed)
    worst = 0.0
    ah = matrices.build_AH(0, 80)
    for _ in range(6):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        t = abs(z) ** 2
        worst = max(worst, abs(quantize.lower_symbol(ah, z, 0) - (t + 1.0)))
    checks.append(CheckResult(
        "quantize.lower_symbol_of_energy", worst, QUAD_TOL, 6))

    neg = 0.0
    aq2 = matrices.build_Aq2(2, 90)
    for _ in range(6):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        val = quantize.lower_symbol(aq2, z, 2).real
        neg = max(neg, -min(0.0, val))
    checks.append(CheckResult(
        "quantize.lower_symbol_nonnegative_for_psd", neg, 0.0, 6))

    worst = 0.0
    from .errors import PoleError
    for (lam, al, be, r, s) in ((2, 1, 1, 2, 3), (0, 1, 1, 4, 4), (3, 2, 0, 3, 5),
                                (1, 0, 2, 5, 2)):
        vals = []
        for route in (quantize.laguerre_integral, quantize.laguerre_integral_swapped):
            try:
                vals.append(route(lam, al, be, r, s))
            except PoleError:
                pass  # each form has its own pole set; the partner covers it
        vals.append(quantize.laguerre_integral_quadrature(lam, al, be, r, s, 40))
        vals.append(quantize.laguerre_integral_moments(lam, al, be, r, s))
        scale = max(1.0, max(abs(v) for v in vals))
        worst = max(worst, (max(vals) - min(vals)) / scale)
    checks.append(CheckResult(
        "quantize.two_laguerre_integral_routes", worst, 1e-9, 4))
    return checks


def suite_spectral() -> list:
    checks = []
    exact_ok = True
    witness = None
    for s in range(7):
        for n in range(1, 21):
            q = spectral.monic_q(n, s)
            h = spectral.assoc_hermite(n, s)
            c = spectral.char_poly(n, s)
            h_scaled = spectral.PolyExact(
                [Fraction(a, 2 ** n) for a in h.coeffs])
            if not (q == c and q == h_scaled and q.is_monic()):
                exact_ok = False
                witness = f"n={n} s={s}"
    checks.append(CheckResult("spectral.three_polynomial_routes_coincide",
                              float(not exact_ok), 0.0, 7 * 20, witness))

    worst_gw = worst_norm = 0.0
    for s in range(5):
        meas = spectral.golub_welsch(s, 40)
        pv = spectral.orthonormal_values(s, 12, meas.nodes)
        gram = (pv * meas.weights) @ pv.T
        worst_gw = max(worst_gw, float(np.abs(gram - np.eye(13)).max()))
        for k in range(13):
            h = spectral.assoc_hermite(k, s)
            hv = np.array([h(x) for x in meas.nodes])
            got = float(np.dot(meas.weights, hv * hv))
            want = 2.0 ** k * math.gamma(k + s + 1) / math.gamma(s + 1)
            worst_norm = max(worst_norm, abs(got - want) / want)
    checks.append(CheckResult(
        "spectral.golub_welsch_orthonormality", worst_gw, 1e-11, 5 * 169,
        "s<=4, k<=12, n=40"))
    checks.append(CheckResult(
        "spectral.hermite_norms_match_measure", worst_norm, 1e-9, 5 * 13))

    sym = 0.0
    inter_ok = True
    for s in range(5):
        ev = spectral.eigenvalues(2, s)
        for n in range(2, 16):
            sym = max(sym, float(np.abs(ev + ev[::-1]).max()))
            ev2 = spectral.eigenvalues(n + 1, s)
            if not all(ev2[i] < ev[i] < ev2[i + 1] for i in range(n)):
                inter_ok = False
            ev = ev2
    checks.append(CheckResult(
        "spectral.spectrum_symmetric_about_zero", sym, 1e-12, 5 * 14))
    checks.append(CheckResult("spectral.interlacing_of_sections",
                              float(not inter_ok), 0.0, 5 * 14))

    rep = spectral.selfadjointness_divergence_test(0, 10_000)
    checks.append(CheckResult("spectral.carleman_sums_diverge",
                              rep.bracket_residual(), 0.0, 10_000,
                              f"sum={rep.partial_sum:.3f}"))

    for s in range(5):
        for n in range(5):
            checks.extend(spectral.assoc_hermite_laguerre_check(n, s))
    return checks


def suite_physics() -> list:
    checks = []
    par = physics.PhysicalParams.compton(physics.ELECTRON_MASS_SI, 3e15)
    lhs = par.hbar ** 2 / (4.0 * par.m * par.ell ** 2)
    rhs = par.m * par.c ** 2
    checks.append(CheckResult("physics.compton_choice_gives_rest_energy",
                              abs(lhs - rhs) / rhs, 5e-16, 1))

    g = physics.gamma_ratio(par)
    checks.append(CheckResult("physics.gamma_ratio_negligible",
                              float(not g < 1e-5), 0.0, 1, f"gamma={g:.3e}"))

    worst = 0.0
    rng = np.random.default_rng(7)
    for _ in range(10):
        q, p = rng.uniform(-1, 1) * 1e-9, rng.uniform(-1, 1) * 1e-24
        z = physics.zeta_map(par, q, p)
        q2, p2 = physics.zeta_inverse(par, z)
        worst = max(worst, abs(q2 - q) / max(abs(q), 1e-300),
                    abs(p2 - p) / max(abs(p), 1e-300))
    checks.append(CheckResult(
        "physics.phase_space_map_round_trip", worst, 1e-13, 10))

    worst = 0.0
    for s in range(4):
        op, rep = physics.build_physical_AH(physics.PhysicalParams.dimensionless(), s, 8)
        want = np.diag(np.arange(8) + 2 * s + 1).astype(complex)
        worst = max(worst, float(np.abs(op.entries - want).max()))
        gaps = np.diff(sorted(rep["levels"]))
        worst = max(worst, float(np.abs(gaps - 1.0).max()))
    checks.append(CheckResult(
        "physics.dimensionless_hamiltonian_diagonal", worst, 1e-12, 4))

    par_osc = physics.PhysicalParams.oscillator(physics.ELECTRON_MASS_SI, 3e15)
    hw = par_osc.hbar * par_osc.omega
    worst = 0.0
    for s in range(4):
        _, rep = physics.build_physical_AH(par_osc, s, 8)
        gaps = np.diff(sorted(rep["levels"]))
        worst = max(worst, float(np.abs(gaps / hw - 1.0).max()))
    checks.append(CheckResult(
        "physics.uniform_gaps_every_sector", worst, 1e-11, 4))

    worst = 0.0
    for s in range(4):
        hh = matrices.build_Hhat(s, 6).entries.real
        worst = max(worst, abs((hh[1, 1] - hh[0, 0]) - (s / 2 + 1)))
        worst = max(worst, abs((hh[2, 2] - hh[1, 1]) - 1.0))
    checks.append(CheckResult(
        "physics.substituted_hamiltonian_first_gap", worst, 0.0, 8))

    worst = 0.0
    for s in range(4):
        ext, _ = physics.infimum_scan(s)
        worst = max(worst, abs(ext - (s + 0.5)))
    checks.append(CheckResult(
        "physics.quantized_square_infimum", worst, 1e-3, 4))

    # with units restored, [Q, P] reads i hbar (1 + s P0): Q and P built in
    # SI units for the electron, compared exactly against its hbar
    res = max(physics.si_commutator_residual(par, s, 10) for s in range(4))
    checks.append(CheckResult(
        "physics.commutator_with_units_keeps_sector_term", res, 0.0, 4))
    return checks


SUITES = {
    "basis": suite_basis,
    "ladder": suite_ladder,
    "nlpb": suite_nlpb,
    "quantize": suite_quantize,
    "spectral": suite_spectral,
    "physics": suite_physics,
}


def _run_suite(name: str, seed: int | None) -> list:
    fn = SUITES[name]
    if seed is not None and "seed" in inspect.signature(fn).parameters:
        return fn(seed)
    return fn()


def run(suite: str = "all", seed: int | None = None) -> list:
    """Run one named suite in this process, or all of them.

    "all" runs the suites, which share no state, in forked worker processes,
    one per usable core, and joins their checks in the order of SUITES, so
    the report equals that of a serial run.  Forked workers inherit this
    process's imports, patched modules and warning filters; a suite's
    exception is re-raised here with its own type.  The seed feeds the
    suites that sample random evaluation points."""
    if suite != "all":
        if suite not in SUITES:
            raise KeyError(f"unknown suite {suite!r}")
        return _run_suite(suite, seed)
    # imported here: they would add about 25 ms to every CLI start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(SUITES), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork")) \
            as pool:
        futures = [pool.submit(_run_suite, name, seed) for name in SUITES]
        return [c for f in futures for c in f.result()]


def report_json(checks, suite: str, seed: int | None = None) -> str:
    """The report as sorted JSON.  Besides the checks it records the seed
    and the hermquant and numpy versions, so reports from different runs can
    be compared."""
    payload = {
        "suite": suite,
        "seed": seed,
        "hermquant_version": __version__,
        "numpy_version": np.__version__,
        "n_checks": len(checks),
        "all_passed": all(c.passed for c in checks),
        "checks": [c.to_dict() for c in checks],
    }
    return json.dumps(payload, indent=1, sort_keys=True)
