"""End-to-end verification sweeps.

Each suite returns a list of CheckResult records; `run` dispatches by name
and `report_json` renders the machine-readable form consumed by the CLI.
Tolerances: 0.0 for exact-arithmetic checks, 1e-10 for quadrature-backed
identities, 1e-7 for two-dimensional reproduction integrals.
"""

from __future__ import annotations

import json
import math
from functools import partial

import numpy as np

from . import (__version__, basis, ladder, matrices, physics, quantize,
               spectral)
from .basis import kernel, kernel_s1_closed, normalization, \
    normalization_series, reproduce
from .exact import exact_max_abs, exact_sub
from .quadrature import gauss_laguerre_rule, grid_points
from .report import worst_case
from .specfun import (complex_hermite, complex_hermite_coeffs,
                      complex_hermite_exact, complex_hermite_laguerre,
                      complex_hermite_laguerre_exact)

QUAD_TOL = 1e-10
REPRO_TOL = 1e-7


def _hermite_members(s: int, ns, z) -> np.ndarray:
    """e^{-|z|^2/2} h^{s+n,s}(z, zbar) for n in ns, members of the L sector
    s, with shape ns.shape + z.shape: the double sum of h over tables of the
    powers of z and zbar built once, evaluated without the phi table."""
    ns, z = np.asarray(ns), np.asarray(z, dtype=complex)
    zp = [np.ones_like(z)]
    for _ in range(s + int(np.max(ns, initial=0))):
        zp.append(zp[-1] * z)
    zbp = np.conj(zp)
    gauss = np.exp(-np.abs(z) ** 2 / 2.0)
    return np.reshape([gauss * sum(c * zp[i] * zbp[j] for (i, j), c
                                   in complex_hermite_coeffs(s + n, s).items())
                       for n in ns.ravel().tolist()], ns.shape + z.shape)


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
    gram = _family_gram(s, n_max, partial(_hermite_members, s))
    norms = np.array([float(math.factorial(s) * math.factorial(s + n))
                      for n in range(n_max + 1)])
    scale = np.sqrt(np.outer(norms, norms))
    return float((np.abs(gram - np.diag(norms)) / scale).max())


def phi_gram_residual(s: int, n_max: int) -> float:
    """Worst deviation of the phi_{n;s} Gram matrix from the identity."""
    gram = _family_gram(s, n_max, partial(basis.phi_values, s))
    return float(np.abs(gram - np.eye(n_max + 1)).max())


def _point(rng, r: float = 2.0) -> complex:
    """A uniform draw from the square |Re|, |Im| <= r."""
    return complex(rng.uniform(-r, r), rng.uniform(-r, r))


def _rel(a, b) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def suite_basis(seed: int = 20240901) -> list:
    rng = np.random.default_rng(seed)
    checks = [
        worst_case("basis.hermite_family_orthogonality", 1e-8, (
            (hermite_orthogonality_residual(s, 8), f"s={s}")
            for s in range(5)), 5 * 81),
        worst_case("basis.phi_gram_is_identity", 1e-9, (
            (phi_gram_residual(s, 10), f"s={s}") for s in range(5)), 5 * 121),
    ]

    def hermite_draws():
        for _ in range(100):
            z = _point(rng)
            s = int(rng.integers(0, 13))
            n = int(rng.integers(0, 13))
            yield z, s, n, f"s={s} n={n} z={z:.3f}"

    # both forms are summed in exact integers and rounded once from the same
    # value, so they agree bit for bit
    checks.append(worst_case(
        "basis.hermite_double_sum_vs_laguerre_form", 0.0, (
            (_rel(complex_hermite_exact(s + n, s, z),
                  complex_hermite_laguerre_exact(s, n, z)), wit)
            for z, s, n, wit in hermite_draws())))

    # the float paths agree to machine precision relative to the coefficient
    # scale (cancellation caps value-relative accuracy beyond degree ~ 20)
    def scale_relative(s, n, z):
        scale = sum(abs(c) * abs(z) ** (i + j)
                    for (i, j), c in complex_hermite_coeffs(s + n, s).items())
        return abs(complex_hermite(s + n, s, z)
                   - complex_hermite_laguerre(s, n, z)) / max(1.0, scale)

    checks.append(worst_case(
        "basis.hermite_float_paths_scale_relative", 1e-13, (
            (scale_relative(s, n, z), wit)
            for z, s, n, wit in hermite_draws())))

    closed_vs_series, below_exp = [], []
    ts = np.linspace(0.5, 50.0, 25)
    for s in range(7):
        closed = normalization(s, ts).tolist()
        deficit = basis.normalization_deficit_log(s, ts).tolist()
        series = normalization_series(s, ts)[0].tolist()
        for t, n_s, d, ser in zip(ts.tolist(), closed, deficit, series):
            wit = f"s={s} t={t:.4g}"
            closed_vs_series.append((abs(n_s - ser) / abs(ser), wit))
            if s >= 1:
                # strict upper bound checked through the subtracted polynomial,
                # which stays resolvable after e^t - N_s saturates in floats
                ok = 0.0 < n_s <= math.exp(t) and d > -math.inf
                below_exp.append((float(not ok), wit))
    checks.append(worst_case("basis.normalization_closed_vs_series", 1e-10,
                             closed_vs_series))
    checks.append(worst_case("basis.normalization_strictly_below_exponential",
                             0.0, below_exp))

    s0, s1, sym = [], [], []
    for _ in range(20):
        a, b = _point(rng), _point(rng)
        wit = f"z={a:.3f} z'={b:.3f}"
        k0 = kernel(0, a, b).value
        s0.append((abs(k0 - np.exp(np.conj(a) * b)) / max(1.0, abs(k0)), wit))
        k1 = kernel(1, a, b).value
        s1.append((abs(k1 - kernel_s1_closed(a, b)) / max(1.0, abs(k1)), wit))
        sym.append((abs(k1 - np.conj(kernel(1, b, a).value)), wit))
    checks.append(worst_case("basis.kernel_s0_is_exponential", QUAD_TOL, s0))
    checks.append(worst_case("basis.kernel_s1_matches_closed_form", 1e-8, s1))
    checks.append(worst_case("basis.kernel_hermitian_symmetry", QUAD_TOL, sym))

    # members in the double-sum form of h, which does not read the phi
    # table that the kernel is built from
    members = [(partial(_hermite_members, s, 0), s, 4, 0.7 + 0.3j,
                f"s={s}") for s in (0, 1, 2)]
    f = partial(_hermite_members, 1, 3)
    members += [(f, 1, 5, _point(rng, 1.5), "s=1 n=3") for _ in range(5)]
    checks.append(worst_case("basis.kernel_reproduces_members", REPRO_TOL, (
        (abs(reproduce(s, z, f, n_max=n_max) - f(z)), f"{wit} z={z:.3f}")
        for f, s, n_max, z, wit in members)))
    cross = reproduce(1, 0.4 + 0.2j, partial(_hermite_members, 3, 2),
                      n_max=4, f_degree=1 + 3)
    checks.append(worst_case("basis.kernel_annihilates_other_sectors",
                             REPRO_TOL, [(abs(cross), "s=3 into s=1")]))

    rule = gauss_laguerre_rule(60)
    u = rule.radial_nodes
    checks.append(worst_case("basis.radial_density_normalized", QUAD_TOL, (
        (abs(float(np.dot(rule.radial_weights,
                          np.exp(u) * basis.gamma_like_pdf(n, s, u))) - 1.0),
         f"s={s} n={n}")
        for s in range(5) for n in range(0, 9, 2))))
    checks.append(worst_case(
        "basis.occupancy_distribution_normalized", QUAD_TOL, (
            (abs(float(np.sum(basis.poisson_like_pmf(np.arange(250), s, t)))
                 - 1.0), f"s={s} t={t}")
            for t in (0.5, 2.0, 10.0) for s in range(5))))

    # displacement partial sums: nondecreasing, bounded by one, tail-complete;
    # each condition holds only for numbers, so a NaN partial sum fails it
    tails, shapes = [], []
    for s in range(4):
        for zv in (0.6 + 0.2j, 1.5 - 1.0j):
            wit = f"s={s} z={zv}"
            partials = np.cumsum(np.abs(basis.displacement_element(
                np.arange(s, s + 80), s, zv)) ** 2)
            tails.append((abs(partials[-1]
                              - basis.normalization_scaled(s, abs(zv) ** 2)),
                          wit))
            ok = (np.all(np.diff(partials) >= 0)
                  and np.all(partials <= 1 + 1e-12)
                  and (s == 0 or partials[-1] < 1.0))
            shapes.append((float(not ok), wit))
    checks.append(worst_case("basis.displacement_partial_unitarity", QUAD_TOL,
                             tails))
    checks.append(worst_case("basis.displacement_monotonicity", 0.0, shapes))
    return checks


def suite_ladder() -> list:
    return ladder.verify_commutators_full(10, 8)


def suite_nlpb() -> list:
    checks = ladder.nlpb_verify(30, 8)
    for s in (0, 1, 2, 3):
        checks.extend(ladder.dual_hamiltonian_verify(30, s))
    return checks


def suite_quantize(seed: int = 20240902) -> list:
    def integral_residual(a, b, s, eps):
        closed = quantize.quantize_monomial(a, b, s, eps, 12)
        numeric = quantize.quantize_numeric(quantize.Monomial(a, b), s, eps,
                                            12)
        scale = max(1.0, float(np.abs(closed.entries).max()))
        return float(np.abs(closed.entries - numeric.entries).max()) / scale

    # the closed form's bands are exact values rounded once, so the unit
    # function, the band rule and the adjoint hold with residual 0
    checks = [
        worst_case("quantize.closed_form_vs_integral", QUAD_TOL, (
            (integral_residual(a, b, s, eps), f"a={a} b={b} s={s} eps={eps}")
            for s in range(4) for eps in ("L", "R")
            for a in range(5) for b in range(5 - a))),
        worst_case("quantize.unit_function_resolves_identity", 0.0, (
            (float(np.abs(quantize.quantize_monomial(0, 0, s, eps, 10).entries
                          - np.eye(10)).max()), f"s={s} eps={eps}")
            for s in range(4) for eps in ("L", "R"))),
    ]

    def band_cases():
        for s in range(4):
            for eps in ("L", "R"):
                # the support n - n' = eps (b - a), eps = +1 for L, lies on
                # the column-minus-row offset eps (a - b)
                sign = 1 if eps == "L" else -1
                for (a, b) in ((1, 0), (2, 0), (2, 1), (0, 3), (1, 1)):
                    wit = f"a={a} b={b} s={s} eps={eps}"
                    op = quantize.quantize_monomial(a, b, s, eps, 10)
                    off_band = ~np.eye(10, k=sign * (a - b), dtype=bool)
                    yield float(np.abs(op.entries[off_band]).max()), \
                        wit + " band"
                    adj = quantize.quantize_monomial(b, a, s, eps, 10)
                    yield float(np.abs(op.entries - adj.entries.conj().T)
                                .max()), wit + " adjoint"

    checks.append(worst_case("quantize.band_rule_and_adjoint_covariance",
                             0.0, band_cases(), 40))

    def decomposition_residual(s):
        # 2 A_{q^2} - 2 A_{z zbar} - A_{z^2} - A_{zbar^2}, in exact arithmetic;
        # the exact bands of A_{q^2} hold 2 A_{q^2}
        zzbar, z2, zbar2 = (quantize.quantize_monomial(a, b, s, "L", 12).exact
                            for a, b in ((1, 1), (2, 0), (0, 2)))
        rest = matrices.build_Aq2(s, 12).exact
        for term in (zzbar, zzbar, z2, zbar2):
            rest = exact_sub(rest, term)
        return exact_max_abs(rest)

    checks.append(worst_case(
        "quantize.position_square_decomposition", 0.0, (
            (decomposition_residual(s), f"s={s}") for s in range(4))))

    rng = np.random.default_rng(seed)
    ah = matrices.build_AH(0, 80)
    zs = [_point(rng) for _ in range(6)]
    checks.append(worst_case("quantize.lower_symbol_of_energy", QUAD_TOL, (
        (abs(v - (abs(z) ** 2 + 1.0)), f"z={z:.3f}")
        for z, v in zip(zs, quantize.lower_symbol(ah, np.array(zs), 0)
                        .tolist()))))

    aq2 = matrices.build_Aq2(2, 90)
    zs = [_point(rng) for _ in range(6)]
    # phrased so that a NaN symbol fails
    checks.append(worst_case(
        "quantize.lower_symbol_nonnegative_for_psd", 0.0, (
            (0.0 if v.real >= 0.0 else -v.real, f"z={z:.3f}")
            for z, v in zip(zs, quantize.lower_symbol(aq2, np.array(zs), 2)
                            .tolist()))))

    def route_residual(lam, al, be, r, s):
        exact = (quantize.laguerre_integral(lam, al, be, r, s)
                 / (math.factorial(r) * math.factorial(s)))
        quad = quantize.laguerre_integral_quadrature(lam, al, be, r, s)
        return abs(exact - quad) / max(1.0, abs(exact))

    checks.append(worst_case("quantize.two_laguerre_integral_routes", 1e-9, (
        (route_residual(*p), "lam={} alpha={} beta={} r={} s={}".format(*p))
        for p in ((2, 1, 1, 2, 3), (0, 1, 1, 4, 4), (3, 2, 0, 3, 5),
                  (1, 0, 2, 5, 2)))))
    return checks


def suite_spectral() -> list:
    def routes_differ(n, s):
        # the integer rows 2^n q_n, D_n and H_n; q_n monic means 2^n leads
        q = spectral.scaled_monic_q(n, s)
        c = spectral.scaled_char_poly(n, s)
        h = spectral.assoc_hermite(n, s).coeffs
        return float(not (q == c == h and q[-1] == 1 << n))

    checks = [worst_case("spectral.three_polynomial_routes_coincide", 0.0, (
        (routes_differ(n, s), f"n={n} s={s}")
        for s in range(7) for n in range(1, 21)))]

    orthonormality, norms = [], []
    for s in range(5):
        meas = spectral.golub_welsch(s, 40)
        pv = spectral.orthonormal_values(s, 12, meas.nodes)
        gram = (pv * meas.weights) @ pv.T
        orthonormality.append((float(np.abs(gram - np.eye(13)).max()),
                               f"s={s}"))
        for k in range(13):
            h = spectral.assoc_hermite(k, s)
            hv = np.array([h(x) for x in meas.nodes])
            got = float(np.dot(meas.weights, hv * hv))
            want = 2.0 ** k * math.gamma(k + s + 1) / math.gamma(s + 1)
            norms.append((abs(got - want) / want, f"k={k} s={s}"))
    checks.append(worst_case("spectral.golub_welsch_orthonormality", 1e-11,
                             orthonormality, 5 * 169))
    checks.append(worst_case("spectral.hermite_norms_match_measure", 1e-9,
                             norms))

    sym, interlacing = [], []
    for s in range(5):
        # the n-sections of one sector, n = 2..16, from one multisection
        spectra = spectral.section_eigenvalues(range(2, 17), s)
        for n, ev, ev2 in zip(range(2, 16), spectra, spectra[1:]):
            wit = f"n={n} s={s}"
            sym.append((float(np.abs(ev + ev[::-1]).max()), wit))
            interlacing.append((float(not all(
                ev2[i] < ev[i] < ev2[i + 1] for i in range(n))), wit))
    checks.append(worst_case("spectral.spectrum_symmetric_about_zero", 1e-12,
                             sym))
    checks.append(worst_case("spectral.interlacing_of_sections", 0.0,
                             interlacing))

    rep = spectral.selfadjointness_divergence_test(0, 10_000)
    checks.append(worst_case(
        "spectral.carleman_sums_diverge", 0.0,
        [(rep.bracket_residual(), f"sum={rep.partial_sum:.3f}")], 10_000))

    for s in range(5):
        for n in range(5):
            checks.extend(spectral.assoc_hermite_laguerre_check(n, s))
    return checks


def suite_physics() -> list:
    par = physics.PhysicalParams.compton(physics.ELECTRON_MASS_SI, 3e15)
    lhs = par.hbar ** 2 / (4.0 * par.m * par.ell ** 2)
    rhs = par.m * par.c ** 2
    g = physics.gamma_ratio(par)
    checks = [
        worst_case("physics.compton_choice_gives_rest_energy", 5e-16,
                   [(abs(lhs - rhs) / rhs, "electron")]),
        worst_case("physics.gamma_ratio_negligible", 0.0,
                   [(float(not g < 1e-5), f"gamma={g:.3e}")]),
    ]

    round_trips = []
    rng = np.random.default_rng(7)
    for _ in range(10):
        q, p = rng.uniform(-1, 1) * 1e-9, rng.uniform(-1, 1) * 1e-24
        q2, p2 = physics.zeta_inverse(par, physics.zeta_map(par, q, p))
        wit = f"q={q:.3e} p={p:.3e}"
        round_trips += [(abs(q2 - q) / max(abs(q), 1e-300), wit),
                        (abs(p2 - p) / max(abs(p), 1e-300), wit)]
    checks.append(worst_case("physics.phase_space_map_round_trip", 1e-13,
                             round_trips, 10))

    diagonal = []
    for s in range(4):
        op, rep = physics.build_physical_AH(
            physics.PhysicalParams.dimensionless(), s, 8)
        want = np.diag(np.arange(8) + 2 * s + 1).astype(complex)
        gaps = np.diff(sorted(rep["levels"]))
        diagonal += [(float(np.abs(op.entries - want).max()),
                      f"s={s} entries"),
                     (float(np.abs(gaps - 1.0).max()), f"s={s} gaps")]
    checks.append(worst_case("physics.dimensionless_hamiltonian_diagonal",
                             1e-12, diagonal, 4))

    par_osc = physics.PhysicalParams.oscillator(physics.ELECTRON_MASS_SI, 3e15)
    hw = par_osc.hbar * par_osc.omega

    def gap_residual(s):
        _, rep = physics.build_physical_AH(par_osc, s, 8)
        return float(np.abs(np.diff(sorted(rep["levels"])) / hw - 1.0).max())

    checks.append(worst_case("physics.uniform_gaps_every_sector", 1e-11, (
        (gap_residual(s), f"s={s}") for s in range(4))))

    def first_gaps():
        for s in range(4):
            hh = matrices.build_Hhat(s, 6).entries.real
            yield abs((hh[1, 1] - hh[0, 0]) - (s / 2 + 1)), f"s={s} n=0"
            yield abs((hh[2, 2] - hh[1, 1]) - 1.0), f"s={s} n=1"

    checks.append(worst_case("physics.substituted_hamiltonian_first_gap", 0.0,
                             first_gaps()))

    def infimum_cases():
        # the exact identity A_{q^2} = Q^2 + (s + 1/2) + (s/2) P_0, and the
        # least gap along shrinking coherent states that it yields
        for s in range(4):
            for check in matrices.verify_square_identities(s, 20):
                yield check.max_residual, check.name
            yield abs(physics.infimum_scan(s) - (s + 0.5)), f"s={s}"

    checks.append(worst_case("physics.quantized_square_infimum", 0.0,
                             infimum_cases()))

    # with units restored, [Q, P] reads i hbar (1 + s P0): Q and P built in
    # SI units for the electron, compared exactly against its hbar
    checks.append(worst_case(
        "physics.commutator_with_units_keeps_sector_term", 0.0, (
            (physics.si_commutator_residual(par, s, 10), f"s={s}")
            for s in range(4))))
    return checks


SUITES = {
    "basis": suite_basis,
    "ladder": suite_ladder,
    "nlpb": suite_nlpb,
    "quantize": suite_quantize,
    "spectral": suite_spectral,
    "physics": suite_physics,
}
# the suites that sample random evaluation points and take a seed
SEEDED = frozenset({"basis", "quantize"})


def run(suite: str = "all", seed: int | None = None) -> list:
    """Run one named suite, or with "all" every suite of SUITES in its
    order, in this process, and return their checks in that order.

    The suites share no state and each seeds its own generator, so the
    report of "all" equals that of the suites run one by one.  A suite's
    exception propagates with its own type.  The seed feeds the suites that
    sample random evaluation points."""
    if suite != "all" and suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    checks = []
    for name in SUITES if suite == "all" else (suite,):
        if seed is not None and name in SEEDED:
            checks += SUITES[name](seed)
        else:
            checks += SUITES[name]()
    return checks


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
