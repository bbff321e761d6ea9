import importlib
import importlib.util
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

import hermquant
from hermquant import verify
from hermquant.report import CheckResult, worst_case

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
STRUCTURE = Path(__file__).resolve().parent / "data" / \
    "report_structure_seed5.json"


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        verify.run("nope")


def test_all_suites_pass_in_fixed_order():
    checks = verify.run("all", seed=99)
    assert checks and all(c.passed for c in checks)
    # the suites run in the order of SUITES, the same on every run
    again = [c.name for c in verify.run("all", seed=99)]
    assert [c.name for c in checks] == again
    # the benchmark checks each verify report against this list
    want = (BENCH_DIR / "verify_check_names.txt").read_text().split()
    assert sorted(again) == want


def _structure(checks) -> list:
    """The report without its residuals: (name, tol, n_checked) in order."""
    return [[c.name, c.tol, c.n_checked] for c in checks]


def test_report_structure_is_pinned():
    # names, order, tolerances and case counts of the seed-5 report, as
    # stored in tests/data; only the residuals may move
    want = json.loads(STRUCTURE.read_text())
    assert len(want) == 150
    assert _structure(verify.run("all", seed=5)) == want


def test_report_structure_pin_sees_a_changed_case_count(monkeypatch):
    from hermquant import spectral

    # each exact factorization check counts one coefficient fewer
    monkeypatch.setattr(spectral, "assoc_hermite_laguerre_check", _mutant(
        spectral, "assoc_hermite_laguerre_check", "len(row))",
        "len(row) - 1)"))
    got = _structure(verify.run("all", seed=5))
    want = json.loads(STRUCTURE.read_text())
    changed = {w[0] for g, w in zip(got, want) if g != w}
    assert len(got) == len(want) and len(changed) == 2 * 5 * 5
    assert all("_laguerre_factorization.n" in name for name in changed)


def test_jacobi_and_spectral_checks_build_no_fraction(monkeypatch):
    """The exact checks on the Jacobi operators and the spectral polynomials
    run on integers: the spectral suite, the square identities and [Q, P]
    at s <= 3, and the SI Hamiltonian make no Fraction.  Other exact paths
    keep theirs: the SI commutator (rationals of two floats), the 1/k! of
    the nlpb checks, the factorial roots of quantize and the Laguerre
    coefficients of basis.kernel."""
    from fractions import Fraction

    from hermquant import matrices, physics

    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    verify.suite_spectral()
    for s in range(4):
        matrices.verify_square_identities(s, 20)
        for epsilon in ("L", "R"):
            matrices.verify_almost_canonical(s, 20, epsilon)
        physics.build_physical_AH(physics.PhysicalParams.dimensionless(), s,
                                  8)
    assert made == []
    # the counter sees a Fraction when one is made
    assert Fraction(3, 6) == Fraction(1, 2) and len(made) == 2


def test_report_json_schema():
    checks = verify.run("ladder")
    payload = json.loads(verify.report_json(checks, "ladder", seed=5))
    assert set(payload) == {"suite", "seed", "hermquant_version",
                            "numpy_version", "n_checks", "all_passed",
                            "checks"}
    assert payload["suite"] == "ladder"
    assert payload["seed"] == 5
    assert payload["hermquant_version"] == hermquant.__version__
    assert payload["numpy_version"] == np.__version__
    assert payload["n_checks"] == len(checks)
    assert payload["all_passed"] is True
    for c in payload["checks"]:
        assert set(c) == {"name", "n_checked", "max_residual", "tol",
                          "margin", "passed", "witness"}


def test_margin_is_residual_over_tol_and_null_for_exact_checks():
    assert CheckResult("x", 0.5, 2.0, 1).to_dict()["margin"] == 0.25
    assert CheckResult("x", 0.0, 0.0, 1).to_dict()["margin"] is None


def test_check_fails_above_tol_and_keeps_witness():
    c = CheckResult("x", 2e-9, 1e-9, 3, "s=1")
    assert c.passed is False and c.witness == "s=1"


def test_check_passes_at_tol_and_drops_witness():
    for res in (0.0, 1e-9):
        c = CheckResult("x", res, 1e-9, 3, "s=1")
        assert c.passed is True and c.witness is None


def test_nan_residual_fails():
    c = CheckResult("x", math.nan, 1.0, 1, "nan")
    assert c.passed is False and c.witness == "nan"


def test_to_dict_passed_is_python_bool():
    d = CheckResult("x", np.float64(0.5), 1.0, np.int64(2)).to_dict()
    assert type(d["passed"]) is bool and d["passed"] is True
    assert type(d["max_residual"]) is float and type(d["n_checked"]) is int


@pytest.mark.parametrize("at", [0, 1, 2], ids=["first", "middle", "last"])
def test_worst_case_fails_for_a_nan_case(at):
    cases = [(1e-12, "a"), (3e-12, "b"), (2e-12, "c")]
    cases[at] = (math.nan, "nan")
    check = worst_case("x", 1.0, cases)
    assert not check.passed and math.isnan(check.max_residual)
    assert check.witness == "nan"


def test_worst_case_keeps_the_last_of_tied_worst_cases():
    check = worst_case("x", 0.0, [(1.0, "n=1"), (0.0, "n=2"), (1.0, "n=3"),
                                  (0.5, "n=4")])
    assert check.max_residual == 1.0 and check.witness == "n=3"
    nans = worst_case("x", 0.0, [(math.nan, "n=1"), (2.0, "n=2"),
                                 (math.nan, "n=3"), (1.0, "n=4")])
    assert nans.witness == "n=3"


def test_worst_case_counts_its_cases():
    cases = [(0.25, "a"), (0.5, "b"), (0.125, "c")]
    check = worst_case("x", 1.0, iter(cases))
    assert check.n_checked == 3 and check.max_residual == 0.5
    assert check.passed and check.witness is None
    assert worst_case("x", 1.0, cases, n_checked=81).n_checked == 81
    empty = worst_case("x", 0.0, [])
    assert empty.max_residual == 0.0 and empty.n_checked == 0 and empty.passed


INJECTED = (math.nan, "injected NaN")


def _with_a_nan_case(name, tol, cases, n_checked=None):
    """worst_case with one NaN case that is neither the first nor the
    last; a check of one case gets that case again after the NaN."""
    cases = list(cases)
    k = max(1, len(cases) // 2)
    return worst_case(name, tol,
                      cases[:k] + [INJECTED] + (cases[k:] or cases[-1:]),
                      n_checked)


@pytest.fixture(scope="module")
def nan_injected_checks() -> dict:
    """Every check of the six suites, run with one NaN case injected."""
    from hermquant import ladder, spectral

    with pytest.MonkeyPatch.context() as patch:
        for module in (verify, ladder, spectral):
            patch.setattr(module, "worst_case", _with_a_nan_case)
        checks = verify.run("all", seed=5)
    by_name = {}
    for c in checks:
        by_name.setdefault(c.name, []).append(c)
    return by_name


@pytest.mark.parametrize("name", sorted(set(
    (BENCH_DIR / "verify_check_names.txt").read_text().split())))
def test_one_nan_case_fails_the_check(nan_injected_checks, name):
    checks = nan_injected_checks[name]
    assert all(not c.passed and math.isnan(c.max_residual)
               and c.witness == INJECTED[1] for c in checks)


def _nan_where(monkeypatch, module, name: str, nan, when) -> list:
    """Patch module.name to return nan on the calls whose arguments satisfy
    when(*args).  A call with an array argument, for which module.name
    returns one value per element, gets nan at the elements whose arguments,
    the array replaced by the element, satisfy it.  Returns the list of
    those arguments, filled as they come, in C order within a call."""
    fn, hits = getattr(module, name), []

    def patched(*args, **kwargs):
        k = next((i for i, a in enumerate(args)
                  if isinstance(a, np.ndarray)), None)
        if k is None:
            if when(*args):
                hits.append(args)
                return nan
            return fn(*args, **kwargs)
        out = np.array(fn(*args, **kwargs))
        for idx in np.ndindex(out.shape):
            each = args[:k] + (args[k][idx].item(),) + args[k + 1:]
            if when(*each):
                hits.append(each)
                out[idx] = nan
        return out

    monkeypatch.setattr(module, name, patched)
    return hits


def test_basis_checks_fail_for_nan_values(monkeypatch):
    from hermquant import basis

    names = ("basis.normalization_closed_vs_series",
             "basis.displacement_monotonicity")
    assert all(_basis_check(n).passed for n in names)
    closed_hits = _nan_where(monkeypatch, verify, "normalization", math.nan,
                             lambda s, t: s == 3 and t > 20)
    # a NaN term leaves every partial sum after it NaN, and no comparison
    # of the partial sums with each other or with one is true
    element_hits = _nan_where(monkeypatch, basis, "displacement_element",
                              math.nan, lambda m, s, z: s == 1 and m == 40)
    checks = {c.name: c for c in verify.suite_basis(seed=5)}
    assert [t for _, t in closed_hits] == [
        t for t in np.linspace(0.5, 50.0, 25).tolist() if t > 20]
    assert element_hits == [(40, 1, 0.6 + 0.2j), (40, 1, 1.5 - 1.0j)]
    assert [checks[n].witness for n in names] == ["s=3 t=50",
                                                  "s=1 z=(1.5-1j)"]
    assert not any(checks[n].passed for n in names)


def test_lower_symbol_checks_fail_for_a_nan_symbol(monkeypatch):
    from hermquant import quantize

    names = ("quantize.lower_symbol_of_energy",
             "quantize.lower_symbol_nonnegative_for_psd")
    checks = {c.name: c for c in verify.suite_quantize()}
    assert all(checks[n].passed for n in names)
    # NaN at the third of the six points sampled for each check
    counts = {0: 0, 2: 0}

    def third_point(op, z, s, *rest):
        counts[s] += 1
        return counts[s] == 3

    hits = _nan_where(monkeypatch, quantize, "lower_symbol",
                      complex(math.nan, 0.0), third_point)
    checks = {c.name: c for c in verify.suite_quantize()}
    assert [s for _, _, s in hits] == [0, 2]
    assert [checks[n].witness for n in names] == [
        f"z={args[1]:.3f}" for args in hits]
    assert not any(checks[n].passed for n in names)


INFIMUM = "physics.quantized_square_infimum"


def _infimum_check() -> CheckResult:
    return {c.name: c for c in verify.suite_physics()}[INFIMUM]


def test_infimum_check_fails_for_a_wrong_identity(monkeypatch):
    from hermquant import matrices

    assert _infimum_check().passed
    # c_{n+1} c_{n+3} in place of c_{n+1} c_{n+2} on the two-step band that
    # A_{q^2} and A_{p^2} share: both square identities fail by the same
    # amount, their mean still equals A_H, and the report keeps the witness
    # of the later of the tied worst cases
    monkeypatch.setattr(matrices, "_square_op", _mutant(
        matrices, "_square_op", "Surd.sqrt(n + s + 2)",
        "Surd.sqrt(n + s + 3)"))
    squares = {c.name: c for c in matrices.verify_square_identities(3, 20)}
    assert {n for n, c in squares.items() if not c.passed} == {
        "matrices.Aq2_equals_Q2_plus_shift.s3",
        "matrices.Ap2_equals_P2_plus_shift.s3"}
    worst = squares["matrices.Aq2_equals_Q2_plus_shift.s3"].max_residual
    check = _infimum_check()
    assert not check.passed and check.max_residual == worst > 0.0
    assert check.witness == "matrices.Ap2_equals_P2_plus_shift.s3"


def test_infimum_check_fails_for_a_nan_infimum(monkeypatch):
    from hermquant import physics

    assert _infimum_check().passed
    # a NaN ground occupancy at the widest (t = 1) or the narrowest state
    # of the scan at s = 2; Python's min would drop the one that is not first
    for t_nan in (1.0, 1e4):
        with monkeypatch.context() as patch:
            hits = _nan_where(patch, physics, "poisson_like_pmf", math.nan,
                              lambda n, s, t: s == 2 and t == t_nan)
            check = _infimum_check()
        assert len(hits) == 1
        assert not check.passed and math.isnan(check.max_residual)
        assert check.witness == "s=2"


def _scaled(op, factor: float):
    """op with every float band entry multiplied by factor."""
    from hermquant.matrices import TruncatedOperator

    return TruncatedOperator(op.dim, {k: d * factor
                                      for k, d in op.bands.items()},
                             op.band_low, op.band_high, op.sector, op.exact)


def test_unit_function_check_fails_for_a_relative_error(monkeypatch):
    from hermquant import quantize

    name = "quantize.unit_function_resolves_identity"
    assert {c.name: c for c in verify.suite_quantize()}[name].passed
    closed = quantize.quantize_monomial
    monkeypatch.setattr(quantize, "quantize_monomial", lambda *args: _scaled(
        closed(*args), 1 + 1e-13))
    check = {c.name: c for c in verify.suite_quantize()}[name]
    # inside the former tolerance 1e-12, outside the exact one
    assert not check.passed and 0.0 < check.max_residual <= 1e-12


def test_band_rule_fails_for_a_relative_error_in_one_adjoint(monkeypatch):
    from hermquant import quantize

    name = "quantize.band_rule_and_adjoint_covariance"
    closed = quantize.quantize_monomial
    # z off by 1e-13 relative, zbar exact: its adjoint pair no longer matches
    monkeypatch.setattr(quantize, "quantize_monomial", lambda a, b, *rest: (
        _scaled(closed(a, b, *rest), 1 + 1e-13) if (a, b) == (1, 0)
        else closed(a, b, *rest)))
    check = {c.name: c for c in verify.suite_quantize()}[name]
    assert not check.passed and 0.0 < check.max_residual <= 1e-12
    assert check.witness.endswith(" adjoint")


def test_dual_representation_fails_for_a_relative_error(monkeypatch):
    name = "basis.hermite_double_sum_vs_laguerre_form"
    laguerre_form = verify.complex_hermite_laguerre_exact
    monkeypatch.setattr(verify, "complex_hermite_laguerre_exact",
                        lambda s, n, z: laguerre_form(s, n, z) * (1 + 1e-13))
    check = _basis_check(name)
    assert not check.passed and 0.0 < check.max_residual <= 1e-12


def _traced_functions() -> set:
    """module.function of every three-part per-layer name in BENCHMARK.json
    whose module perfbench/trace_cli.py wraps."""
    spec = importlib.util.spec_from_file_location(
        "trace_cli", BENCH_DIR / "trace_cli.py")
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parts = [m["name"].split(".") for m in bench["per_layer"]]
    return {f"{p[0]}.{p[1]}" for p in parts
            if len(p) == 3 and p[0] in trace_cli.MODULES}


# the names the benchmark calls directly
CALLED = ["specfun.laguerre", "quadrature.gauss_laguerre_rule",
          "tridiag.eigenvalues", "tridiag.golub_welsch",
          "spectral.eigenvalues", "matrices.build_Q",
          "quantize.quantize_numeric", "quantize.Monomial", "basis.kernel",
          "verify.SUITES", "cli.build_parser", "cli.main"]
TRACED = _traced_functions()


@pytest.mark.parametrize("attr", CALLED + sorted(TRACED - set(CALLED)))
def test_benchmark_names_exist(attr):
    module, name = attr.split(".")
    mod = importlib.import_module(f"hermquant.{module}")
    assert hasattr(mod, name)
    if attr in TRACED:
        # the tracer wraps only the public functions a module defines, and
        # a per-layer figure of any other name is never produced
        obj = getattr(mod, name)
        assert not name.startswith("_") and callable(obj)
        assert not isinstance(obj, type) and obj.__module__ == mod.__name__


def test_carleman_verdict_fails_for_a_bounded_series(monkeypatch):
    from hermquant import spectral

    def bounded(s, n_terms):
        return math.fsum((s + k) ** -2.0 for k in range(1, n_terms + 1))

    monkeypatch.setattr(spectral, "carleman_partial_sum", bounded)
    check = {c.name: c for c in verify.suite_spectral()}[
        "spectral.carleman_sums_diverge"]
    assert not check.passed and check.max_residual > 0.9


def test_band_rule_fails_for_a_wrong_declared_band(monkeypatch):
    from hermquant import quantize

    name = "quantize.band_rule_and_adjoint_covariance"
    offset = quantize._band_offset
    monkeypatch.setattr(quantize, "_band_offset",
                        lambda a, b, eps: offset(a, b, eps) + 1)
    check = {c.name: c for c in verify.suite_quantize()}[name]
    assert not check.passed and check.max_residual > 0.1


def test_band_rule_fails_for_a_transposed_band(monkeypatch):
    from hermquant import quantize

    name = "quantize.band_rule_and_adjoint_covariance"
    assert {c.name: c for c in verify.suite_quantize()}[name].passed
    # the band of z^a zbar^b placed where that of z^b zbar^a belongs: the
    # adjoint pairs still match, only the band rule of verify sees it
    offset = quantize._band_offset
    monkeypatch.setattr(quantize, "_band_offset",
                        lambda a, b, eps: -offset(a, b, eps))
    check = {c.name: c for c in verify.suite_quantize()}[name]
    assert not check.passed and check.max_residual > 0.1
    assert check.witness.endswith(" band")


def test_si_commutator_fails_for_a_wrong_scale_product(monkeypatch):
    from fractions import Fraction

    from hermquant import physics

    name = "physics.commutator_with_units_keeps_sector_term"
    assert {c.name: c for c in verify.suite_physics()}[name].passed
    scales = physics.si_scales
    # position and momentum scales whose product is hbar/2, not 2 hbar
    monkeypatch.setattr(physics, "si_scales", lambda params: tuple(
        x * Fraction(1, 2) for x in scales(params)))
    check = {c.name: c for c in verify.suite_physics()}[name]
    assert not check.passed and check.max_residual > 0.0


def _basis_check(name: str) -> CheckResult:
    return {c.name: c for c in verify.suite_basis(seed=5)}[name]


def test_hermite_orthogonality_fails_without_the_alternating_sign(
        monkeypatch):
    name = "basis.hermite_family_orthogonality"
    assert _basis_check(name).passed
    coeffs = verify.complex_hermite_coeffs
    # |c| drops the (-1)^k of the double sum of h^{r,s}
    monkeypatch.setattr(verify, "complex_hermite_coeffs", lambda r, s: {
        ij: abs(c) for ij, c in coeffs(r, s).items()})
    check = _basis_check(name)
    assert not check.passed and check.max_residual > 0.1


def test_normalization_check_fails_for_a_wrong_factorial_ratio(monkeypatch):
    from hermquant.specfun import laguerre

    name = "basis.normalization_closed_vs_series"
    assert _basis_check(name).passed

    def wrong(s, ts):
        # m!/(s+1)! where the closed form carries m!/s!
        return np.array([math.exp(t) - sum(
            math.factorial(m) / math.factorial(s + 1)
            * t ** (s - m) * laguerre(m, s - m, t) ** 2 for m in range(s))
            for t in ts.tolist()])

    monkeypatch.setattr(verify, "normalization", wrong)
    check = _basis_check(name)
    assert not check.passed and check.max_residual > 1e-3


def test_radial_density_check_fails_for_a_scaled_density(monkeypatch):
    from hermquant import basis

    name = "basis.radial_density_normalized"
    assert _basis_check(name).passed
    pdf = basis.gamma_like_pdf
    # a relative error of 1e-8, a hundred times the check's tolerance
    monkeypatch.setattr(basis, "gamma_like_pdf",
                        lambda n, s, t: (1.0 + 1e-8) * pdf(n, s, t))
    check = _basis_check(name)
    assert not check.passed and check.max_residual > 5e-9


# the checks that read the phi table, directly or through reproduce,
# gamma_like_pdf, normalization_series and quantize_numeric
PHI_GUARDS = {"basis.phi_gram_is_identity", "basis.kernel_reproduces_members",
              "basis.normalization_closed_vs_series",
              "quantize.closed_form_vs_integral",
              "basis.radial_density_normalized"}


def _failed(suite: str) -> set:
    return {c.name for c in verify.run(suite, seed=5) if not c.passed}


def _failed_phi_guards() -> set:
    return (_failed("basis") | _failed("quantize")) & PHI_GUARDS


def test_phi_guards_fail_for_a_wrong_factorial_prefactor(monkeypatch):
    from hermquant import basis, matrices, quantize
    from hermquant.errors import TailError

    assert _failed_phi_guards() == set()
    log_phi = basis._log_phi

    def wrong(s, n, t):
        # sqrt(s!/(s+n+1)!) where phi carries sqrt(s!/(s+n)!)
        logmag, sign = log_phi(s, n, t)
        n = np.asarray(n).reshape(np.shape(n) + (1,) * np.ndim(t))
        return logmag - 0.5 * np.log(s + n + 1.0), sign

    # each suite is patched where it reads the table: the coherent states
    # of the quantize suite read basis._log_phi, and lose norm under the
    # mutant before any verdict is reached
    with monkeypatch.context() as patch:
        patch.setattr(basis, "_log_phi", wrong)
        failed = _failed("basis")
        with pytest.raises(TailError):
            quantize.lower_symbol(matrices.build_AH(0, 64), 0.5 + 0.5j, 0)
    # and past the radial tables the quantize suite has built already
    monkeypatch.setattr(quantize, "_log_phi", wrong)
    monkeypatch.setattr(quantize, "_shared_radial_pairs",
                        quantize._shared_radial_pairs.__wrapped__)
    failed |= _failed("quantize")
    assert failed & PHI_GUARDS == PHI_GUARDS


def test_phi_guards_fail_for_a_wrong_phase_convention(monkeypatch):
    from hermquant import basis

    assert _failed_phi_guards() == set()
    phi_values = basis.phi_values
    # z^n in place of zbar^n: the rest of phi^L is real
    monkeypatch.setattr(basis, "phi_values",
                        lambda s, n, z: np.conj(phi_values(s, n, z)))
    assert _failed_phi_guards()


def _patch_wrong_AL_weight(monkeypatch):
    from hermquant import ladder

    # sqrt(s+n+1) where A_L (L,n,s) = (s+n, s) carries sqrt(s+n)
    monkeypatch.setitem(ladder._RULES, "AL",
                        lambda r, q: (r - 1, q, r + 1 if r > q else r))


def test_ladder_commutator_fails_for_a_wrong_AL_weight(monkeypatch):
    name = "ladder.commutator_AL_ALdag_is_identity"
    assert {c.name: c for c in verify.suite_ladder()}[name].passed
    _patch_wrong_AL_weight(monkeypatch)
    check = {c.name: c for c in verify.suite_ladder()}[name]
    assert not check.passed and check.max_residual > 0.1


def test_verify_all_sees_a_patched_module(monkeypatch):
    # "all" runs its suites in this process, through the patched module
    name = "ladder.commutator_AL_ALdag_is_identity"
    _patch_wrong_AL_weight(monkeypatch)
    check = {c.name: c for c in verify.run("all", seed=5)}[name]
    assert not check.passed and check.max_residual > 0.1


@pytest.mark.parametrize("seed", [5, 99])
def test_all_report_equals_suites_run_one_by_one(seed):
    serial = [c for name in verify.SUITES for c in verify.run(name, seed)]
    assert (verify.report_json(verify.run("all", seed), "all", seed)
            == verify.report_json(serial, "all", seed))


def test_hhat_gap_fails_without_the_ground_shift(monkeypatch):
    from hermquant import matrices
    from hermquant.exact import Surd

    name = "physics.substituted_hamiltonian_first_gap"
    build = matrices.build_Hhat

    def no_shift(s, N, epsilon="L"):
        # n + s + 1/2 on every level: Hhat without its -(s/2) P0 term, on
        # the exact bands, which hold 2 Hhat
        diag = list(build(s, N, epsilon).exact[0])
        diag[0] = diag[0] + Surd(s)
        return matrices.TruncatedOperator.from_exact({0: diag}, N, (0, 0),
                                                     (epsilon, s), 2)

    assert {c.name: c for c in verify.suite_physics()}[name].passed
    monkeypatch.setattr(matrices, "build_Hhat", no_shift)
    check = {c.name: c for c in verify.suite_physics()}[name]
    assert not check.passed and check.max_residual >= 0.5


def test_nlpb_identity_fails_for_a_wrong_NL_eigenvalue(monkeypatch):
    from hermquant import ladder

    name = "nlpb.M_equals_NR_NL_squared"
    assert {c.name: c for c in verify.suite_nlpb()}[name].passed
    # n + s + 1 where N_L (L,n,s) = (s+n, s) has eigenvalue n + s
    monkeypatch.setitem(ladder._RULES, "NL",
                        lambda r, q: (r, q, (r + 1 if r > q else r) ** 2))
    check = {c.name: c for c in verify.suite_nlpb()}[name]
    assert not check.passed and check.max_residual >= 1.0


def test_polynomial_routes_fail_for_a_wrong_jacobi_weight(monkeypatch):
    from hermquant import spectral

    name = "spectral.three_polynomial_routes_coincide"
    monic_q = spectral.scaled_monic_q
    # c_k^2 = (k+s+1)/2 in the monic recurrence instead of (k+s)/2
    assert {c.name: c for c in verify.suite_spectral()}[name].passed
    monkeypatch.setattr(spectral, "scaled_monic_q",
                        lambda n, s: monic_q(n, s + 1))
    check = {c.name: c for c in verify.suite_spectral()}[name]
    assert not check.passed and check.witness == "n=20 s=6"



def _mutant(module, name: str, right: str, wrong: str):
    """module.name recompiled from its source with the one occurrence of
    `right` replaced by `wrong`."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(right) == 1
    namespace = {}
    exec(source.replace(right, wrong), vars(module), namespace)
    return namespace[name]


SPECTRAL_VERDICTS = {"spectral.interlacing_of_sections",
                     "spectral.spectrum_symmetric_about_zero",
                     "spectral.golub_welsch_orthonormality"}


def _failed_spectral_verdicts() -> set:
    return {c.name for c in verify.suite_spectral()
            if not c.passed} & SPECTRAL_VERDICTS


def _off_by_one_sweep(monkeypatch, tridiag):
    sweep = tridiag.sturm_counts
    # the sweep stops one row early and counts the leading (m-1)-section of
    # each m-section
    monkeypatch.setattr(tridiag, "sturm_counts",
                        lambda diag, off, xs, sizes: sweep(
                            diag, off, xs, np.asarray(sizes) - 1))


def _uncertified_seed(monkeypatch, tridiag):
    # estimates off by 1e-9, far beyond the seed half-width, kept without
    # the Sturm certificate
    estimates = tridiag._estimates
    monkeypatch.setattr(tridiag, "_estimates",
                        lambda diag, off: estimates(diag, off) + 1e-9)
    monkeypatch.setattr(tridiag, "section_eigenvalues", _mutant(
        tridiag, "section_eigenvalues",
        "certified = seeded & (counts[:, 0] <= k) & (k < counts[:, -1])",
        "certified = seeded"))


def _descending_order(monkeypatch, tridiag):
    from hermquant import spectral

    # the right eigenvalues, largest first
    values = spectral.section_eigenvalues
    monkeypatch.setattr(spectral, "section_eigenvalues",
                        lambda sizes, s: [ev[::-1] for ev in values(sizes, s)])


@pytest.mark.parametrize("mutate, failing", (
    (_off_by_one_sweep, {"spectral.spectrum_symmetric_about_zero"}),
    (_uncertified_seed, {"spectral.spectrum_symmetric_about_zero",
                         "spectral.golub_welsch_orthonormality"}),
    (_descending_order, {"spectral.interlacing_of_sections"}),
), ids=("off-by-one-sweep", "uncertified-seed", "descending-order"))
def test_spectral_verdicts_fail_for_wrong_eigenvalues(monkeypatch, mutate,
                                                      failing):
    from hermquant import tridiag

    assert _failed_spectral_verdicts() == set()
    mutate(monkeypatch, tridiag)
    assert _failed_spectral_verdicts() == failing


def test_laguerre_factorizations_fail_for_a_wrong_sigma(monkeypatch):
    from hermquant import spectral

    def factorizations():
        return {c.name: c.passed for c in verify.suite_spectral()
                if "_laguerre_factorization." in c.name}

    assert all(factorizations().values())
    # sigma_n = (-2)^n R(s+2, n+1) in place of (-2)^n R(s+2, n) =
    # (-4)^n (1 + s/2)_n
    right = "_rising2(s + 2, n)"
    monkeypatch.setattr(spectral, "assoc_hermite_laguerre_check", _mutant(
        spectral, "assoc_hermite_laguerre_check", right, right[:-1] + " + 1)"))
    verdicts = factorizations()
    assert len(verdicts) == 2 * 5 * 5
    # the mutation scales sigma by s + 2 + 2n, which is never 1
    assert not any(verdicts.values())


def test_laguerre_factorizations_fail_for_an_off_by_one_3f2_start(
        monkeypatch):
    from hermquant import spectral

    checks = {c.name: c for c in verify.suite_spectral()
              if "laguerre_factorization" in c.name}
    assert len(checks) == 3 * 5 * 5 and all(c.passed for c in checks.values())
    # (c+1)_j in place of (c)_j in the numerator of the integer 3F2 sum
    monkeypatch.setattr(spectral, "assoc_laguerre_coeffs", _mutant(
        spectral, "assoc_laguerre_coeffs", "(s + 2 * j)", "(s + 2 + 2 * j)"))
    failed = {c.name for c in verify.suite_spectral() if not c.passed}
    # at n = 0 the sum is empty; from n = 1 on every exact factorization
    # and every sample check fails
    assert failed == {f"spectral.{kind}.n{n}.s{s}"
                      for kind in ("even_laguerre_factorization",
                                   "odd_laguerre_factorization",
                                   "laguerre_factorization_samples")
                      for n in range(1, 5) for s in range(5)}


def test_kernel_checks_fail_for_a_conjugated_argument(monkeypatch):
    from hermquant import basis

    names = {"basis.kernel_s0_is_exponential",
             "basis.kernel_s1_matches_closed_form"}
    assert _failed("basis") & names == set()
    # z zbar' in place of zbar z' in the kernel series
    monkeypatch.setattr(verify, "kernel", _mutant(
        basis, "kernel", "w = z.conjugate() * zprime",
        "w = z * zprime.conjugate()"))
    checks = {c.name: c for c in verify.suite_basis(seed=5)}
    # e^{z zbar'} against e^{zbar z'}: a phase error, so the relative
    # residual nears its bound of 2
    assert all(not checks[n].passed and checks[n].max_residual > 1.5
               for n in names)
    assert {n for n, c in checks.items() if not c.passed} == names


def test_infimum_check_fails_for_a_wrong_diagonal(monkeypatch):
    from hermquant import matrices

    assert _infimum_check().passed
    # n + 2s on the diagonal of A_{q^2}, A_{p^2} and A_H, which carry
    # n + 2s + 1: each square identity is off by exactly one
    monkeypatch.setattr(matrices, "_energy_diagonal", _mutant(
        matrices, "_energy_diagonal", "n + 2 * s + 1", "n + 2 * s"))
    check = _infimum_check()
    assert not check.passed and check.max_residual == 1.0


def test_dual_representation_fails_without_the_k_factorial(monkeypatch):
    from hermquant import specfun

    name = "basis.hermite_double_sum_vs_laguerre_form"
    assert _basis_check(name).passed
    # C(r,k) C(s,k) in place of r!s!/(k!(r-k)!(s-k)!) = k! C(r,k) C(s,k) in
    # the double sum; the Laguerre form does not read the table
    monkeypatch.setattr(specfun, "complex_hermite_coeffs", _mutant(
        specfun, "complex_hermite_coeffs", " * math.factorial(k)", ""))
    check = _basis_check(name)
    assert not check.passed and check.max_residual > 0.1


def test_quantize_checks_fail_for_a_dropped_integral_term(monkeypatch):
    from hermquant import quantize

    names = {"quantize.two_laguerre_integral_routes",
             "quantize.closed_form_vs_integral"}
    assert not {c.name for c in verify.suite_quantize()
                if not c.passed} & names
    # the top power of L_r^(alpha) left out of the double sum; the closed
    # form reads the same row integral for every band entry
    monkeypatch.setattr(quantize, "_row_integral", _mutant(
        quantize, "_row_integral", "enumerate(c)", "enumerate(c[:-1])"))
    failed = {c.name: c for c in verify.suite_quantize() if not c.passed}
    assert names <= set(failed)
    assert all(failed[name].max_residual > 0.1 for name in names)


def test_quantization_oracle_fails_for_a_flipped_angular_phase(monkeypatch):
    from hermquant import quantize

    name = "quantize.closed_form_vs_integral"
    assert {c.name: c for c in verify.suite_quantize()}[name].passed
    # e^{-+i d theta} in place of e^{+-i d theta} in the quadrature path;
    # the closed forms take the sector sign from matrices.eps_sign
    sign = quantize.angular_phase_sign
    monkeypatch.setattr(quantize, "angular_phase_sign",
                        lambda epsilon: -sign(epsilon))
    check = {c.name: c for c in verify.suite_quantize()}[name]
    assert not check.passed and check.max_residual > 0.1
