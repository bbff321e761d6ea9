import math

import numpy as np
import pytest

from hermquant import matrices, physics
from hermquant.physics import (C_SI, ELECTRON_MASS_SI, HBAR_SI,
                               PhysicalParams, build_physical_AH, gamma_ratio,
                               infimum_scan, internal_energy_prefactor,
                               spectrum_compare, zeta_inverse, zeta_map)


@pytest.fixture
def electron():
    return PhysicalParams.compton(ELECTRON_MASS_SI, 3e15)


def test_params_check_the_scales_before_deriving_ell():
    # a zero mass is named rather than dividing by zero
    with pytest.raises(ValueError, match="m = 0.0 must be finite"):
        PhysicalParams.compton(0.0, 3e15)
    # 2 m c underflows to zero, which leaves ell beyond the floats
    with pytest.raises(ValueError, match="ell = inf must be finite"):
        PhysicalParams(m=5e-324, omega=1.0, c=1e-300)


def test_params_default_to_compton_length(electron):
    assert electron.ell == HBAR_SI / (2 * ELECTRON_MASS_SI * C_SI)
    assert electron.is_compton


def test_params_positivity_enforced():
    with pytest.raises(ValueError):
        PhysicalParams(m=-1.0, omega=1.0)
    with pytest.raises(ValueError):
        PhysicalParams(m=1.0, omega=0.0)


def test_zeta_map_origin(electron):
    assert zeta_map(electron, 0.0, 0.0) == 0j


def test_zeta_map_dimensionless_for_si_inputs(electron):
    z = zeta_map(electron, 1e-10, 5e-25)
    assert isinstance(z, complex) and math.isfinite(abs(z))


def test_zeta_map_round_trip(electron, rng):
    for _ in range(10):
        q = float(rng.uniform(-1, 1)) * 1e-9
        p = float(rng.uniform(-1, 1)) * 1e-24
        z = zeta_map(electron, q, p)
        q2, p2 = zeta_inverse(electron, z)
        assert q2 == pytest.approx(q, rel=1e-14)
        assert p2 == pytest.approx(p, rel=1e-14)


def test_gamma_ratio_value(electron):
    # hbar*omega / (16 m c^2) at omega = 3e15 1/s for the electron
    assert gamma_ratio(electron) == pytest.approx(2.4151662513905914e-07)
    assert gamma_ratio(electron) < 1e-5  # negligible against 1


def test_gamma_ratio_linear_in_omega():
    g1 = gamma_ratio(PhysicalParams.compton(ELECTRON_MASS_SI, 3e15))
    g2 = gamma_ratio(PhysicalParams.compton(ELECTRON_MASS_SI, 6e15))
    assert g2 / g1 == pytest.approx(2.0, rel=1e-14)


def test_compton_identity_machine_precision(electron):
    lhs = electron.hbar ** 2 / (4 * electron.m * electron.ell ** 2)
    rhs = electron.m * electron.c ** 2
    assert abs(lhs - rhs) <= 4e-16 * rhs


def test_internal_energy_prefactor_compton_form(electron):
    want = (electron.m * electron.c ** 2
            + gamma_ratio(electron) * electron.hbar * electron.omega)
    assert internal_energy_prefactor(electron) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("s", range(4))
def test_dimensionless_hamiltonian_is_diagonal(s):
    op, rep = build_physical_AH(PhysicalParams.dimensionless(), s, 8)
    assert np.allclose(op.entries, np.diag(np.arange(8) + 2 * s + 1),
                       atol=1e-13)
    assert rep["diagonal_regime"]
    assert np.allclose(np.diff(sorted(rep["levels"])), 1.0, atol=1e-12)


@pytest.mark.parametrize("s", range(4))
def test_uniform_gaps_with_oscillator_length(s):
    par = PhysicalParams.oscillator(ELECTRON_MASS_SI, 3e15)
    _, rep = build_physical_AH(par, s, 8)
    gaps = np.diff(sorted(rep["levels"]))
    assert np.allclose(gaps, par.hbar * par.omega, rtol=1e-11)


def test_compton_mode_reports_internal_energy(electron):
    _, rep = build_physical_AH(electron, 2, 6)
    assert rep["compton_choice"] and not rep["diagonal_regime"]
    assert rep["internal_energy_prefactor"] == pytest.approx(
        electron.m * electron.c ** 2, rel=1e-6)
    # levels dominated by the rest-energy shift (2s+1) m c^2
    assert min(rep["levels"]) > 4.9 * electron.m * electron.c ** 2


def test_compton_mode_s0_analytic_gap_identity(electron):
    # kinetic/potential coefficients multiply to (hbar omega / 2)^2 exactly,
    # so the s = 0 oscillator gap stays hbar omega for any length choice
    _, rep = build_physical_AH(electron, 0, 6)
    prod = rep["kinetic_coefficient"] * rep["potential_coefficient"]
    assert 2.0 * math.sqrt(prod) == pytest.approx(
        electron.hbar * electron.omega, rel=1e-14)


@pytest.mark.parametrize("epsilon", ["L", "R"])
def test_si_commutator_is_i_hbar_exactly(electron, epsilon):
    from fractions import Fraction

    for par in (electron, PhysicalParams.dimensionless(),
                PhysicalParams.oscillator(ELECTRON_MASS_SI, 3e15)):
        q_scale, p_scale = physics.si_scales(par)
        assert q_scale * p_scale == 2 * Fraction(par.hbar)
        for s in range(4):
            assert physics.si_commutator_residual(par, s, 8, epsilon) == 0.0


@pytest.mark.parametrize("s", range(13))
def test_infimum_scan_converges(s):
    # the least gap (s + 1/2) + (s/2)|c_0|^2 is its limit s + 1/2, exactly;
    # at sigma = 0.1 alone the ground occupancy still shows for s > 0
    assert infimum_scan(s) == s + 0.5
    assert (infimum_scan(s, sigmas=(0.1,)) > s + 0.5) == (s > 0)


def test_spectrum_compare_s0_row():
    row = spectrum_compare([0])[0]
    assert row.global_shift == 0.5
    assert row.physically_equivalent
    assert row.first_gap_direct == 1.0 and row.first_gap_substituted == 1.0


def test_spectrum_compare_s2_row():
    row = spectrum_compare([2])[0]
    assert not row.physically_equivalent
    assert row.ground_direct == 5.0
    assert row.ground_substituted == 1.5
    assert row.zero_point_gap_direct == pytest.approx(2.5, abs=1e-6)
    assert row.zero_point_gap_substituted == 1.5
    assert row.first_gap_substituted == 2.0


def test_spectrum_compare_equivalence_is_computed(monkeypatch):
    monkeypatch.setattr(physics, "build_Hhat",
                        lambda s, N: matrices.build_Hhat(s + 1, N))
    row = spectrum_compare([0])[0]
    assert not row.physically_equivalent


def test_spectrum_compare_deterministic():
    a = [r.to_dict() for r in spectrum_compare(range(3))]
    b = [r.to_dict() for r in spectrum_compare(range(3))]
    assert a == b
