"""Dimensionful oscillator quantization and the equivalence question.

Restoring SI units needs a free length scale ell: phase space maps to the
plane through z = q/(ell sqrt(2)) + i p ell/(hbar sqrt(2)).  The quantized
kinetic and potential terms then pick up an additive "internal energy"
operator proportional to (2s+1) 1 + s P_0; choosing ell as half the Compton
length hbar/(2mc) turns its kinetic share into exactly m c^2.

The sector-s spectra compare as: the direct quantization of |z|^2 is diagonal
with levels n + 2s + 1 (unit gaps for every s), while substituting the
quantized q, p into (q^2 + p^2)/2 gives ground level (s+1)/2 and first gap
s/2 + 1.  The two agree up to a global shift only at s = 0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .basis import poisson_like_pmf
from .exact import ExactC, SqrtSum, exact_matmul
from .matrices import (TruncatedOperator, build_A_z, build_A_zbar, build_AH,
                       build_Hhat, build_P, build_Q, commutator_residual,
                       eps_sign)

HBAR_SI = 1.054571817e-34     # J s
C_SI = 299792458.0            # m / s
ELECTRON_MASS_SI = 9.1093837015e-31  # kg


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, angular frequency, hbar, c and the free length scale (SI)."""

    m: float
    omega: float
    hbar: float = HBAR_SI
    c: float = C_SI
    ell: float | None = None

    def __post_init__(self):
        # m, hbar and c are checked before an unset ell is derived from them
        for name in ("m", "omega", "hbar", "c", "ell"):
            if name == "ell" and self.ell is None:
                object.__setattr__(self, "ell", _half_compton(self))
            value = getattr(self, name)
            # NaN passes a bare `value <= 0` test
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} = {value} must be finite and "
                                 f"strictly positive")

    @classmethod
    def compton(cls, m: float, omega: float, hbar: float = HBAR_SI,
                c: float = C_SI) -> "PhysicalParams":
        """Fix ell as one half of the Compton length hbar/(2 m c)."""
        return cls(m=m, omega=omega, hbar=hbar, c=c)

    @classmethod
    def oscillator(cls, m: float, omega: float, hbar: float = HBAR_SI,
                   c: float = C_SI) -> "PhysicalParams":
        """Fix ell as the oscillator length sqrt(hbar/(m omega)), the choice
        that makes the quantized Hamiltonian exactly diagonal."""
        if not m * omega > 0:
            raise ValueError(f"m * omega = {m * omega} must be strictly "
                             f"positive")
        return cls(m=m, omega=omega, hbar=hbar, c=c,
                   ell=math.sqrt(hbar / (m * omega)))

    @classmethod
    def dimensionless(cls) -> "PhysicalParams":
        """Surrogate units hbar = m = omega = c = 1 with ell = 1."""
        return cls(m=1.0, omega=1.0, hbar=1.0, c=1.0, ell=1.0)

    @property
    def is_compton(self) -> bool:
        return self.ell == _half_compton(self)


def _half_compton(par: PhysicalParams) -> float:
    """hbar/(2 m c), infinite where 2 m c underflows to zero."""
    denom = 2.0 * par.m * par.c
    return par.hbar / denom if denom else math.inf


def zeta_map(params: PhysicalParams, q: float, p: float) -> complex:
    """The dimensionless phase-space point z = q/(ell sqrt(2)) + i p ell/(hbar sqrt(2))."""
    rt2 = math.sqrt(2.0)
    return complex(q / (params.ell * rt2), p * params.ell / (params.hbar * rt2))


def zeta_inverse(params: PhysicalParams, z: complex) -> tuple:
    """Invert zeta_map: (q, p) from a dimensionless z."""
    rt2 = math.sqrt(2.0)
    return (z.real * params.ell * rt2, z.imag * params.hbar * rt2 / params.ell)


def si_scales(params: PhysicalParams) -> tuple:
    """The factors (ell sqrt2, hbar sqrt2 / ell) by which zeta_inverse turns
    Re z and Im z into q and p, as exact SqrtSum values: hbar and ell enter
    as the rationals their floats represent, so the product is exactly
    2 hbar."""
    rt2 = SqrtSum.sqrt(2)
    ell, hbar = Fraction(params.ell), Fraction(params.hbar)
    return rt2 * ell, rt2 * (hbar / ell)


def si_commutator_residual(params: PhysicalParams, s: int, N: int,
                           epsilon: str = "L") -> float:
    """Largest entry of [Q, P] - (-1)^{eps+1} i hbar (1 + s P_0) on the
    interior N x N block, in exact arithmetic, for the SI operators

        Q = ell sqrt2 (A_z + A_zbar)/2,  P = (hbar sqrt2/ell) (A_z - A_zbar)/(2i)

    built at N + 2 from the quantized z and zbar.  Returns 0.0 iff the
    identity holds exactly for the float hbar of params."""
    q_scale, p_scale = si_scales(params)
    az = build_A_z(s, N + 2, epsilon).exact
    azbar = build_A_zbar(s, N + 2, epsilon).exact

    def combine(c_z: ExactC, c_zbar: ExactC) -> dict:
        # A_z and A_zbar occupy the opposite offsets +-1, so the bands of
        # c_z A_z + c_zbar A_zbar are those of the two terms side by side
        return {**{k: [c_z * x for x in d] for k, d in az.items()},
                **{k: [c_zbar * x for x in d] for k, d in azbar.items()}}

    half = Fraction(1, 2)
    q = combine(ExactC(q_scale * half), ExactC(q_scale * half))
    p = combine(ExactC(0, -p_scale * half), ExactC(0, p_scale * half))
    c = ExactC(0, -eps_sign(epsilon) * Fraction(params.hbar))
    return commutator_residual(q, p, c, s, N)


def gamma_ratio(params: PhysicalParams) -> float:
    """hbar omega / (16 m c^2): quantum energy against rest-mass energy."""
    g = params.hbar * params.omega / (16.0 * params.m * params.c ** 2)
    if not math.isfinite(g):
        raise ValueError("gamma = hbar omega / (16 m c^2) overflows a float")
    return g


def internal_energy_prefactor(params: PhysicalParams) -> float:
    """Coefficient of (2s+1) 1 + s P_0 in the quantized Hamiltonian:
    hbar^2/(4 m ell^2) + m omega^2 ell^2 / 4; equals m c^2 + gamma hbar omega
    under the Compton choice."""
    return (params.hbar ** 2 / (4.0 * params.m * params.ell ** 2)
            + params.m * params.omega ** 2 * params.ell ** 2 / 4.0)


def build_physical_AH(params: PhysicalParams, s: int, N: int):
    """Quantized oscillator Hamiltonian in SI energies,

        P^2/2m + (1/2) m omega^2 Q^2
          + (hbar^2/(4 m ell^2) + (1/4) m omega^2 ell^2) ((2s+1) 1 + s P_0),

    with the squares taken at dimension N+2 and trimmed.  Returns the N x N
    operator matrix and a report with levels, gaps and the energy bookkeeping.
    """
    if N < 3:
        raise ValueError("need N >= 3")
    try:  # ell ** 2 may overflow, or underflow to a zero divisor
        kin = params.hbar ** 2 / (2.0 * params.m * params.ell ** 2)
        pot = params.m * params.omega ** 2 * params.ell ** 2 / 2.0
        pref = internal_energy_prefactor(params)
        finite = math.isfinite(kin + pot + pref)
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise ValueError(f"at ell = {params.ell:.6g} the kinetic and "
                         f"potential coefficients leave the float range")
    p2, q2 = (TruncatedOperator.from_exact(exact_matmul(x.exact, x.exact),
                                           N, (-2, 2),
                                           scale=x.exact_scale ** 2).bands
              for x in (build_P(s, N + 2), build_Q(s, N + 2)))
    bands = {k: kin * p2[k] + pot * q2[k] for k in q2}
    bands[0] += pref * (2 * s + 1)
    bands[0][0] += pref * s
    op = TruncatedOperator(N, bands, -2, 2, ("L", s))
    mat = op.entries

    levels = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).real
    gaps = np.diff(levels)
    hw = params.hbar * params.omega
    report = {
        "s": s,
        "kinetic_coefficient": kin,
        "potential_coefficient": pot,
        "internal_energy_prefactor": pref,
        "gamma": gamma_ratio(params),
        "compton_choice": params.is_compton,
        "diagonal_regime": kin == pot,
        "hbar_omega": hw,
        "levels": levels.tolist(),
        "gaps": gaps.tolist(),
    }
    return op, report


def infimum_scan(s: int, z: complex = 1.0 + 0.0j,
                 sigmas=(1.0, 1e-1, 1e-2, 1e-3, 1e-4)) -> float:
    """Least gap <A_{q^2}> - <Q^2> over the coherent states z/sqrt(sigma).

    On every state the exact identity A_{q^2} - Q^2 = (s + 1/2) + (s/2) P_0
    (checked by matrices.verify_square_identities) gives the gap
    (s + 1/2) + (s/2)|c_0|^2, where |c_0|^2 is the occupancy of n = 0.  It
    dies off exponentially as sigma -> 0, so the least gap is the infimum
    shift s + 1/2, reached exactly once (s/2)|c_0|^2 falls below half an
    ulp of it.  np.min keeps a NaN gap, which Python's min drops unless it
    comes first.
    """
    t = np.abs(complex(z) / np.sqrt(sigmas)) ** 2
    return float(np.min(s + 0.5 + 0.5 * s * poisson_like_pmf(0, s, t)))


@dataclass(frozen=True)
class SpectrumRow:
    """One sector's comparison of the two quantization routes (dimensionless
    units: energies in hbar omega)."""

    s: int
    ground_direct: float        # lowest level of the quantized |z|^2
    ground_substituted: float   # lowest level of (P^2 + Q^2)/2
    global_shift: float
    zero_point_gap_direct: float
    zero_point_gap_substituted: float
    first_gap_direct: float
    first_gap_substituted: float
    infimum_quantized_q2: float
    physically_equivalent: bool

    def to_dict(self) -> dict:
        return asdict(self)


def spectrum_compare(s_list, N: int = 8) -> list:
    """Side-by-side spectra of the two quantizations per sector.

    The equivalence column is true iff the diagonals of A_H and Hhat differ
    by one constant shift; that holds only at s = 0, where the shift is 1/2.
    """
    rows = []
    for s in s_list:
        ah = build_AH(s, N).bands[0].real
        hh = build_Hhat(s, N).bands[0].real
        g_a = float(ah[0])
        g_h = float(hh[0])
        inf_q2 = infimum_scan(s)
        shift = ah - hh
        rows.append(SpectrumRow(
            s=s,
            ground_direct=g_a,
            ground_substituted=g_h,
            global_shift=g_a - g_h,
            zero_point_gap_direct=g_a - inf_q2,
            zero_point_gap_substituted=g_h,
            first_gap_direct=float(ah[1] - ah[0]),
            first_gap_substituted=float(hh[1] - hh[0]),
            infimum_quantized_q2=inf_q2,
            physically_equivalent=bool(np.ptp(shift) == 0.0),
        ))
    return rows
