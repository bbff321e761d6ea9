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

import numpy as np

from .basis import cs_coefficients
from .exact import exact_matmul
from .matrices import (TruncatedOperator, band_matvec, build_AH, build_Hhat,
                       build_P, build_Q)

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
        if self.ell is None:
            object.__setattr__(self, "ell", self.hbar / (2.0 * self.m * self.c))
        for name in ("m", "omega", "hbar", "c", "ell"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @classmethod
    def compton(cls, m: float, omega: float, hbar: float = HBAR_SI,
                c: float = C_SI) -> "PhysicalParams":
        """Fix ell as one half of the Compton length hbar/(2 m c)."""
        return cls(m=m, omega=omega, hbar=hbar, c=c,
                   ell=hbar / (2.0 * m * c))

    @classmethod
    def oscillator(cls, m: float, omega: float, hbar: float = HBAR_SI,
                   c: float = C_SI) -> "PhysicalParams":
        """Fix ell as the oscillator length sqrt(hbar/(m omega)), the choice
        that makes the quantized Hamiltonian exactly diagonal."""
        return cls(m=m, omega=omega, hbar=hbar, c=c,
                   ell=math.sqrt(hbar / (m * omega)))

    @classmethod
    def dimensionless(cls) -> "PhysicalParams":
        """Surrogate units hbar = m = omega = c = 1 with ell = 1."""
        return cls(m=1.0, omega=1.0, hbar=1.0, c=1.0, ell=1.0)

    @property
    def is_compton(self) -> bool:
        return self.ell == self.hbar / (2.0 * self.m * self.c)


def zeta_map(params: PhysicalParams, q: float, p: float) -> complex:
    """The dimensionless phase-space point z = q/(ell sqrt(2)) + i p ell/(hbar sqrt(2))."""
    rt2 = math.sqrt(2.0)
    return complex(q / (params.ell * rt2), p * params.ell / (params.hbar * rt2))


def zeta_inverse(params: PhysicalParams, z: complex) -> tuple:
    """Invert zeta_map: (q, p) from a dimensionless z."""
    rt2 = math.sqrt(2.0)
    return (z.real * params.ell * rt2, z.imag * params.hbar * rt2 / params.ell)


def gamma_ratio(params: PhysicalParams) -> float:
    """hbar omega / (16 m c^2): quantum energy against rest-mass energy."""
    return params.hbar * params.omega / (16.0 * params.m * params.c ** 2)


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
    kin = params.hbar ** 2 / (2.0 * params.m * params.ell ** 2)
    pot = params.m * params.omega ** 2 * params.ell ** 2 / 2.0
    p2, q2 = (TruncatedOperator.from_exact(exact_matmul(x, x), N,
                                           (-2, 2)).bands
              for x in (build_P(s, N + 2).exact, build_Q(s, N + 2).exact))
    bands = {k: kin * p2[k] + pot * q2[k] for k in q2}
    pref = internal_energy_prefactor(params)
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
                 sigmas=(1.0, 1e-1, 1e-2, 1e-3, 1e-4)):
    """Track inf <A_{q^2}> along rescaled coherent states z/sqrt(sigma).

    For each width the gap <A_{q^2}> - <Q^2> = (s + 1/2) + (s/2)|<e_0|w>|^2
    is evaluated honestly through banded expectation values; the ground-state
    overlap dies off exponentially as sigma -> 0, so the extrapolated limit
    is the spectral infimum shift s + 1/2.  Returns (extrapolated, samples).
    """
    samples = []
    for sigma in sigmas:
        w = complex(z) / math.sqrt(sigma)
        t = abs(w) ** 2
        dim = int(t + 12.0 * math.sqrt(t) + 60)
        c = cs_coefficients(s, w, dim, "L", tol=1e-9)
        n = np.arange(dim, dtype=float)
        # <A_{q^2}>: diagonal n + 2s + 1 plus the double-shift band
        off2 = np.sqrt((n[: dim - 2] + s + 1.0) * (n[: dim - 2] + s + 2.0)) / 2.0
        val_a = float(np.dot(n + 2 * s + 1.0, np.abs(c) ** 2))
        val_a += 2.0 * float(np.real(np.sum(off2 * np.conj(c[:-2]) * c[2:])))
        # <Q^2> = ||Q c||^2 with the tridiagonal position matrix
        cpl = np.sqrt((n[: dim - 1] + s + 1.0) / 2.0)
        qc = band_matvec({1: cpl, -1: cpl}, c)
        val_q = float(np.vdot(qc, qc).real)
        samples.append(val_a - val_q)
    return aitken_extrapolate(samples), samples


def aitken_extrapolate(values) -> float:
    """Aitken delta-squared acceleration of a convergent scan; falls back to
    the last sample when successive differences have already vanished."""
    v = list(values)
    if len(v) < 3:
        return v[-1]
    x0, x1, x2 = v[-3], v[-2], v[-1]
    d1 = x1 - x0
    d2 = x2 - x1
    denom = d2 - d1
    if denom == 0.0 or abs(d2) < 1e-14 * max(1.0, abs(x2)):
        return x2
    return x2 - d2 * d2 / denom


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


def spectrum_compare(s_list, N: int = 8, scan_infimum: bool = True) -> list:
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
        inf_q2 = infimum_scan(s)[0] if scan_infimum else s + 0.5
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
