"""Truncated matrices of the quantized elementary observables on one sector.

Builders return N x N complex arrays together with exact entry tables
(ExactC over rationals plus integer square roots), so algebraic identities
among them can be asserted with residual exactly zero.  Products of truncated
operators corrupt their last bands; identity checks therefore build at
dimension N + 2 and compare leading N x N blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exact import (ExactC, ExactMatrix, SqrtSum, exact_adjoint, exact_block,
                    exact_eye, exact_matmul, exact_max_abs, exact_scale,
                    exact_sub, exact_zeros, sqrt_half, to_complex_array)
from .report import CheckResult


def eps_sign(epsilon: str) -> int:
    """The sector sign (-1)^eps: -1 for 'L', +1 for 'R'."""
    if epsilon == "L":
        return -1
    if epsilon == "R":
        return 1
    raise ValueError("epsilon must be 'L' or 'R'")


@dataclass(frozen=True)
class TruncatedOperator:
    """Finite section of an operator on the sector basis {|e_n; s>, n < N}.

    entries[i, j] is nonzero only for band_low <= j - i <= band_high.  The
    exact field mirrors entries in closed-form arithmetic when available.
    """

    entries: np.ndarray
    band_low: int
    band_high: int
    sector: tuple[str, int] | None = None
    exact: ExactMatrix | None = field(default=None, repr=False)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError("entries must be square")
        object.__setattr__(self, "entries", e)
        e.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def adjoint(self) -> "TruncatedOperator":
        exact = exact_adjoint(self.exact) if self.exact is not None else None
        return TruncatedOperator(self.entries.conj().T.copy(),
                                 -self.band_high, -self.band_low,
                                 self.sector, exact)

    def band_violation(self) -> float:
        """Largest entry magnitude outside the declared band."""
        n = self.dim
        j = np.arange(n)
        mask = (j[None, :] - j[:, None] < self.band_low) | \
               (j[None, :] - j[:, None] > self.band_high)
        return float(np.abs(self.entries[mask]).max(initial=0.0))


def _wrap(exact: ExactMatrix, band: tuple[int, int], sector) -> TruncatedOperator:
    return TruncatedOperator(to_complex_array(exact), band[0], band[1],
                             sector, exact)


def build_A_z(s: int, N: int, epsilon: str) -> TruncatedOperator:
    """Quantized z on sector (epsilon, s): weighted shift with weights
    sqrt(s+n+1), lowering for 'L' (superdiagonal) and raising for 'R'."""
    if N < 1:
        raise ValueError("N must be positive")
    m = exact_zeros(N)
    for n in range(N - 1):
        w = ExactC(SqrtSum.sqrt(s + n + 1))
        if epsilon == "L":
            m[n][n + 1] = w
        else:
            m[n + 1][n] = w
    band = (1, 1) if epsilon == "L" else (-1, -1)
    return _wrap(m, band, (epsilon, s))


def build_A_zbar(s: int, N: int, epsilon: str) -> TruncatedOperator:
    """Quantized zbar; the adjoint of the quantized z."""
    return build_A_z(s, N, epsilon).adjoint()


def build_Q(s: int, N: int, epsilon: str = "L") -> TruncatedOperator:
    """Position operator: real symmetric Jacobi matrix with zero diagonal and
    off-diagonal entries sqrt((s+n+1)/2); identical for both sectors."""
    eps_sign(epsilon)
    m = exact_zeros(N)
    for n in range(N - 1):
        w = ExactC(sqrt_half(s + n + 1))
        m[n][n + 1] = w
        m[n + 1][n] = w
    return _wrap(m, (-1, 1), (epsilon, s))


def build_P(s: int, N: int, epsilon: str = "L") -> TruncatedOperator:
    """Momentum operator: antisymmetric imaginary tridiagonal,
    P = (-1)^eps i sum sqrt((s+n+1)/2) (|n><n+1| - |n+1><n|)."""
    sgn = eps_sign(epsilon)
    m = exact_zeros(N)
    for n in range(N - 1):
        w = sqrt_half(s + n + 1)
        m[n][n + 1] = ExactC(0, sgn * w)
        m[n + 1][n] = ExactC(0, -sgn * w)
    return _wrap(m, (-1, 1), (epsilon, s))


def _c_weight(k: int, s: int) -> SqrtSum:
    return sqrt_half(k + s)


def build_Aq2(s: int, N: int, epsilon: str = "L") -> TruncatedOperator:
    """Quantized q^2: diagonal n + 2s + 1 plus the two-step band
    c_{n+1} c_{n+2} (|n><n+2| + h.c.) with c_k = sqrt((k+s)/2)."""
    m = exact_zeros(N)
    for n in range(N):
        m[n][n] = ExactC(n + 2 * s + 1)
    for n in range(N - 2):
        w = ExactC(_c_weight(n + 1, s) * _c_weight(n + 2, s))
        m[n][n + 2] = w
        m[n + 2][n] = w
    return _wrap(m, (-2, 2), (epsilon, s))


def build_Ap2(s: int, N: int, epsilon: str = "L") -> TruncatedOperator:
    """Quantized p^2: same diagonal as the quantized q^2, opposite band sign."""
    m = exact_zeros(N)
    for n in range(N):
        m[n][n] = ExactC(n + 2 * s + 1)
    for n in range(N - 2):
        w = ExactC(SqrtSum(0) - _c_weight(n + 1, s) * _c_weight(n + 2, s))
        m[n][n + 2] = w
        m[n + 2][n] = w
    return _wrap(m, (-2, 2), (epsilon, s))


def build_AH(s: int, N: int, epsilon: str = "L") -> TruncatedOperator:
    """Quantized oscillator energy |z|^2: the diagonal operator n + 2s + 1."""
    m = exact_zeros(N)
    for n in range(N):
        m[n][n] = ExactC(n + 2 * s + 1)
    return _wrap(m, (0, 0), (epsilon, s))


def build_Hhat(s: int, N: int, epsilon: str = "L") -> TruncatedOperator:
    """(P^2 + Q^2)/2 assembled from the substituted operators: diagonal with
    ground value (s+1)/2 and n + s + 1/2 above it."""
    m = exact_zeros(N)
    for n in range(N):
        val = Fraction(s + 1, 2) if n == 0 else Fraction(2 * n + 2 * s + 1, 2)
        m[n][n] = ExactC(SqrtSum(val))
    return _wrap(m, (0, 0), (epsilon, s))


def ground_projector(N: int) -> TruncatedOperator:
    m = exact_zeros(N)
    m[0][0] = ExactC(1)
    return _wrap(m, (0, 0), None)


def exact_commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return exact_sub(exact_matmul(a, b), exact_matmul(b, a))


def _ones_plus_s_p0(N: int, s: int) -> ExactMatrix:
    m = exact_eye(N)
    m[0][0] = ExactC(1 + s)
    return m


def verify_weyl_commutator(s: int, N: int, epsilon: str) -> CheckResult:
    """[A_z, A_zbar] = (-1)^{eps+1} (1 + s P_0) on the interior block, exactly."""
    az = build_A_z(s, N + 2, epsilon).exact
    azb = build_A_zbar(s, N + 2, epsilon).exact
    comm = exact_block(exact_commutator(az, azb), N)
    want = exact_scale(_ones_plus_s_p0(N, s), -eps_sign(epsilon))
    res = exact_max_abs(exact_sub(comm, want))
    return CheckResult(f"matrices.commutator_Az_Azbar.{epsilon}.s{s}",
                       res, 0.0, N * N, f"s={s} eps={epsilon}")


def verify_almost_canonical(s: int, N: int, epsilon: str) -> CheckResult:
    """[Q, P] = (-1)^{eps+1} i (1 + s P_0) on the interior block, exactly."""
    q = build_Q(s, N + 2, epsilon).exact
    p = build_P(s, N + 2, epsilon).exact
    comm = exact_block(exact_commutator(q, p), N)
    want = exact_scale(_ones_plus_s_p0(N, s),
                       ExactC(0, SqrtSum(-eps_sign(epsilon))))
    res = exact_max_abs(exact_sub(comm, want))
    return CheckResult(f"matrices.commutator_Q_P.{epsilon}.s{s}",
                       res, 0.0, N * N, f"s={s} eps={epsilon}")


def verify_square_identities(s: int, N: int) -> list:
    """Exact interior-block identities

        A_{q^2} = Q^2 + (s + 1/2) 1 + (s/2) P_0
        A_{p^2} = P^2 + (s + 1/2) 1 + (s/2) P_0
        A_H     = Hhat + (s + 1/2) 1 + (s/2) P_0,  A_H = (A_{q^2} + A_{p^2})/2
    """
    big = N + 2
    q = build_Q(s, big).exact
    p = build_P(s, big).exact
    shift = exact_eye(N)
    for i in range(N):
        shift[i][i] = ExactC(SqrtSum(Fraction(2 * s + 1, 2)))
    shift[0][0] = shift[0][0] + ExactC(SqrtSum(Fraction(s, 2)))

    out = []
    for name, afull, square in (
        ("matrices.Aq2_equals_Q2_plus_shift", build_Aq2(s, N).exact, q),
        ("matrices.Ap2_equals_P2_plus_shift", build_Ap2(s, N).exact, p),
    ):
        sq = exact_block(exact_matmul(square, square), N)
        res = exact_max_abs(exact_sub(afull, [
            [sq[i][j] + shift[i][j] for j in range(N)] for i in range(N)]))
        out.append(CheckResult(f"{name}.s{s}", res, 0.0, N * N, f"s={s}"))

    ah = build_AH(s, N).exact
    hhat = build_Hhat(s, N).exact
    res = exact_max_abs(exact_sub(ah, [
        [hhat[i][j] + shift[i][j] for j in range(N)] for i in range(N)]))
    out.append(CheckResult(f"matrices.AH_equals_Hhat_plus_shift.s{s}",
                           res, 0.0, N * N, f"s={s}"))

    half = ExactC(SqrtSum(Fraction(1, 2)))
    aq2 = build_Aq2(s, N).exact
    ap2 = build_Ap2(s, N).exact
    mean = [[(aq2[i][j] + ap2[i][j]) * half for j in range(N)] for i in range(N)]
    res = exact_max_abs(exact_sub(ah, mean))
    out.append(CheckResult(f"matrices.AH_is_mean_of_squares.s{s}",
                           res, 0.0, N * N, f"s={s}"))

    hh2 = exact_block(exact_matmul(q, q), N)
    pp2 = exact_block(exact_matmul(p, p), N)
    direct = [[(hh2[i][j] + pp2[i][j]) * half for j in range(N)] for i in range(N)]
    res = exact_max_abs(exact_sub(exact_block(hhat, N), direct))
    out.append(CheckResult(f"matrices.Hhat_matches_direct_P2_plus_Q2_over_2.s{s}",
                           res, 0.0, N * N, f"s={s}"))
    return out


def operator_csv_rows(op: TruncatedOperator) -> list:
    """Row-major CSV rows with adjacent re, im cells."""
    rows = []
    for i in range(op.dim):
        cells = []
        for j in range(op.dim):
            v = op.entries[i, j]
            cells.append(format(v.real, ".17g"))
            cells.append(format(v.imag, ".17g"))
        rows.append(cells)
    return rows


def operator_json_obj(op: TruncatedOperator) -> dict:
    return {
        "dim": op.dim,
        "band_low": op.band_low,
        "band_high": op.band_high,
        "sector": list(op.sector) if op.sector else None,
        "entries": [[{"re": op.entries[i, j].real, "im": op.entries[i, j].imag}
                     for j in range(op.dim)] for i in range(op.dim)],
    }


def operator_to_json(op: TruncatedOperator) -> str:
    return json.dumps(operator_json_obj(op), indent=1, sort_keys=True)
