"""Truncated matrices of the quantized elementary observables on one sector.

Every operator here is a band matrix of half-width at most 2, so it is stored
by band: one complex vector per diagonal offset, plus the same diagonals as
exact ExactC values (rationals plus integer square roots) when built in closed
form, so algebraic identities among them can be asserted with residual exactly
zero.  Every Jacobi weight c_k = sqrt((k+s)/2) carries a 1/2, so Q, P,
A_{q^2}, A_{p^2}, A_H and Hhat hold their exact bands at twice their value,
with integer coefficients (a Q entry is sqrt(2k)); the float bands are the
exact halves, and identities among them compare right-hand sides scaled to
match.  Products and commutators work band by band; a dense N x N array is
built only on access to `entries` and at export.  Products of truncated
operators corrupt their last bands; identity checks therefore build at
dimension N + 2 and compare leading N x N blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exact import (ExactC, SqrtSum, exact_adjoint, exact_matmul,
                    exact_max_abs, exact_sub, to_complex_array)
from .report import CheckResult, worst_case


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

    bands[k] is the diagonal j - i = k as a read-only complex vector (the
    layout is described in `exact`); every other entry equals `zero`, which
    is 0j, or 0-0j after a conjugation, as numpy's conj leaves it.  A
    builder stores only band_low <= k <= band_high.  The exact field holds
    exact_scale times the same diagonals as ExactC lists when available;
    exact_scale is a power of two, so each float is its exact value rounded
    once and then scaled exactly.
    """

    dim: int
    bands: dict
    band_low: int
    band_high: int
    sector: tuple[str, int] | None = None
    exact: dict | None = field(default=None, repr=False)
    zero: complex = 0j
    exact_scale: int = 1

    def __post_init__(self):
        if self.dim < 1 or any(not 0 < self.dim - abs(k) == len(d)
                               for k, d in self.bands.items()):
            raise ValueError("need dim >= 1 and dim - |k| entries in band k")
        for d in self.bands.values():
            d.setflags(write=False)

    @classmethod
    def from_exact(cls, exact: dict, N: int, band: tuple[int, int],
                   sector=None, scale: int = 1) -> "TruncatedOperator":
        """The leading N x N block of the operator whose exact bands, times
        scale (a power of two), are `exact`: each float is complex(ExactC)
        with both components divided by scale, which is exact.  A list
        shared by two offsets (as in the symmetric builders) is converted
        once."""
        conv = {}
        for d in exact.values():
            if id(d) not in conv:
                f = np.array([complex(x) for x in d], dtype=complex)
                f.view(float)[:] *= 1 / scale
                conv[id(d)] = f
        floats = {k: conv[id(d)] for k, d in exact.items()}
        return cls(N, _leading(floats, N), band[0], band[1], sector,
                   _leading(exact, N), exact_scale=scale)

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense dim x dim array, built on first access."""
        e = to_complex_array(self.bands, self.dim, self.zero)
        e.setflags(write=False)
        return e

    def adjoint(self) -> "TruncatedOperator":
        exact = exact_adjoint(self.exact) if self.exact is not None else None
        return TruncatedOperator(
            self.dim, {-k: d.conj() for k, d in self.bands.items()},
            -self.band_high, -self.band_low, self.sector, exact,
            self.zero.conjugate(), self.exact_scale)


def band_matvec(bands: dict, c: np.ndarray) -> np.ndarray:
    """Product of the band matrix with float diagonals `bands` and c, a
    vector or an array whose columns along axis 0 are vectors."""
    n = len(c)
    out = np.zeros(c.shape, dtype=complex)
    for k, d in bands.items():
        d = np.reshape(d, (-1,) + (1,) * (c.ndim - 1))
        if k >= 0:
            out[:n - k] += d * c[k:]
        else:
            out[-k:] += d * c[:n + k]
    return out


def _leading(bands: dict, n: int) -> dict:
    """Bands of the leading n x n block."""
    return {k: d[:n - abs(k)] for k, d in bands.items() if abs(k) < n}


def build_A_z(s: int, N: int, epsilon: str) -> TruncatedOperator:
    """Quantized z on sector (epsilon, s): weighted shift with weights
    sqrt(s+n+1), lowering for 'L' (superdiagonal) and raising for 'R'."""
    if N < 1:
        raise ValueError("N must be positive")
    k = 1 if epsilon == "L" else -1
    w = [ExactC(SqrtSum.sqrt(s + n + 1)) for n in range(N - 1)]
    return TruncatedOperator.from_exact({k: w}, N, (k, k), (epsilon, s))


def build_A_zbar(s: int, N: int, epsilon: str) -> TruncatedOperator:
    """Quantized zbar; the adjoint of the quantized z."""
    return build_A_z(s, N, epsilon).adjoint()


def _jacobi_weights(s: int, N: int) -> list:
    """2 c_k = sqrt(2(k+s)) for k = 1..N-1, the off-diagonal of 2Q on the
    N-section, each an integer times a square root."""
    return [SqrtSum.sqrt(2 * (s + k)) for k in range(1, N)]


def build_Q(s: int, N: int, epsilon: str = "L") -> TruncatedOperator:
    """Position operator: real symmetric Jacobi matrix with zero diagonal and
    off-diagonal entries sqrt((s+n+1)/2); identical for both sectors.  The
    exact bands hold 2Q."""
    eps_sign(epsilon)
    w = [ExactC(x) for x in _jacobi_weights(s, N)]
    return TruncatedOperator.from_exact({1: w, -1: w}, N, (-1, 1),
                                        (epsilon, s), 2)


def build_P(s: int, N: int, epsilon: str = "L") -> TruncatedOperator:
    """Momentum operator: antisymmetric imaginary tridiagonal,
    P = (-1)^eps i sum sqrt((s+n+1)/2) (|n><n+1| - |n+1><n|).  The exact
    bands hold 2P."""
    w = _jacobi_weights(s, N)
    up, down = [ExactC(0, x) for x in w], [ExactC(0, -x) for x in w]
    bands = {1: up, -1: down} if eps_sign(epsilon) > 0 else {1: down, -1: up}
    return TruncatedOperator.from_exact(bands, N, (-1, 1), (epsilon, s), 2)


def _energy_diagonal(s: int, N: int) -> list:
    """Twice the diagonal n + 2s + 1 of A_H, A_{q^2} and A_{p^2}."""
    return [ExactC(2 * (n + 2 * s + 1)) for n in range(N)]


def _square_op(s: int, N: int, epsilon: str, sign: int) -> TruncatedOperator:
    # 2 c_{n+1} c_{n+2} = sqrt((n+s+1)(n+s+2))
    w = [SqrtSum.sqrt((n + s + 1) * (n + s + 2)) for n in range(N - 2)]
    w = [ExactC(x if sign > 0 else -x) for x in w]
    bands = {0: _energy_diagonal(s, N), 2: w, -2: w}
    return TruncatedOperator.from_exact(bands, N, (-2, 2), (epsilon, s), 2)


def build_Aq2(s: int, N: int, epsilon: str = "L") -> TruncatedOperator:
    """Quantized q^2: diagonal n + 2s + 1 plus the two-step band
    c_{n+1} c_{n+2} (|n><n+2| + h.c.) with c_k = sqrt((k+s)/2).  The exact
    bands hold 2 A_{q^2}."""
    return _square_op(s, N, epsilon, 1)


def build_Ap2(s: int, N: int, epsilon: str = "L") -> TruncatedOperator:
    """Quantized p^2: same diagonal as the quantized q^2, opposite band sign.
    The exact bands hold 2 A_{p^2}."""
    return _square_op(s, N, epsilon, -1)


def build_AH(s: int, N: int, epsilon: str = "L") -> TruncatedOperator:
    """Quantized oscillator energy |z|^2: the diagonal operator n + 2s + 1.
    The exact bands hold 2 A_H."""
    return TruncatedOperator.from_exact({0: _energy_diagonal(s, N)}, N,
                                        (0, 0), (epsilon, s), 2)


def build_Hhat(s: int, N: int, epsilon: str = "L") -> TruncatedOperator:
    """(P^2 + Q^2)/2 assembled from the substituted operators: diagonal with
    ground value (s+1)/2 and n + s + 1/2 above it.  The exact bands hold
    2 Hhat."""
    diag = [ExactC(s + 1)] + [ExactC(2 * n + 2 * s + 1) for n in range(1, N)]
    return TruncatedOperator.from_exact({0: diag}, N, (0, 0), (epsilon, s), 2)


def commutator_residual(a: dict, b: dict, c: ExactC, s: int, N: int,
                        scale: int = 1):
    """Largest entry of [A, B] - c (1 + s P_0) on the interior N x N block,
    in exact arithmetic, for exact bands a = alpha A and b = beta B built at
    N + 2 with scale = alpha beta: [a, b] is compared with scale c (1 + s P_0)
    and the residual divided by scale."""
    comm = _leading(exact_sub(exact_matmul(a, b), exact_matmul(b, a)), N)
    c = c * scale
    want = {0: [c * (1 + s)] + [c] * (N - 1)}
    return exact_max_abs(exact_sub(comm, want)) / scale


def _commutator_check(name: str, a, b, c: ExactC, s: int, N: int,
                      epsilon: str) -> CheckResult:
    """[a, b] = c (1 + s P_0) on the interior N x N block, exactly, with the
    builders a and b called at N + 2."""
    a, b = a(s, N + 2, epsilon), b(s, N + 2, epsilon)
    res = commutator_residual(a.exact, b.exact, c, s, N,
                              a.exact_scale * b.exact_scale)
    return worst_case(f"matrices.{name}.{epsilon}.s{s}", 0.0,
                      [(res, f"s={s} eps={epsilon}")], N * N)


def verify_weyl_commutator(s: int, N: int, epsilon: str) -> CheckResult:
    """[A_z, A_zbar] = (-1)^{eps+1} (1 + s P_0) on the interior block, exactly."""
    return _commutator_check("commutator_Az_Azbar", build_A_z, build_A_zbar,
                             ExactC(-eps_sign(epsilon)), s, N, epsilon)


def verify_almost_canonical(s: int, N: int, epsilon: str) -> CheckResult:
    """[Q, P] = (-1)^{eps+1} i (1 + s P_0) on the interior block, exactly."""
    return _commutator_check("commutator_Q_P", build_Q, build_P,
                             ExactC(0, -eps_sign(epsilon)), s, N, epsilon)


def verify_square_identities(s: int, N: int) -> list:
    """Exact interior-block identities

        A_{q^2} = Q^2 + (s + 1/2) 1 + (s/2) P_0
        A_{p^2} = P^2 + (s + 1/2) 1 + (s/2) P_0
        A_H     = Hhat + (s + 1/2) 1 + (s/2) P_0,  A_H = (A_{q^2} + A_{p^2})/2

    and Hhat = (Q^2 + P^2)/2, on the doubled exact bands: each identity is
    multiplied through by 2 or 4, so that (2Q)^2 meets 2 (2 A_{q^2}) minus
    four times the shift, all with integer coefficients, and each residual
    is divided back.
    """
    q2, p2 = (_leading(exact_matmul(x, x), N)         # 4 Q^2, 4 P^2
              for x in (build_Q(s, N + 2).exact, build_P(s, N + 2).exact))
    aq2, ap2, ah, hhat = (build(s, N).exact for build in   # twice each
                          (build_Aq2, build_Ap2, build_AH, build_Hhat))

    def shift(m):
        # m (s + 1/2) 1 + m (s/2) P_0 for m = 2 or 4
        return {0: [ExactC(m * (3 * s + 1) // 2)]
                + [ExactC(m * (2 * s + 1) // 2)] * (N - 1)}

    def times(m, a):
        return {k: [x * m for x in d] for k, d in a.items()}

    out = []
    for name, lhs, rhs, scale in (
        ("matrices.Aq2_equals_Q2_plus_shift", times(2, aq2), (q2, shift(4)),
         4),
        ("matrices.Ap2_equals_P2_plus_shift", times(2, ap2), (p2, shift(4)),
         4),
        ("matrices.AH_equals_Hhat_plus_shift", ah, (hhat, shift(2)), 2),
        ("matrices.AH_is_mean_of_squares", times(2, ah), (aq2, ap2), 2),
        ("matrices.Hhat_matches_direct_P2_plus_Q2_over_2", times(4, hhat),
         (q2, p2), 4),
    ):
        res = exact_max_abs(exact_sub(exact_sub(lhs, rhs[0]), rhs[1])) / scale
        out.append(worst_case(f"{name}.s{s}", 0.0, [(res, f"s={s}")], N * N))
    return out


def operator_csv_rows(op: TruncatedOperator) -> list:
    """Row-major CSV rows with adjacent re, im cells.  Each row starts as
    zero cells and receives its band entries; no dense array is built."""
    def cells(v: complex) -> list:
        return [format(v.real, ".17g"), format(v.imag, ".17g")]

    rows = [cells(op.zero) * op.dim for _ in range(op.dim)]
    for k, d in op.bands.items():
        r0, c0 = max(0, -k), max(0, k)
        for t, v in enumerate(d.tolist()):
            rows[r0 + t][2 * (c0 + t):2 * (c0 + t + 1)] = cells(v)
    return rows


def operator_json_obj(op: TruncatedOperator) -> dict:
    return {
        "dim": op.dim,
        "band_low": op.band_low,
        "band_high": op.band_high,
        "sector": list(op.sector) if op.sector else None,
        "entries": [[{"re": v.real, "im": v.imag} for v in row]
                    for row in op.entries.tolist()],
    }


def operator_to_json(op: TruncatedOperator) -> str:
    return json.dumps(operator_json_obj(op), indent=1, sort_keys=True)
