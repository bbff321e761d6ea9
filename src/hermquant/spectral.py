"""Spectral theory of the truncated position operator.

The position operator on one sector is the zero-diagonal Jacobi matrix with
off-diagonal entries c_k = sqrt((k+s)/2).  Its principal sections generate a
monic orthogonal family q_n, an integer-coefficient rescaling
H_n = 2^n q_n (reducing to the classical Hermite polynomials at s = 0),
eigenvalues that carry the discrete spectral measure via Golub-Welsch, and
even/odd factorizations through associated Laguerre polynomials built from
terminating 3F2 sums.

Eigenvalues come from Sturm bisection on the float Jacobi matrix (tridiag);
the exact polynomials serve the identity checks.  Exact polynomial
arithmetic uses Fractions; float evaluation switches to a compensated
(error-free transformation) Horner beyond degree 15, where naive evaluation
near roots loses digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import tridiag
from .errors import PoleError
from .report import CheckResult
from .specfun import hyp3f2_terminating, pochhammer_exact

_COMPENSATED_DEGREE = 15


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: float, b: float):
    p = a * b
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def compensated_horner(coeffs_desc, x: float) -> float:
    """Horner evaluation with error-free transformations; coefficients in
    descending degree order."""
    s = coeffs_desc[0]
    comp = 0.0
    for a in coeffs_desc[1:]:
        p, perr = _two_prod(s, x)
        s, serr = _two_sum(p, a)
        comp = comp * x + (perr + serr)
    return s + comp


class PolyExact:
    """Polynomial with exact coefficients (int or Fraction), ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0]
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return self.leading == 1

    def __eq__(self, other):
        return isinstance(other, PolyExact) and \
            all(Fraction(a) == Fraction(b) for a, b in
                zip(self.coeffs, other.coeffs)) and \
            len(self.coeffs) == len(other.coeffs)

    def __repr__(self):
        return f"PolyExact({list(self.coeffs)})"

    def __call__(self, x: float) -> float:
        desc = [float(a) for a in reversed(self.coeffs)]
        if self.degree <= _COMPENSATED_DEGREE:
            acc = 0.0
            for a in desc:
                acc = acc * x + a
            return acc
        return compensated_horner(desc, x)


def _shift(coeffs) -> list:
    """Multiply by the variable."""
    return [0] + list(coeffs)


@dataclass(frozen=True)
class JacobiMatrix:
    """Section of the position operator: zero diagonal, c_k = sqrt((k+s)/2)."""

    s: int
    dim: int

    def __post_init__(self):
        if self.s < 0 or self.dim < 1:
            raise ValueError("need s >= 0 and dim >= 1")

    def offdiag(self) -> np.ndarray:
        k = np.arange(1, self.dim, dtype=float)
        return np.sqrt((k + self.s) / 2.0)

    def offdiag_sq(self, k: int) -> Fraction:
        return Fraction(k + self.s, 2)


def monic_q(n: int, s: int) -> PolyExact:
    """Monic orthogonal polynomial from q_{k+1} = x q_k - c_k^2 q_{k-1},
    with q_0 = 1, q_1 = x and c_k^2 = (k+s)/2; exact rational coefficients."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev = [Fraction(1)]
    if n == 0:
        return PolyExact(prev)
    cur = [Fraction(0), Fraction(1)]
    for k in range(1, n):
        ck2 = Fraction(k + s, 2)
        nxt = _shift(cur)
        for i, a in enumerate(prev):
            nxt[i] -= ck2 * a
        prev, cur = cur, nxt
    return PolyExact(cur)


def assoc_hermite(n: int, s: int) -> PolyExact:
    """Shifted-index Hermite family from H_{k+1} = 2x H_k - 2(s+k) H_{k-1}
    with H_0 = 1; integer coefficients, classical Hermite at s = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev = [0]
    cur = [1]
    for k in range(n):
        nxt = [2 * a for a in _shift(cur)]
        for i, a in enumerate(prev):
            nxt[i] -= 2 * (s + k) * a
        prev, cur = cur, nxt
    return PolyExact(cur)


def char_poly(n: int, s: int) -> PolyExact:
    """det(x 1_n - Q_n) by expanding along the last row: successive leading
    principal minors obey d_k = x d_{k-1} - c_{k-1}^2 d_{k-2}."""
    if n < 1:
        raise ValueError("n must be positive")
    jm = JacobiMatrix(s, n)
    dets = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for k in range(2, n + 1):
        ck2 = jm.offdiag_sq(k - 1)
        nxt = _shift(dets[-1])
        for i, a in enumerate(dets[-2]):
            nxt[i] -= ck2 * a
        dets.append(nxt)
    return PolyExact(dets[n])


def eigenvalues(n: int, s: int) -> np.ndarray:
    """Eigenvalues of the n-section, ascending, by Sturm bisection on the
    Jacobi matrix (see tridiag.eigenvalues)."""
    return tridiag.eigenvalues(np.zeros(n), JacobiMatrix(s, n).offdiag())


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite spectral measure: strictly increasing nodes, positive weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


def golub_welsch(s: int, n: int) -> DiscreteMeasure:
    """Discrete approximation of the spectral measure of the position
    operator: nodes are section eigenvalues, weights the squared first
    eigenvector components."""
    jm = JacobiMatrix(s, n)
    nodes, weights = tridiag.golub_welsch(np.zeros(n), jm.offdiag(), 1.0)
    return DiscreteMeasure(nodes, weights)


def orthonormal_values(s: int, k_max: int, lam: np.ndarray) -> np.ndarray:
    """Values p_k(lam) of the orthonormal recurrence polynomials
    (p_k = q_k / (c_1 ... c_k)), rows k = 0..k_max."""
    lam = np.asarray(lam, dtype=float)
    out = np.empty((k_max + 1, lam.size))
    out[0] = 1.0
    if k_max == 0:
        return out
    c = lambda k: math.sqrt((k + s) / 2.0)
    out[1] = lam / c(1)
    for k in range(1, k_max):
        out[k + 1] = (lam * out[k] - c(k) * out[k - 1]) / c(k + 1)
    return out


@dataclass(frozen=True)
class DivergenceReport:
    """Partial Carleman sums sum_{n<=N} (s+n)^{-1/2} and their growth rate."""

    s: int
    n_terms: int
    partial_sum: float
    rate_estimate: float

    def exceeds(self, threshold: float) -> bool:
        return self.partial_sum > threshold

    def bracket_residual(self) -> float:
        """How far the sum leaves its integral-test bracket
        [2(sqrt(s+N+1) - sqrt(s+1)), rate_estimate], relative to the upper
        edge; 0.0 inside.  The lower edge is unbounded in N, so a sum that
        stays inside diverges."""
        s, total, high = self.s, self.partial_sum, self.rate_estimate
        low = 2.0 * (math.sqrt(s + self.n_terms + 1) - math.sqrt(s + 1))
        return max(low - total, total - high, 0.0) / high


def carleman_partial_sum(s: int, n_terms: int) -> float:
    return math.fsum(1.0 / math.sqrt(s + n) for n in range(1, n_terms + 1))


def selfadjointness_divergence_test(s: int, n_terms: int) -> DivergenceReport:
    """Essential self-adjointness witness: the inverse off-diagonal sums grow
    like 2 sqrt(N), hence diverge.  Divergence itself is not finitely
    decidable; the report carries the partial sum and its sqrt-rate estimate."""
    total = carleman_partial_sum(s, n_terms)
    rate = 2.0 * (math.sqrt(s + n_terms) - math.sqrt(float(s)))
    return DivergenceReport(s=s, n_terms=n_terms, partial_sum=total,
                            rate_estimate=rate)


def _pole_scan_pochhammer(base: Fraction, count: int, what: str):
    for j in range(count):
        if base + j == 0:
            raise PoleError(f"{what} hits a nonpositive integer at offset {j}")


def assoc_laguerre_coeffs(n: int, alpha: Fraction, c: Fraction,
                          shifted: bool) -> list:
    """Exact coefficients (in x, ascending) of the associated Laguerre
    polynomial defined by the terminating 3F2 representation

      ((alpha+1)_n/n!) sum_m (-n)_m x^m/((c+1)_m (alpha+1)_m)
                              * 3F2(m-n, m-alpha[+1], c; -alpha-n, c+m+1; 1)

    where shifted selects the odd-family numerator m+1-alpha.
    """
    alpha = Fraction(alpha)
    c = Fraction(c)
    pref = Fraction(pochhammer_exact(alpha + 1, n)) / math.factorial(n)
    out = []
    for m in range(n + 1):
        _pole_scan_pochhammer(c + 1, m, "(c+1)_m")
        _pole_scan_pochhammer(alpha + 1, m, "(alpha+1)_m")
        a2 = m - alpha + (1 if shifted else 0)
        f = hyp3f2_terminating(Fraction(m - n), a2, c,
                               -alpha - n, c + m + 1, exact=True)
        coef = (pref * pochhammer_exact(Fraction(-n), m) * Fraction(f)
                / (pochhammer_exact(c + 1, m) * pochhammer_exact(alpha + 1, m)))
        out.append(coef)
    return out


def assoc_hermite_laguerre_check(n: int, s: int,
                                 sample_tol: float = 1e-10) -> list:
    """Even/odd factorization of the shifted Hermite family through associated
    Laguerre polynomials:

        H_{2n}(x; s)   = sigma_n * Lcal_n^{-1/2}(x^2; s/2)
        H_{2n+1}(x; s) = 2 x sigma_n * L_n^{1/2}(x^2; s/2)

    with sigma_n = (-4)^n (1 + s/2)_n.  Compared coefficient-exactly and at
    2n + 3 sample points.
    """
    sigma = Fraction((-4) ** n) * pochhammer_exact(Fraction(s + 2, 2), n)
    checks = []

    even_lag = assoc_laguerre_coeffs(n, Fraction(-1, 2), Fraction(s, 2), False)
    even_poly = [Fraction(0)] * (2 * n + 1)
    for m, cm in enumerate(even_lag):
        even_poly[2 * m] = sigma * cm
    h_even = assoc_hermite(2 * n, s)
    exact_even = PolyExact(even_poly) == h_even
    checks.append(CheckResult(f"spectral.even_laguerre_factorization.n{n}.s{s}",
                              float(not exact_even), 0.0, 2 * n + 1,
                              f"n={n} s={s}"))

    odd_lag = assoc_laguerre_coeffs(n, Fraction(1, 2), Fraction(s, 2), True)
    odd_poly = [Fraction(0)] * (2 * n + 2)
    for m, cm in enumerate(odd_lag):
        odd_poly[2 * m + 1] = 2 * sigma * cm
    h_odd = assoc_hermite(2 * n + 1, s)
    exact_odd = PolyExact(odd_poly) == h_odd
    checks.append(CheckResult(f"spectral.odd_laguerre_factorization.n{n}.s{s}",
                              float(not exact_odd), 0.0, 2 * n + 2,
                              f"n={n} s={s}"))

    pts = [0.3 + 0.4 * j for j in range(2 * n + 3)]
    worst = 0.0
    for x in pts:
        sig = float(sigma)
        lhs = h_even(x)
        rhs = sig * sum(float(cm) * x ** (2 * m) for m, cm in enumerate(even_lag))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        lhs = h_odd(x)
        rhs = 2 * x * sig * sum(float(cm) * x ** (2 * m) for m, cm in enumerate(odd_lag))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    checks.append(CheckResult(f"spectral.laguerre_factorization_samples.n{n}.s{s}",
                              worst, sample_tol, 2 * (2 * n + 3),
                              f"n={n} s={s}"))
    return checks
