"""Spectral theory of the truncated position operator.

The position operator on one sector is the zero-diagonal Jacobi matrix with
off-diagonal entries c_k = sqrt((k+s)/2).  Its principal sections generate a
monic orthogonal family q_n, an integer-coefficient rescaling
H_n = 2^n q_n (reducing to the classical Hermite polynomials at s = 0),
eigenvalues that carry the discrete spectral measure via Golub-Welsch, and
even/odd factorizations through associated Laguerre polynomials built from
terminating 3F2 sums.

Eigenvalues come from Sturm multisection on the float Jacobi matrix (tridiag);
the exact polynomials serve the identity checks.  Exact polynomial
recurrences run on integers scaled by powers of 2 and divide once at the
end; evaluation at a float is exact as well and rounds once, so no
cancellation near a root costs digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import tridiag
from .errors import PoleError
from .report import worst_case
from .specfun import hyp3f2_terminating, pochhammer_exact


class PolyExact:
    """Polynomial with exact coefficients (int or Fraction), ascending degree."""

    __slots__ = ("coeffs", "_integral")

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0]
        self.coeffs = tuple(coeffs)
        self._integral = None  # (D, D c_k from the top degree), on first call

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return self.leading == 1

    def __eq__(self, other):
        # int == Fraction compares exactly
        return isinstance(other, PolyExact) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"PolyExact({list(self.coeffs)})"

    def __call__(self, x: float) -> float:
        """The value at x, correctly rounded.  With x = p/q exactly and D the
        lcm of the coefficient denominators, the integer
        sum_k (D c_k) p^k q^(d-k) is divided by D q^d once."""
        if self._integral is None:
            big_d = math.lcm(*(c.denominator for c in self.coeffs))
            self._integral = big_d, [c.numerator * (big_d // c.denominator)
                                     for c in reversed(self.coeffs)]
        big_d, scaled = self._integral
        p, q = x.as_integer_ratio()
        acc, qk = 0, 1
        for c in scaled:
            acc = acc * p + c * qk
            qk *= q
        return acc / (big_d * q ** self.degree)


# the last two rows each recurrence built, (s, k, R_{k-1}, R_k) with tuple
# rows.  An entry is replaced whole, never changed, so every call reads one
# consistent entry; a race between callers can only lose an entry, which
# costs a restart and never a wrong row
_LAST_ROWS: dict = {}


def _recurrence(family: str, s: int, n: int, start: tuple, scale,
                weight) -> tuple:
    """R_n of the integer three-term recurrence R_{k+1} = scale(k) x R_k -
    weight(k) R_{k-1} on sector s, with (R_0, R_1) = start, as ascending
    integer coefficients.  Each family keeps the last two rows it built, so
    that a call on the same sector at a degree no lower extends them instead
    of starting again: a sweep over degrees 0..n costs one recurrence."""
    if n == 0:
        return start[0]
    last = _LAST_ROWS.get(family)
    if last is not None and last[0] == s and last[1] <= n:
        _, k, prev, cur = last
    else:
        k, (prev, cur) = 1, start
    while k < n:
        a, b = scale(k), weight(k)
        nxt = [0] + [a * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= b * c
        k, prev, cur = k + 1, cur, tuple(nxt)
    _LAST_ROWS[family] = (s, k, prev, cur)
    return cur


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


def _unscale(coeffs, e: int) -> PolyExact:
    """The polynomial with coefficients c / 2^e, each an int where the
    division is exact and a Fraction otherwise."""
    mask = (1 << e) - 1
    return PolyExact([c >> e if not c & mask else Fraction(c, 1 << e)
                      for c in coeffs])


def monic_q(n: int, s: int) -> PolyExact:
    """Monic orthogonal polynomial from q_{k+1} = x q_k - c_k^2 q_{k-1},
    with q_0 = 1, q_1 = x and c_k^2 = (k+s)/2; exact rational coefficients.

    The recurrence runs on the integer polynomials P_k = 2^(k//2) q_k,
    P_{k+1} = 2^((k+1)//2 - k//2) x P_k - (k+s) P_{k-1}, and divides once at
    the end.
    """
    if n < 0 or s < 0:
        raise ValueError("need n >= 0 and s >= 0")
    coeffs = _recurrence("monic_q", s, n, ((1,), (0, 1)),
                         lambda k: 2 if k % 2 else 1, lambda k: k + s)
    return _unscale(coeffs, n // 2)


def assoc_hermite(n: int, s: int) -> PolyExact:
    """Shifted-index Hermite family from H_{k+1} = 2x H_k - 2(s+k) H_{k-1}
    with H_0 = 1; integer coefficients, classical Hermite at s = 0."""
    if n < 0 or s < 0:
        raise ValueError("need n >= 0 and s >= 0")
    return PolyExact(_recurrence("assoc_hermite", s, n, ((1,), (0, 2)),
                                 lambda k: 2, lambda k: 2 * (s + k)))


def char_poly(n: int, s: int) -> PolyExact:
    """det(x 1_n - Q_n) by expanding along the last row: successive leading
    principal minors obey d_k = x d_{k-1} - c_{k-1}^2 d_{k-2}.

    Runs on the integer minors D_k = 2^k d_k, D_k = 2x D_{k-1} -
    4 c_{k-1}^2 D_{k-2}, and divides by 2^n once at the end.
    """
    if n < 1:
        raise ValueError("n must be positive")
    jm = JacobiMatrix(s, n)
    minor = _recurrence("char_poly", s, n, ((1,), (0, 2)), lambda k: 2,
                        lambda k: int(4 * jm.offdiag_sq(k)))
    return _unscale(minor, n)


def section_eigenvalues(sizes, s: int) -> list:
    """Eigenvalues of the n-sections for every n in sizes, ascending, one
    array per section, from one multisection over all of them (see
    tridiag.section_eigenvalues); each equals eigenvalues(n, s)."""
    sizes = list(sizes)
    n = max(sizes, default=0)
    return tridiag.section_eigenvalues(np.zeros(n),
                                       JacobiMatrix(s, n).offdiag(), sizes)


def eigenvalues(n: int, s: int) -> np.ndarray:
    """Eigenvalues of the n-section, ascending, by Sturm multisection on the
    Jacobi matrix from certified LAPACK brackets (see tridiag.eigenvalues).
    Each value is the midpoint of a bracket 2^-60 of the Gershgorin span
    wide, but the float Sturm counts that place it are rounded, so its error
    is a backward error of a few u*||J|| (u = 2^-53): 1-2 ulp, and up to 10
    ulp for an eigenvalue near 0."""
    return section_eigenvalues([n], s)[0]


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


def golub_welsch(s: int, n: int) -> DiscreteMeasure:
    """Discrete approximation of the spectral measure of the position
    operator: nodes are section eigenvalues, weights the squared first
    eigenvector components."""
    jm = JacobiMatrix(s, n)
    nodes, weights = tridiag.golub_welsch(np.zeros(n), jm.offdiag())
    lost = np.flatnonzero(weights <= 0)
    if lost.size:
        raise ValueError(
            f"--dim {n}: the Golub-Welsch weight at node "
            f"{nodes[lost[0]]:.6g} underflows a float (s = {s}); a "
            f"smaller --dim keeps every weight representable")
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
        f = hyp3f2_terminating(m - n, a2, c, -alpha - n, c + m + 1)
        coef = (pref * pochhammer_exact(Fraction(-n), m) * f
                / (pochhammer_exact(c + 1, m) * pochhammer_exact(alpha + 1, m)))
        out.append(coef)
    return out


def assoc_hermite_laguerre_check(n: int, s: int) -> list:
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
    checks.append(worst_case(f"spectral.even_laguerre_factorization.n{n}.s{s}",
                             0.0, [(float(not exact_even), f"n={n} s={s}")],
                             2 * n + 1))

    odd_lag = assoc_laguerre_coeffs(n, Fraction(1, 2), Fraction(s, 2), True)
    odd_poly = [Fraction(0)] * (2 * n + 2)
    for m, cm in enumerate(odd_lag):
        odd_poly[2 * m + 1] = 2 * sigma * cm
    h_odd = assoc_hermite(2 * n + 1, s)
    exact_odd = PolyExact(odd_poly) == h_odd
    checks.append(worst_case(f"spectral.odd_laguerre_factorization.n{n}.s{s}",
                             0.0, [(float(not exact_odd), f"n={n} s={s}")],
                             2 * n + 2))

    def samples():
        sig = float(sigma)
        for x in (0.3 + 0.4 * j for j in range(2 * n + 3)):
            for h, lag, factor in ((h_even, even_lag, sig),
                                   (h_odd, odd_lag, 2 * x * sig)):
                lhs = h(x)
                rhs = factor * sum(float(cm) * x ** (2 * m)
                                   for m, cm in enumerate(lag))
                yield (abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)),
                       f"n={n} s={s} x={x:.1f}")

    checks.append(worst_case(
        f"spectral.laguerre_factorization_samples.n{n}.s{s}", 1e-10,
        samples()))
    return checks
