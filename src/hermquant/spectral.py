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
recurrences run on integers scaled by powers of 2: the identity checks
compare the scaled integer rows 2^n q_n, D_n = 2^n det(x - Q_n) and H_n
themselves, and `monic_q` and `char_poly` divide once at the end.  The 3F2
sums have half-integer parameters and run on integers over one common
denominator.  Evaluation at a float is exact as well and rounds once, so no
cancellation near a root costs digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import tridiag
from .report import worst_case


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


def _unscale(coeffs, e: int) -> PolyExact:
    """The polynomial with coefficients c / 2^e, each an int where the
    division is exact and a Fraction otherwise."""
    mask = (1 << e) - 1
    return PolyExact([c >> e if not c & mask else Fraction(c, 1 << e)
                      for c in coeffs])


def scaled_monic_q(n: int, s: int) -> tuple:
    """2^n q_n as ascending integer coefficients, q_n the monic orthogonal
    polynomial of q_{k+1} = x q_k - c_k^2 q_{k-1}, q_0 = 1, q_1 = x,
    c_k^2 = (k+s)/2.

    The recurrence runs on the integer polynomials P_k = 2^(k//2) q_k,
    P_{k+1} = 2^((k+1)//2 - k//2) x P_k - (k+s) P_{k-1}.
    """
    if n < 0 or s < 0:
        raise ValueError("need n >= 0 and s >= 0")
    coeffs = _recurrence("monic_q", s, n, ((1,), (0, 1)),
                         lambda k: 2 if k % 2 else 1, lambda k: k + s)
    return tuple(c << (n - n // 2) for c in coeffs)


def monic_q(n: int, s: int) -> PolyExact:
    """The monic orthogonal polynomial q_n of `scaled_monic_q`, with exact
    rational coefficients."""
    return _unscale(scaled_monic_q(n, s), n)


def assoc_hermite(n: int, s: int) -> PolyExact:
    """Shifted-index Hermite family from H_{k+1} = 2x H_k - 2(s+k) H_{k-1}
    with H_0 = 1; integer coefficients, classical Hermite at s = 0."""
    if n < 0 or s < 0:
        raise ValueError("need n >= 0 and s >= 0")
    return PolyExact(_recurrence("assoc_hermite", s, n, ((1,), (0, 2)),
                                 lambda k: 2, lambda k: 2 * (s + k)))


def scaled_char_poly(n: int, s: int) -> tuple:
    """D_n = 2^n det(x 1_n - Q_n) as ascending integer coefficients.

    Expanding along the last row, the leading principal minors obey
    d_k = x d_{k-1} - c_{k-1}^2 d_{k-2}; the integer minors D_k = 2^k d_k
    obey D_k = 2x D_{k-1} - 4 c_{k-1}^2 D_{k-2}, with 4 c_k^2 = 2(k+s).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _recurrence("char_poly", s, n, ((1,), (0, 2)), lambda k: 2,
                       lambda k: 2 * (k + s))


def char_poly(n: int, s: int) -> PolyExact:
    """det(x 1_n - Q_n), the D_n of `scaled_char_poly` divided by 2^n once."""
    return _unscale(scaled_char_poly(n, s), n)


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


def _rising2(p: int, k: int) -> int:
    """p (p+2) ... (p+2k-2) = 2^k (p/2)_k, the Pochhammer symbol of p/2
    scaled to an integer."""
    out = 1
    for i in range(k):
        out *= p + 2 * i
    return out


def assoc_laguerre_coeffs(n: int, s: int, odd: bool) -> tuple:
    """(nums, D), D > 0: the coefficients nums[m] / D (in x, ascending) of
    the associated Laguerre polynomial defined by the terminating 3F2
    representation

      ((alpha+1)_n/n!) sum_m (-n)_m x^m/((c+1)_m (alpha+1)_m)
                              * 3F2(m-n, m-alpha[+1], c; -alpha-n, c+m+1; 1)

    with c = s/2, and alpha = -1/2 for the even family, alpha = 1/2 and the
    numerator m+1-alpha for the odd one.

    Every parameter is a multiple of 1/2.  With a = 2 alpha and each
    Pochhammer symbol written as (p/2)_k = R(p, k)/2^k, R = `_rising2`,
    coefficient m is

      (-1)^m 4^m R(a+2+2m, n-m) F_m / (2^n (n-m)! R(s+2, m)),

    and the 3F2 sum F_m is summed in integers: its term ratio is
    (A1+2j)(A2+2j)(s+2j) / (2 (j+1)(B1+2j)(B2+2j)) with A1 = 2(m-n),
    A2 = 2m-a (+2 when odd), B1 = -a-2n and B2 = s+2m+2, and the terms are
    gathered from the last back over the product of the ratio
    denominators.  No denominator vanishes: B1 is odd and B2 positive.
    """
    a = 1 if odd else -1
    pairs = []
    for m in range(n + 1):
        a1, a2 = 2 * (m - n), 2 * m - a + 2 * odd
        b1, b2 = -a - 2 * n, s + 2 * m + 2
        num = den = 1
        for j in reversed(range(n - m)):
            d = 2 * (j + 1) * (b1 + 2 * j) * (b2 + 2 * j)
            num = d * den + (a1 + 2 * j) * (a2 + 2 * j) * (s + 2 * j) * num
            den *= d
        num *= (-1) ** m * 4 ** m * _rising2(a + 2 + 2 * m, n - m)
        den *= 2 ** n * math.factorial(n - m) * _rising2(s + 2, m)
        pairs.append((num, den) if den > 0 else (-num, -den))
    big_d = math.lcm(*(den for _, den in pairs))
    return [num * (big_d // den) for num, den in pairs], big_d


def assoc_hermite_laguerre_check(n: int, s: int) -> list:
    """Even/odd factorization of the shifted Hermite family through associated
    Laguerre polynomials:

        H_{2n}(x; s)   = sigma_n * Lcal_n^{-1/2}(x^2; s/2)
        H_{2n+1}(x; s) = 2 x sigma_n * L_n^{1/2}(x^2; s/2)

    with sigma_n = (-4)^n (1 + s/2)_n = (-2)^n R(s+2, n), an integer.
    Compared coefficient-exactly, as the integer rows D H against
    sigma_n (2x) nums over the common denominator D, and at 2n + 3 sample
    points.
    """
    sigma = (-2) ** n * _rising2(s + 2, n)
    checks = []
    families = []
    for odd in (False, True):
        nums, big_d = assoc_laguerre_coeffs(n, s, odd)
        h = assoc_hermite(2 * n + odd, s)
        row = [0] * (2 * n + 1 + odd)
        for m, num in enumerate(nums):
            row[2 * m + odd] = (1 + odd) * sigma * num
        exact = [big_d * c for c in h.coeffs] == row
        name = "odd" if odd else "even"
        checks.append(worst_case(
            f"spectral.{name}_laguerre_factorization.n{n}.s{s}", 0.0,
            [(float(not exact), f"n={n} s={s}")], len(row)))
        families.append((h, [num / big_d for num in nums]))

    def samples():
        sig = float(sigma)
        (h_even, even_lag), (h_odd, odd_lag) = families
        for x in (0.3 + 0.4 * j for j in range(2 * n + 3)):
            for h, lag, factor in ((h_even, even_lag, sig),
                                   (h_odd, odd_lag, 2 * x * sig)):
                lhs = h(x)
                rhs = factor * sum(cm * x ** (2 * m)
                                   for m, cm in enumerate(lag))
                yield (abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)),
                       f"n={n} s={s} x={x:.1f}")

    checks.append(worst_case(
        f"spectral.laguerre_factorization_samples.n{n}.s{s}", 1e-10,
        samples()))
    return checks
