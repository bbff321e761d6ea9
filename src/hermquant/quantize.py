"""Coherent-state quantization of phase-space functions.

A function f(z, zbar) is sent to the operator with matrix elements

  [A^eps_{f;s}]_{nn'} = s!/sqrt((n+s)!(n'+s)!) * int_0^inf du e^{-u}
        L_s^(n)(u) L_s^(n')(u) u^{(n+n')/2}
        * (1/2pi) int_0^2pi dtheta e^{+-i(n-n')theta} F(u, theta)

with F(u, theta) = f(sqrt(u) e^{i theta}, .) and the '+' phase on the L
sector.  Monomials z^a zbar^b admit a closed finite-sum form supported on the
single band n - n' = eps(b - a); everything else is integrated by the exact
polar quadrature of `quadrature`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .basis import _log_phi, cs_coefficients
from .errors import HintViolation, PoleError
from .exact import ExactC, SqrtSum
from .matrices import TruncatedOperator, band_matvec, eps_sign
from .quadrature import QuadratureRule, gauss_laguerre_rule, rule_for
from .specfun import laguerre


def angular_phase_sign(epsilon: str) -> int:
    """Sign of the angular phase e^{+-i(n-n')theta}: +1 for 'L', -1 for 'R'.

    Only the quadrature path reads it; `quantize_monomial` takes the same
    sign from `matrices.eps_sign` itself, so each route checks the other.
    """
    return -eps_sign(epsilon)


@dataclass(frozen=True)
class Monomial:
    """The phase-space monomial z^a zbar^b."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("exponents must be nonnegative")

    def radial_degree_hint(self, s: int, N: int) -> int:
        return N - 1 + max(self.a, self.b) + 2 * s

    def max_freq_hint(self, N: int) -> int:
        return N - 1 + abs(self.a - self.b)

    def sample(self, u: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return (u[:, None] ** ((self.a + self.b) / 2.0)
                * np.exp(1j * (self.a - self.b) * theta[None, :]))


@dataclass(frozen=True)
class Sampled:
    """A phase-space function given as a callable F(u, theta) on grids, with
    the degree hints that let the quadrature be sized exactly."""

    func: Callable
    max_angular_freq: int | None = None
    radial_degree: int | None = None

    def sample(self, u: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return np.asarray(self.func(u[:, None], theta[None, :]), dtype=complex) \
            * np.ones((u.size, theta.size))


def _band_offset(a: int, b: int, epsilon: str) -> int:
    """Column-minus-row offset of the nonzero band; n - n' = eps(b - a) puts
    the support at n' - n = eps(a - b)."""
    return -eps_sign(epsilon) * (a - b)


# verify's quantize suite reads 115 of these roots 2,128 times
@functools.lru_cache(maxsize=1024)
def _factorial_root(k: int, offset: int) -> SqrtSum:
    """sqrt(k!/(k+offset)!), exact; SqrtSum values are never mutated."""
    return SqrtSum.sqrt(Fraction(math.factorial(k),
                                 math.factorial(k + offset)))


def quantize_monomial(a: int, b: int, s: int, epsilon: str,
                      N: int) -> TruncatedOperator:
    """Closed-form quantization of z^a zbar^b on sector (epsilon, s), exact.

    Entries live on the single band n - n' = eps(b-a) (eps = +1 for L) and
    are the finite sums

      (-1)^s sqrt((n+s)!/(n'+s)!) sum_{m=sup(0, s-a_-eps)}^{s} (-1)^m
          (n+a_eps+m)! (a_-eps+m)! / (m! (s-m)! (m+n)! (a_-eps-s+m)!)

    with a_+ = a and a_- = b for 'L', swapped for 'R'.  The sum is an
    integer and the root an exact SqrtSum, so the band is held as ExactC
    values and each float is rounded from its exact value.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if a < 0 or b < 0:
        raise ValueError("exponents must be nonnegative")
    sgn = -eps_sign(epsilon)  # +1 for L, -1 for R
    a_eps = a if sgn == 1 else b
    a_meps = b if sgn == 1 else a
    offset = _band_offset(a, b, epsilon)
    band = []
    for n in range(max(0, -offset), N - max(0, offset)):
        total = 0
        for m in range(max(0, s - a_meps), s + 1):
            total += ((-1) ** m
                      * math.factorial(n + a_eps + m) * math.factorial(a_meps + m)
                      // (math.factorial(m) * math.factorial(s - m)
                          * math.factorial(m + n) * math.factorial(a_meps - s + m)))
        band.append(ExactC(_factorial_root(n + s, offset)
                           * ((-1) ** s * total)))
    return TruncatedOperator.from_exact({offset: band}, N, (offset, offset),
                                        (epsilon, s))


def default_rule(f, s: int, N: int) -> QuadratureRule:
    """Quadrature sized from the hints: exact for the matrix-element
    integrands of f on an N-section."""
    if isinstance(f, Monomial):
        radial_degree = f.radial_degree_hint(s, N)
        max_freq = f.max_freq_hint(N)
    else:
        if f.max_angular_freq is None or f.radial_degree is None:
            raise HintViolation(
                "sampled phase-space functions need max_angular_freq and "
                "radial_degree hints (or an explicit rule)")
        radial_degree = f.radial_degree + N - 1 + 2 * s
        max_freq = f.max_angular_freq + N - 1
    return rule_for(radial_degree, max_freq)


def _radial_pairs(s: int, N: int, u: np.ndarray) -> tuple:
    """For each band offset |d| < N, the products e^u phi_{n;s} phi_{n+|d|;s}
    at the nodes u, n < N - |d|, as complex rows ready for the angular
    factors.  Each phi is the radial factor sqrt(s!/(s+n)!) u^{n/2}
    L_s^(n)(u), with e^{-u/2} and the sector sign (-1)^s, which cancel in
    every product, taken out."""
    logmag, sign = _log_phi(s, np.arange(N), u)
    radial = sign * np.exp(logmag + 0.5 * u)
    return tuple((radial[:N - d] * radial[d:]).astype(complex)
                 for d in range(N))


# verify's quantize suite reads 12 tables
@functools.lru_cache(maxsize=64)
def _shared_radial_pairs(s: int, N: int, n_r: int) -> tuple:
    """The radial products at the nodes of the shared n_r-point rule of
    `gauss_laguerre_rule`, built once per process and read-only.  Only
    default rules read them: a caller's rule is never matched to a table by
    its size."""
    pairs = _radial_pairs(s, N, gauss_laguerre_rule(n_r).radial_nodes)
    for row in pairs:
        row.setflags(write=False)
    return pairs


def quantize_numeric(f, s: int, epsilon: str, N: int,
                     rule: QuadratureRule | None = None) -> TruncatedOperator:
    """Quantization of f by the double integral, using radial Gauss-Laguerre
    times the exact uniform angular grid.

    The radial factor of entry (n, n') is e^u phi_{n;s} phi_{n';s} at
    |z|^2 = u, from the log-magnitude table of `basis.phi_values`; a
    default rule builds these products once per process for each
    (s, N, n_r).  The entries are summed one band offset n' - n at a time,
    so the work arrays hold O(N n_r) values.
    """
    if rule is None:
        rule = default_rule(f, s, N)
        pairs = _shared_radial_pairs(s, N, rule.radial_nodes.size)
    else:
        pairs = _radial_pairs(s, N, rule.radial_nodes)
    sgn = angular_phase_sign(epsilon)
    u = rule.radial_nodes
    theta = rule.angles()
    m_ang = rule.angular_count
    fvals = f.sample(u, theta)

    # band offset d = n' - n carries the angular phase e^{-+i d theta}
    ds = np.arange(1 - N, N)
    phases = np.exp(-1j * sgn * np.outer(ds, theta))    # (2N-1, M)
    angular = rule.radial_weights * (phases @ fvals.T) / m_ang  # (2N-1, n_r)

    bands = {d: pairs[abs(d)] @ angular[d + N - 1] for d in ds.tolist()}
    return TruncatedOperator(N, bands, 1 - N, N - 1, (epsilon, s))


def lower_symbol(A: TruncatedOperator, z, s: int, epsilon: str = "L",
                 tol: float = 1e-12):
    """Expectation <z; s, eps| A |z; s, eps> in the coherent state at z: a
    complex for a scalar z, an array of z's shape for an array z.

    The dimension of A must capture all but tol of the coherent-state norm
    at every z (else TailError).
    """
    c = cs_coefficients(s, z, A.dim, epsilon, tol)
    out = np.sum(c.conj() * band_matvec(A.bands, c), axis=0)
    return out if out.ndim else complex(out)


def _falling_product(base: float, count: int) -> float:
    """Product (base - 1)(base - 2)...(base - count); PoleError on zero."""
    out = 1.0
    for k in range(1, count + 1):
        f = base - k
        if f == 0:
            raise PoleError("closed form pole: beta - lambda hits a positive "
                            "integer inside the summation range")
        out *= f
    return out


def laguerre_integral(lam: float, alpha: float, beta: float, r: int,
                      s: int) -> float:
    """int_0^inf x^lam e^{-x} L_r^(alpha)(x) L_s^(beta)(x) dx, lam > -1.

    Evaluates the terminating-hypergeometric closed form with the prefactor
    Pochhammer (beta-lam)_s folded into the sum term by term, which keeps the
    expression finite where the raw 3F2 has a pole cancelled by a vanishing
    prefactor.  Genuine poles (beta - lam a positive integer <= r - s) raise
    PoleError; `laguerre_integral_swapped` then usually applies.
    """
    if lam <= -1:
        raise ValueError("need lam > -1 for convergence")
    mu = beta - lam
    pref = math.gamma(lam + 1.0) / (math.factorial(r) * math.factorial(s))
    for j in range(r + 1):
        if alpha + 1 + j == 0:
            raise PoleError("(alpha+1)_j vanishes inside the summation range")
    total = 0.0
    term_core = 1.0  # (-r)_j (lam+1)_j (lam+1-beta)_j / ((alpha+1)_j j!)
    for j in range(r + 1):
        if j > 0:
            term_core *= ((-r + j - 1) * (lam + j) * (lam - beta + j)
                          / ((alpha + j) * j))
        if j <= s:
            cj = 1.0
            for i in range(s - j):
                cj *= mu + i
            cj *= (-1) ** j
        else:
            cj = (-1) ** j / _falling_product(mu, j - s)
        total += term_core * cj
    poch_alpha = 1.0
    for i in range(r):
        poch_alpha *= 1 + alpha + i
    return pref * poch_alpha * total


def laguerre_integral_swapped(lam: float, alpha: float, beta: float, r: int,
                              s: int) -> float:
    """Same integral through the symmetric closed form with the roles of
    (r, alpha) and (s, beta) exchanged."""
    return laguerre_integral(lam, beta, alpha, s, r)


def laguerre_integral_quadrature(lam: float, alpha: float, beta: float,
                                 r: int, s: int,
                                 n_r: int | None = None) -> float:
    """Gauss-Laguerre oracle for the same integral (exact for integer lam)."""
    if n_r is None:
        n_r = (r + s + max(0, math.ceil(lam))) // 2 + 12
    rule = gauss_laguerre_rule(n_r)
    u = rule.radial_nodes
    vals = u ** lam * laguerre(r, alpha, u) * laguerre(s, beta, u)
    return float(np.dot(rule.radial_weights, vals))


def laguerre_integral_moments(lam: float, alpha: float, beta: float,
                              r: int, s: int) -> float:
    """Moment-expansion oracle: expand both polynomials in coefficients and
    integrate term by term with Gamma(lam + i + k + 1); valid for any real
    lam > -1."""
    from .specfun import laguerre_coeffs

    cr = [float(c) for c in laguerre_coeffs(r, alpha)]
    cs = [float(c) for c in laguerre_coeffs(s, beta)]
    total = 0.0
    for i, ci in enumerate(cr):
        for k, ck in enumerate(cs):
            total += ci * ck * math.gamma(lam + i + k + 1.0)
    return total
