"""Coherent-state quantization of phase-space functions.

A function f(z, zbar) is sent to the operator with matrix elements

  [A^eps_{f;s}]_{nn'} = s!/sqrt((n+s)!(n'+s)!) * int_0^inf du e^{-u}
        L_s^(n)(u) L_s^(n')(u) u^{(n+n')/2}
        * (1/2pi) int_0^2pi dtheta e^{+-i(n-n')theta} F(u, theta)

with F(u, theta) = f(sqrt(u) e^{i theta}, .) and the '+' phase on the L
sector.  For a monomial z^a zbar^b the angular integral keeps the single
band n - n' = eps(b - a), and the radial one is the two-Laguerre integral
`laguerre_integral`, an integer sum of factorials computed exactly;
`laguerre_integral_quadrature` is its Gauss-Laguerre check.  Everything else
is integrated by the exact polar quadrature of `quadrature`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .basis import _log_phi, cs_coefficients
from .errors import HintViolation
from .exact import Surd
from .matrices import TruncatedOperator, band_matvec, eps_sign
from .quadrature import QuadratureRule, gauss_laguerre_rule, rule_for
from .specfun import laguerre_many


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
def _factorial_root(k: int, offset: int) -> Surd:
    """sqrt(k!/(k+offset)!), exact; Surd values are never mutated."""
    return Surd.sqrt(Fraction(math.factorial(k),
                                 math.factorial(k + offset)))


def quantize_monomial(a: int, b: int, s: int, epsilon: str,
                      N: int) -> TruncatedOperator:
    """Closed-form quantization of z^a zbar^b on sector (epsilon, s), exact.

    Entries live on the single band n - n' = eps(b-a) (eps = +1 for L) and
    are the two-Laguerre integrals

      s!/sqrt((n+s)!(n'+s)!) int_0^inf u^lam e^{-u} L_s^(n)(u) L_s^(n')(u) du

    with lam = (n+n'+a+b)/2, an integer on the band.  The two-Laguerre
    integral of `laguerre_integral` gives s!^2 times the integral as an
    integer J, and J/(s!(n+s)!) is an integer, so each entry is
    sqrt((n+s)!/(n'+s)!) times an integer: an exact Surd.  The scaled
    coefficient row of each L_s^(n) and one factorial table are built once
    per band.  The band is held as Surd values and each float is rounded
    from its exact value.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if a < 0 or b < 0:
        raise ValueError("exponents must be nonnegative")
    offset = _band_offset(a, b, epsilon)
    ns = range(max(0, -offset), N - max(0, offset))
    shift = (offset + a + b) // 2
    rows = {alpha: _scaled_laguerre_coeffs(s, alpha)
            for alpha in {*ns, *(n + offset for n in ns)}}
    fact = _factorials(max(ns, default=0) + shift + 2 * s)
    band = [_factorial_root(n + s, offset)
            * (_row_integral(n + shift, rows[n], rows[n + offset], fact)
               // (fact[s] * fact[n + s]))
            for n in ns]
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


def _scaled_laguerre_coeffs(r: int, alpha: int) -> list:
    """Coefficients of x^i in r! L_r^(alpha)(x): (-1)^i C(r, i)
    (alpha+r)!/(alpha+i)!, integers for integer alpha >= 0."""
    return [(-1) ** i * math.comb(r, i) * math.perm(alpha + r, r - i)
            for i in range(r + 1)]


def _factorials(n: int) -> list:
    """[0!, 1!, ..., n!]."""
    out = [1]
    for k in range(1, n + 1):
        out.append(out[-1] * k)
    return out


def _row_integral(lam: int, c: list, d: list, fact: list) -> int:
    """sum_{i,k} c_i d_k (lam+i+k)!: the product polynomial of the rows c
    and d, dotted with the factorials from lam! on."""
    prod = [0] * (len(c) + len(d) - 1)
    for i, ci in enumerate(c):
        for k, dk in enumerate(d, i):
            prod[k] += ci * dk
    return sum(map(operator.mul, prod, fact[lam:]))


def laguerre_integral(lam: int, alpha: int, beta: int, r: int, s: int) -> int:
    """r! s! int_0^inf x^lam e^{-x} L_r^(alpha)(x) L_s^(beta)(x) dx, exactly,
    for nonnegative integer arguments.

    Both scaled polynomials have integer coefficients c_i and d_k, and x^m
    integrates to m!, so the value is the integer
    sum_{i,k} c_i d_k (lam+i+k)!.
    """
    if not all(isinstance(v, int) and v >= 0
               for v in (lam, alpha, beta, r, s)):
        raise ValueError("laguerre_integral needs nonnegative integers")
    return _row_integral(lam, _scaled_laguerre_coeffs(r, alpha),
                         _scaled_laguerre_coeffs(s, beta),
                         _factorials(lam + r + s))


def laguerre_integral_quadrature(lam: int, alpha: int, beta: int, r: int,
                                 s: int) -> float:
    """The unscaled integral of `laguerre_integral` by Gauss-Laguerre, on
    the ceil((r+s+lam+1)/2) nodes that integrate its degree r+s+lam
    exactly."""
    rule = gauss_laguerre_rule((r + s + lam + 2) // 2)
    u = rule.radial_nodes
    vals = u ** lam * laguerre_many(r, alpha, u) * laguerre_many(s, beta, u)
    return float(np.dot(rule.radial_weights, vals))
