"""Orthonormal two-index Hermite functions on the complex plane, their
reproducing kernels, normalization factors, displacement matrix elements,
and the associated probability distributions.

The working functions are

    phi^L_{n;s}(z) = (-1)^s sqrt(s!/(s+n)!) e^{-|z|^2/2} zbar^n L_s^(n)(|z|^2)

with phi^R the complex conjugate; for n = 0 both collapse to the same
real-valued relative ground state.  `phi_values` is their one table over n
and z: magnitudes are assembled in log space so large |z| neither overflows
nor underflows, and `phi`, `reproduce`, `gamma_like_pdf`, the coherent-state
coefficients, the series of N_s and the quadrature path of `quantize` all
read it.  The closed forms of N_s build their Laguerre factors from the
degree recurrence of `laguerre_many`, and they, the coherent states and the
displacement elements take whole arrays of points; only the kernel series
keeps a Laguerre path of its own.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, TailError
from .quadrature import gauss_laguerre_rule, grid_points, phase_space_integral
from .specfun import laguerre, laguerre_many, log_factorial

_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # e^t overflows beyond this t
# Terms per phi table in normalization_series: the series settles within
# 135 terms (3 tables) at t <= 50 and within 948 (15 tables) at t = 700.
_SERIES_BLOCK = 64


@dataclass(frozen=True)
class BasisLabel:
    """Label (epsilon, n, s) of one orthonormal basis function."""

    epsilon: str
    n: int
    s: int

    def __post_init__(self):
        if self.epsilon not in ("L", "R"):
            raise ValueError("epsilon must be 'L' or 'R'")
        if self.n < 0 or self.s < 0:
            raise ValueError("n and s must be nonnegative")


@functools.lru_cache(maxsize=None)
def _log_factorials(size: int) -> np.ndarray:
    """Read-only table of log k! for k < size."""
    table = np.array([log_factorial(k) for k in range(size)])
    table.flags.writeable = False
    return table


def _log_phi(s: int, n, t) -> tuple:
    """log|phi_{n;s}| and the sign of L_s^(n) at |z|^2 = t, with shape
    n.shape + t.shape, from one Laguerre table:

        log|phi| = (log s! - log (s+n)!)/2 - t/2 + (n/2) log t + log|L|

    log|phi| is -inf at a zero of L and, for n > 0, at t = 0.
    """
    n = np.asarray(n)
    t = np.asarray(t, dtype=float)
    lag = laguerre_many(s, n, t)
    n = n.reshape(n.shape + (1,) * t.ndim)
    k = s + n
    log_fac = _log_factorials(1 << int(np.max(k, initial=0)).bit_length())[k]
    with np.errstate(divide="ignore"):
        logmag = (0.5 * (log_factorial(s) - log_fac) - 0.5 * t
                  + 0.5 * n * np.log(np.where(n == 0, 1.0, t))
                  + np.log(np.abs(lag)))
    return logmag, np.sign(lag)


def phi_values(s: int, n, z):
    """Table of phi^L_{n;s}(z) over an int or int array n and a scalar or
    array z, with shape n.shape + z.shape; a complex when both are scalars.

    The magnitude is assembled in log space, so large |z| and n neither
    overflow nor underflow before the final exponential.
    """
    z = np.asarray(z, dtype=complex)
    logmag, sign = _log_phi(s, n, np.abs(z) ** 2)
    n = np.asarray(n).reshape(np.shape(n) + (1,) * z.ndim)
    out = (-1) ** s * sign * np.exp(logmag) * np.exp(-1j * n * np.angle(z))
    return out if out.ndim else complex(out)


def phi(label: BasisLabel, z):
    """Value of the orthonormal basis function phi^eps_{n;s} at z: a complex
    for a scalar z, an array of z's shape for an array z."""
    val = phi_values(label.s, label.n, z)
    return val.conjugate() if label.epsilon == "R" else val


def _first_where(t, mask) -> float:
    """The first element of t, in C order, where mask holds."""
    return np.asarray(t, dtype=float)[mask].flat[0].item()


def _check_sector_and_t(s: int, t) -> None:
    """The domain of N_s(t): s >= 0 and finite t >= 0, for a scalar or array
    t."""
    if s < 0:
        raise ValueError(f"s = {s}: the sector label must be nonnegative")
    nonfinite = ~np.isfinite(t)
    if np.any(nonfinite):
        raise ValueError(f"t must be finite: t = {_first_where(t, nonfinite)}")
    negative = np.asarray(t) < 0
    if np.any(negative):
        raise ValueError(
            f"t must be nonnegative: t = {_first_where(t, negative)}")


def _check_exp_range(t) -> None:
    """N_s(t) is a float only while e^t is."""
    over = np.asarray(t) > _LOG_FLOAT_MAX
    if np.any(over):
        raise OverflowError(
            f"N_s(t) at t = {_first_where(t, over)} overflows a float: e^t "
            f"exceeds {sys.float_info.max:.4g} beyond "
            f"t = {_LOG_FLOAT_MAX:.2f}")


def normalization(s: int, t):
    """Coherent-state normalization N_s(t) in closed form:

        N_s(t) = e^t - sum_{m<s} (m!/s!) t^{s-m} (L_m^(s-m)(t))^2

    with the subtracted sum taken from `normalization_deficit_log`; a float
    for a scalar t, an array of t's shape for an array t.  e^t is math.exp's,
    so N_0 = e^t and N_1 = e^t - t hold as Python computes e^t.
    """
    _check_sector_and_t(s, t)
    _check_exp_range(t)
    t = np.asarray(t, dtype=float)
    exp_t = np.reshape([math.exp(v) for v in t.ravel().tolist()], t.shape)
    out = exp_t - np.exp(normalization_deficit_log(s, t))
    return out if out.ndim else float(out)


def normalization_series(s: int, t, tol: float = 1e-14,
                         max_terms: int = 100_000):
    """N_s(t) summed from its defining series sum_n e^t |phi_{n;s}|^2 at
    |z|^2 = t, that is sum_n (s!/(s+n)!) t^n L_s^(n)(t)^2, for a scalar or
    array t.

    The terms come from the phi table, one block of _SERIES_BLOCK n at a
    time over the points still summing, and each point adds its terms in
    order of n.  A point's sum stops once three consecutive terms drop below
    tol relative to the partial sum.  Returns (value, terms_used): a float
    and an int for a scalar t, arrays of t's shape for an array t.
    """
    _check_sector_and_t(s, t)
    _check_exp_range(t)
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    total = np.zeros(flat.shape)
    used = np.zeros(flat.shape, dtype=int)  # 0 while a point is summing
    small = np.zeros((2,) + flat.shape, dtype=bool)  # its last two terms
    for start in range(0, max_terms, _SERIES_BLOCK):
        live = np.flatnonzero(used == 0)
        if not live.size:
            break
        ns = np.arange(start, min(start + _SERIES_BLOCK, max_terms))
        terms = np.exp(2.0 * _log_phi(s, ns, flat[live])[0] + flat[live])
        partial = np.cumsum(np.vstack([total[live], terms]), axis=0)[1:]
        runs = np.vstack([small[:, live],
                          terms <= tol * np.maximum(partial, 1.0)])
        settled = runs[2:] & runs[1:-1] & runs[:-2]
        first, cols = np.argmax(settled, axis=0), np.arange(live.size)
        done = settled[first, cols]
        used[live[done]] = start + first[done] + 1
        total[live] = np.where(done, partial[first, cols], partial[-1])
        small[:, live] = runs[-2:]
    if np.any(used == 0):
        raise NonConvergence("normalization series did not settle")
    if t.ndim:
        return total.reshape(t.shape), used.reshape(t.shape)
    return float(total[0]), int(used[0])


def normalization_deficit_log(s: int, t):
    """log(e^t - N_s(t)), the log of the subtracted degree-(2s-1) polynomial,
    for a scalar or array t: a float or an array of t's shape.

    Each term m of the sum is taken in log space from L_m^(s-m)(t) by the
    degree recurrence of `laguerre_many`, and the terms are added in order of
    m.  Finite iff the deficit is strictly positive, which is how the strict
    bound N_s(t) < e^t (s >= 1, t > 0) stays checkable after e^t - N_s drops
    below float resolution of e^t; -inf at s = 0 and at t = 0.
    """
    _check_sector_and_t(s, t)
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):  # log 0 = -inf: t = 0 or a zero of L
        log_t = np.log(t)
        terms = [log_factorial(m) - log_factorial(s) + (s - m) * log_t
                 + 2.0 * np.log(np.abs(laguerre_many(m, s - m, t)))
                 for m in range(s)]
        top = functools.reduce(np.maximum, terms, np.full(t.shape, -np.inf))
        # where every term is -inf the sum below is 0 and its log -inf
        top = np.where(top > -np.inf, top, 0.0)
        total = sum((np.exp(v - top) for v in terms), np.zeros(t.shape))
        out = top + np.log(total)
    return out if out.ndim else float(out)


def normalization_scaled(s: int, t):
    """e^{-t} N_s(t) = 1 - e^{-t} (e^t - N_s(t)), stable for any t >= 0
    (bounded in (0, 1]); a float for a scalar t, an array for an array t."""
    out = 1.0 - np.exp(normalization_deficit_log(s, t) - np.asarray(t))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class KernelValue:
    """Adaptively truncated kernel evaluation with a tail estimate."""

    value: complex
    truncation_n: int
    est_tail: float


def kernel(s: int, z: complex, zprime: complex, tol: float = 1e-12,
           max_terms: int = 500) -> KernelValue:
    """Sector-s reproducing kernel

        K_s(z, zbar') = sum_n [s!/(s+n)!] (zbar z')^n L_s^(n)(|z|^2) L_s^(n)(|z'|^2)

    truncated when three consecutive terms fall below tol times the partial
    sum.  The terms eventually decay factorially, so the discarded tail is
    below est_tail.
    """
    z = complex(z)
    zprime = complex(zprime)
    t = abs(z) ** 2
    tp = abs(zprime) ** 2
    w = z.conjugate() * zprime
    total = 0j
    wn = 1.0 + 0j
    fac = 1.0
    small: list = []
    for n in range(max_terms):
        if n > 0:
            fac /= s + n
            wn *= w
        term = fac * wn * laguerre(s, n, t) * laguerre(s, n, tp)
        total += term
        if abs(term) <= tol * max(abs(total), 1.0):
            small.append(abs(term))
            if len(small) >= 3:
                return KernelValue(total, n + 1, 2.0 * sum(small))
        else:
            small = []
    raise NonConvergence(
        f"kernel series for s={s} did not meet the tail bound in {max_terms} terms"
    )


def kernel_s1_closed(z: complex, zprime: complex) -> complex:
    """Closed form of the s = 1 kernel:

        e^{zbar z'} (1 - |z - z'|^2) - z zbar'
    """
    z = complex(z)
    zprime = complex(zprime)
    return (cmath.exp(z.conjugate() * zprime) * (1.0 - abs(z - zprime) ** 2)
            - z * zprime.conjugate())


def reproduce(s: int, z: complex, f, n_max: int, f_degree: float | None = None):
    """Quadrature check of the reproducing property

        integral d^2z'/pi e^{-(|z|^2+|z'|^2)/2} K_s(z, zbar') f(z') = f(z)

    for f a finite combination of the phi_{m;s'}, m <= n_max, given as a
    function of an array of points z'.  The weighted kernel is
    sum_n phi_{n;s}(z) conj(phi_{n;s}(z')), read from the phi table.  The
    angular integral kills every kernel term beyond n_max for such f, so
    the series truncation at n_max is exact, and the polar rule is sized to
    be exact for the remaining polynomial integrand.  f_degree bounds the
    radial degree of e^{|z'|^2/2} f (default: n_max/2 + s).
    """
    if f_degree is None:
        f_degree = n_max / 2 + s
    n_r = int(math.ceil(n_max / 2 + s + f_degree)) + 8
    m_ang = 2 * n_max + 3
    rule = gauss_laguerre_rule(n_r, m_ang)
    zg = grid_points(rule)
    ns = np.arange(n_max + 1)
    kern = np.tensordot(phi_values(s, ns, complex(z)),
                        np.conj(phi_values(s, ns, zg)), axes=1)
    # the rule's weights carry e^{-|z'|^2}: fold it back out, half per factor
    half = np.exp(rule.radial_nodes / 2.0)[:, None]
    return phase_space_integral(rule, (half * kern) * (half * f(zg)))


def displacement_element(m, s: int, z):
    """Matrix element <m|D(z)|s> of the Weyl-Heisenberg displacement operator,
    for the implemented branch m >= s:  D_{ms}(z) = (-1)^s phi^R_{m-s;s}(z).

    m is an int or an int array, read from one phi table; the shape is
    m.shape + z.shape, and a complex when both are scalars."""
    if np.any(np.asarray(m) < s):
        raise IndexError("displacement_element implements the branch m >= s")
    return (-1) ** s * phi_values(s, np.asarray(m) - s, z).conjugate()


def gamma_like_pdf(n, s: int, t):
    """Radial density [s!/(s+n)!] e^{-t} t^n (L_s^(n)(t))^2 on t >= 0;
    reduces to the gamma density e^{-t} t^n / n! at s = 0.

    n is an int or an int array and t a scalar or an ndarray; the density
    is |phi_{n;s}|^2 at |z|^2 = t, read from the log-magnitude table behind
    `phi_values`, with shape n.shape + t.shape, and a float when both are
    scalars.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    logv = 2.0 * _log_phi(s, n, t)[0]
    out = np.where(logv > -745.0, np.exp(logv), 0.0)
    return out if out.ndim else float(out)


def poisson_like_pmf(n, s: int, t: float):
    """Occupancy distribution [s!/(s+n)!] t^n (L_s^(n)(t))^2 / N_s(t);
    reduces to the Poisson distribution at s = 0.  n is an int or an int
    array; N_s(t) is computed once for the whole array."""
    return gamma_like_pdf(n, s, t) / normalization_scaled(s, t)


def cs_coefficients(s: int, z, dim: int, epsilon: str = "L",
                    tol: float = 1e-14) -> np.ndarray:
    """Coefficients of the unit coherent state |z; s, eps> in its number basis:

        c_n = (-1)^s sqrt(s!/(s+n)!) z^n L_s^(n)(|z|^2) / sqrt(N_s(|z|^2))

    (conjugate phases for eps = 'R'), with shape (dim,) + z.shape for a
    scalar or array z.  Raises TailError, naming the point that captures
    the least (the first such in C order), if dim terms capture less than
    1 - tol of the unit norm at any point.
    """
    if epsilon not in ("L", "R"):
        raise ValueError("epsilon must be 'L' or 'R'")
    z = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore"):
        t = np.abs(z) ** 2
    nonfinite = ~np.isfinite(t)
    if np.any(nonfinite):
        raise ValueError(f"z must be finite with |z|^2 a float: "
                         f"z = {z[nonfinite].flat[0]}")
    ns = np.arange(dim)
    # |c_n| = |phi_{n;s}(z)| / sqrt(e^{-t} N_s(t))
    logmag, sign = _log_phi(s, ns, t)
    logmag -= 0.5 * np.log(normalization_scaled(s, t))
    theta = np.angle(z) * (1.0 if epsilon == "L" else -1.0)
    ns = ns.reshape(ns.shape + (1,) * z.ndim)
    out = (-1) ** s * sign * np.exp(logmag) * np.exp(1j * ns * theta)
    captured = np.sum(np.abs(out) ** 2, axis=0)
    if np.any(captured < 1.0 - tol):
        worst = np.unravel_index(np.nanargmin(captured), captured.shape)
        raise TailError(
            f"coherent-state tail: dim={dim} captures "
            f"{captured[worst]:.17g} of the norm at z = {z[worst].item()}")
    return out
