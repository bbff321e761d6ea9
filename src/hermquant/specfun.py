"""Scalar special functions: generalized Laguerre polynomials and the
two-index Hermite polynomials h^{r,s}(z, zbar) in their two standard
representations.

Everything here is a pure function.  Coefficients (binomials, Laguerre
coefficients) have one exact path, in int/Fraction arithmetic, with a float
parameter taken at its exact binary value; the float evaluators convert them
or run a three-term recurrence.  `laguerre_many`, the recurrence over arrays
of alpha and x, serves every float reader but `basis.kernel`, the last
reader of the scalar `laguerre`.  The Hermite double sum and its Laguerre
form also have exact integer paths that round once.  The terminating 3F2
sums of the Laguerre factorizations run on integers in `spectral`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

# Above this degree the alternating finite sum loses digits and the stable
# three-term recurrence takes over.  Measured worst relative error of the sum
# at x <= 60: 7e-13 (s=8), 9e-10 (s=12), 2e-7 (s=16); the recurrence stays at
# a few ulps for every degree tested.
_RECURRENCE_DEGREE = 6


def log_factorial(n: int) -> float:
    return math.lgamma(n + 1)


def binomial_general(x, k: int) -> Fraction:
    """binom(x, k) = x(x-1)...(x-k+1)/k!, exactly; a float x is taken at its
    exact binary value."""
    x = Fraction(x)
    num = Fraction(1)
    for j in range(k):
        num *= x - j
    return num / math.factorial(k)


def laguerre_coeffs(s: int, alpha) -> list:
    """Ascending coefficients of L_s^(alpha): sum_m (-1)^m binom(s+alpha, s-m) x^m / m!.

    Exact Fractions; a float alpha is taken at its exact binary value.
    """
    if s < 0:
        raise ValueError("degree must be nonnegative")
    alpha = Fraction(alpha)
    return [(-1) ** m * binomial_general(alpha + s, s - m) / math.factorial(m)
            for m in range(s + 1)]


def laguerre(s: int, alpha, x):
    """Generalized Laguerre polynomial L_s^(alpha)(x).

    Uses the explicit finite sum for small degree and the stable three-term
    recurrence beyond it.  Accepts scalar or ndarray x.
    """
    if s < 0:
        raise ValueError("degree must be nonnegative")
    arr = isinstance(x, np.ndarray)
    if s <= _RECURRENCE_DEGREE:
        coeffs = [float(c) for c in laguerre_coeffs(s, alpha)]
        acc = np.zeros_like(x, dtype=float) if arr else 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc
    alpha = float(alpha)
    lm1 = np.ones_like(x, dtype=float) if arr else 1.0
    lk = 1.0 + alpha - x
    for k in range(1, s):
        lm1, lk = lk, ((2 * k + 1 + alpha - x) * lk - (k + alpha) * lm1) / (k + 1)
    return lk


def laguerre_many(s: int, alphas, x) -> np.ndarray:
    """Table of L_s^(alpha)(x) over an array of alpha values.

    Runs the degree recurrence vectorized over alpha, so no coefficients are
    built for any alpha; used for coherent-state coefficient vectors, where
    alpha = n can reach 10^4, and for series over n.  x is a scalar or an
    ndarray; an ndarray x gives the table at every point, with shape
    alphas.shape + x.shape.
    """
    alphas = np.asarray(alphas, dtype=float)
    if isinstance(x, np.ndarray):
        alphas = alphas.reshape(alphas.shape + (1,) * x.ndim)
    lm1 = np.ones(np.broadcast_shapes(alphas.shape, np.shape(x)))
    if s == 0:
        return lm1
    lk = 1.0 + alphas - x
    for k in range(1, s):
        lm1, lk = lk, ((2 * k + 1 + alphas - x) * lk - (k + alphas) * lm1) / (k + 1)
    return lk


def complex_hermite_coeffs(r: int, s: int) -> dict:
    """Integer coefficient table of h^{r,s}: {(i, j): c} for c * z^i * zbar^j."""
    if r < 0 or s < 0:
        raise ValueError("indices must be nonnegative")
    out = {}
    for k in range(min(r, s) + 1):
        # r!s!/(k!(r-k)!(s-k)!) = k! * C(r,k) * C(s,k), always an integer
        c = (-1) ** k * math.comb(r, k) * math.comb(s, k) * math.factorial(k)
        out[(s - k, r - k)] = c
    return out


def complex_hermite(r: int, s: int, z: complex) -> complex:
    """h^{r,s}(z, zbar) by its explicit double-factorial sum:

        sum_k (-1)^k/k! * r!s!/((r-k)!(s-k)!) * z^(s-k) * zbar^(r-k)

    Powers are built incrementally, which makes the index-swap symmetry
    h^{r,s} = conj(h^{s,r}) hold bit-exactly in float arithmetic.
    """
    z = complex(z)
    zb = z.conjugate()
    zp = [1.0 + 0j]
    for _ in range(s):
        zp.append(zp[-1] * z)
    zbp = [1.0 + 0j]
    for _ in range(r):
        zbp.append(zbp[-1] * zb)
    total = 0j
    for (i, j), c in complex_hermite_coeffs(r, s).items():
        total += c * (zp[i] * zbp[j])
    return total


def complex_hermite_laguerre(s: int, n: int, z: complex) -> complex:
    """h^{s+n,s}(z, zbar) through its Laguerre form
    (-1)^s s! zbar^n L_s^(n)(|z|^2), with L_s^(n) from the recurrence of
    `laguerre_many`."""
    if s < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    z = complex(z)
    t = abs(z) ** 2
    return ((-1) ** s * math.factorial(s) * z.conjugate() ** n
            * float(laguerre_many(s, n, t)))


def _dyadic_grid(z: complex) -> tuple[int, int, int]:
    """(a, b, e) with z = (a + i b) / 2^e exactly: the float components of z
    are dyadic rationals sharing the integer grid 2^-e."""
    (pr, qr), (pi, qi) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    e = max(qr, qi).bit_length() - 1
    return pr << (e - qr.bit_length() + 1), pi << (e - qi.bit_length() + 1), e


def _exact_powers(re: int, im: int, k_max: int) -> list:
    """(re + i im)^k as exact int pairs, k = 0..k_max."""
    out = [(1, 0)]
    for _ in range(k_max):
        pr, pi = out[-1]
        out.append((pr * re - pi * im, pr * im + pi * re))
    return out


def _round_dyadic(num_r: int, num_i: int, e: int) -> complex:
    """(num_r + i num_i) / 2^e with each component correctly rounded."""
    return complex(num_r / (1 << e), num_i / (1 << e))


def complex_hermite_exact(r: int, s: int, z: complex) -> complex:
    """Correctly rounded h^{r,s}(z, zbar): the double sum accumulated in exact
    integer arithmetic on the grid 2^-e of the float components of z, the
    degree-(r+s-2k) term lifted by 2^(2ke), with one rounding at the end.

    Factorial coefficient growth makes the float path lose digits near zeros
    of the polynomial beyond degree ~ 20; this backend does not.
    """
    zr, zi, e = _dyadic_grid(complex(z))
    zp = _exact_powers(zr, zi, s)
    zbp = _exact_powers(zr, -zi, r)
    acc_r = acc_i = 0
    for (i, j), c in complex_hermite_coeffs(r, s).items():
        ar, ai = zp[i]
        br, bi = zbp[j]
        c <<= (r + s - i - j) * e
        acc_r += c * (ar * br - ai * bi)
        acc_i += c * (ar * bi + ai * br)
    try:
        return _round_dyadic(acc_r, acc_i, (r + s) * e)
    except OverflowError:
        raise OverflowError(
            f"h^{{r,s}}(z) at r = {r}, s = {s}, z = {z} exceeds the float "
            f"limit {sys.float_info.max:.4g}") from None


def complex_hermite_laguerre_exact(s: int, n: int, z: complex) -> complex:
    """Correctly rounded Laguerre form (-1)^s s! zbar^n L_s^(n)(|z|^2) via
    exact integer arithmetic: with z = (a + i b)/2^e and T = a^2 + b^2,

        s! L_s^(n)(|z|^2) 2^(2se) = sum_m (-1)^m C(s+n, s-m) (s!/m!) T^m 2^(2(s-m)e).
    """
    zr, zi, e = _dyadic_grid(complex(z))
    t = zr * zr + zi * zi
    lag = 0
    for m in range(s + 1):
        lag += ((-1) ** m * math.comb(s + n, s - m)
                * (math.factorial(s) // math.factorial(m))
                * t ** m) << (2 * (s - m) * e)
    br, bi = _exact_powers(zr, -zi, n)[n]
    pref = (-1) ** s * lag
    return _round_dyadic(pref * br, pref * bi, (2 * s + n) * e)
