"""Independent reference computations used only by the test suite."""

import math
from fractions import Fraction

import numpy as np

from hermquant.exact import ExactC, SqrtSum


def charpoly_faddeev(n: int, s: int) -> list:
    """Characteristic polynomial (ascending, exact Fractions) of the position
    section via Faddeev-LeVerrier on the diagonally rescaled tridiagonal.

    The symmetric section with off-diagonals c_k = sqrt((k+s)/2) is similar
    to the matrix with subdiagonal 1 and superdiagonal c_k^2, whose entries
    are rational, so a global trace-based determinant algorithm can run in
    exact arithmetic.  Completely independent of the three-term recursion.
    """
    T = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n):
        T[k][k - 1] = Fraction(1)
        T[k - 1][k] = Fraction(k + s, 2)

    def matmul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)]

    def trace(a):
        return sum(a[i][i] for i in range(n))

    coeffs = [Fraction(1)]  # leading first; c_{n-k} appended per step
    M = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    TM = matmul(T, M)
    for k in range(1, n + 1):
        ck = -trace(TM) / k
        coeffs.append(ck)
        if k < n:
            for i in range(n):
                TM[i][i] += ck
            TM = matmul(T, TM)
    return list(reversed(coeffs))


def quad2d_gauss(f, radial_nodes, radial_weights, m_angular: int) -> complex:
    """Plain 2D polar integral of exp(-|z|^2) f(z) d^2z/pi on a product grid;
    written independently of the package quadrature helpers."""
    thetas = 2.0 * np.pi * np.arange(m_angular) / m_angular
    total = 0.0 + 0.0j
    for u, w in zip(radial_nodes, radial_weights):
        r = np.sqrt(u)
        vals = [f(r * np.exp(1j * th)) for th in thetas]
        total += w * (sum(vals) / m_angular)
    return total


def monomial_band(a: int, b: int, s: int, epsilon: str, N: int) -> dict:
    """Exact bands {offset: [ExactC]} of the quantized z^a zbar^b on the
    N-section of sector (epsilon, s), from the finite sum

      (-1)^s sqrt((n+s)!/(n'+s)!) sum_{m=max(0, s-a_-)}^{s} (-1)^m
          (n+a_+ +m)! (a_- +m)! / (m! (s-m)! (m+n)! (a_- -s+m)!)

    with a_+ = a and a_- = b for 'L', swapped for 'R'; the band n' - n is
    a - b for 'L' and b - a for 'R'.  Written apart from the two-Laguerre
    integral that the package reads."""
    sgn = 1 if epsilon == "L" else -1
    a_p, a_m = (a, b) if sgn == 1 else (b, a)
    offset = sgn * (a - b)
    if abs(offset) >= N:
        return {}
    band = []
    for n in range(max(0, -offset), N - max(0, offset)):
        total = sum((-1) ** m * math.factorial(n + a_p + m)
                    * math.factorial(a_m + m)
                    // (math.factorial(m) * math.factorial(s - m)
                        * math.factorial(m + n)
                        * math.factorial(a_m - s + m))
                    for m in range(max(0, s - a_m), s + 1))
        root = SqrtSum.sqrt(Fraction(math.factorial(n + s),
                                     math.factorial(n + s + offset)))
        band.append(ExactC(root * ((-1) ** s * total)))
    return {offset: band}


class PoleError(ArithmeticError):
    """A denominator Pochhammer symbol vanishes inside a terminating
    hypergeometric sum, so the requested closed form is undefined."""


def pochhammer_exact(a, k: int):
    """Rising factorial with int/Fraction arithmetic."""
    out = Fraction(1)
    a = Fraction(a)
    for i in range(k):
        out *= a + i
    return out if out.denominator != 1 else out.numerator


def hyp3f2_terminating(a1, a2, a3, b1, b2) -> Fraction:
    """Terminating 3F2(a1, a2, a3; b1, b2; 1) with a1 a nonpositive integer,
    summed exactly.

    Sums k+1 terms for a1 = -k in Fraction arithmetic; a float parameter is
    taken at its exact binary value.  Raises PoleError when (b1)_j or (b2)_j
    vanishes inside the summation range.
    """
    a1, a2, a3, b1, b2 = (Fraction(v) for v in (a1, a2, a3, b1, b2))
    if a1.denominator != 1 or a1 > 0:
        raise ValueError("a1 must be a nonpositive integer")
    term = total = Fraction(1)
    for j in range(-a1.numerator):
        d1 = b1 + j
        d2 = b2 + j
        if d1 == 0 or d2 == 0:
            raise PoleError(
                f"denominator Pochhammer vanishes at term {j + 1} "
                f"(b1={b1}, b2={b2})"
            )
        term = term * (a1 + j) * (a2 + j) * (a3 + j) / (d1 * d2 * (j + 1))
        total += term
    return total


def assoc_laguerre_coeffs(n: int, alpha, c, shifted: bool) -> list:
    """Fraction coefficients (in x, ascending) of the associated Laguerre
    polynomial of the terminating 3F2 representation

      ((alpha+1)_n/n!) sum_m (-n)_m x^m/((c+1)_m (alpha+1)_m)
                              * 3F2(m-n, m-alpha[+1], c; -alpha-n, c+m+1; 1)

    where shifted selects the numerator m+1-alpha: the reference for the
    integer sums of `spectral.assoc_laguerre_coeffs`."""
    alpha, c = Fraction(alpha), Fraction(c)
    pref = Fraction(pochhammer_exact(alpha + 1, n)) / math.factorial(n)
    return [pref * pochhammer_exact(-n, m)
            * hyp3f2_terminating(m - n, m - alpha + shifted, c, -alpha - n,
                                 c + m + 1)
            / (pochhammer_exact(c + 1, m) * pochhammer_exact(alpha + 1, m))
            for m in range(n + 1)]
