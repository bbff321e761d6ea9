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
