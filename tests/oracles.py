"""Independent reference computations used only by the test suite."""

import math
from fractions import Fraction

import numpy as np

from hermquant.exact import Surd, _root


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
    """Exact bands {offset: [Surd]} of the quantized z^a zbar^b on the
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
        root = Surd.sqrt(Fraction(math.factorial(n + s),
                                  math.factorial(n + s + offset)))
        band.append(root * ((-1) ** s * total))
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


def jacobi_sturm_count(s: int, n: int, a: int, b: int) -> int:
    """Number of eigenvalues of Q's Jacobi matrix in sector s (zero
    diagonal, c_k = sqrt((k+s)/2), order n) strictly below x = a/b, b > 0,
    in integers.

    The leading minors D_k of det(x - J), scaled to P_k = (2b)^k D_k, obey
    P_k = 2a P_{k-1} - 2(k-1+s) b^2 P_{k-2} (P_0 = 1, P_{-1} = 0), so they are
    integers.  The sign changes among the nonzero P_0..P_n count the
    eigenvalues above x (a zero P_k, k < n, sits between minors of opposite
    sign), and P_n = 0 exactly when x is an eigenvalue.
    """
    b2 = 2 * b * b
    prev, cur, sign, changes = 0, 1, 1, 0
    for k in range(1, n + 1):
        prev, cur = cur, 2 * a * cur - (k - 1 + s) * b2 * prev
        if cur:
            changes += (cur > 0) != (sign > 0)
            sign = cur
    return n - changes - (cur == 0)


def christoffel_weights(s: int, n: int, nodes) -> np.ndarray:
    """1 / sum_{k<n} p_k(x)^2 at each node, rounded to floats from 50
    digits, with p_k the orthonormal polynomials of Q's Jacobi matrix in
    sector s: p_k = x p_{k-1} / c_k - (c_{k-1} / c_k) p_{k-2}.  mpmath's
    exponent range holds every sum, so nothing is rescaled."""
    from mpmath import libmp, mp, mpf, sqrt

    with mp.workdps(50):
        prec = mp.prec
        inv_c = [(1 / sqrt(mpf(k + s) / 2))._mpf_ for k in range(1, n)]
        ratio = [sqrt(mpf(k - 1 + s) / (k + s))._mpf_ for k in range(1, n)]

    def mul(x, y):
        return libmp.mpf_mul(x, y, prec, "n")

    out = []
    for node in np.asarray(nodes, dtype=float).tolist():
        x = libmp.from_float(node)
        p_prev, p, total = libmp.fzero, libmp.fone, libmp.fone
        for ic, r in zip(inv_c, ratio):
            p_prev, p = p, libmp.mpf_sub(mul(mul(x, p), ic), mul(r, p_prev),
                                         prec, "n")
            total = libmp.mpf_add(total, mul(p, p), prec, "n")
        out.append(libmp.to_float(libmp.mpf_div(libmp.fone, total, prec, "n")))
    return np.array(out)


# The two-class exact layer that `exact.Surd` replaced, kept as the
# reference for it: a real SqrtSum is a {d: q} dict, and ExactC holds two.
# Squares are split by removing square factors, apart from `exact`; the
# floats round through the same `_root`.


def split_square(d: int) -> tuple:
    """(k, r) with d = k^2 r, r squarefree, by removing square factors."""
    k, p = 1, 2
    while p * p <= d:
        while d % (p * p) == 0:
            d //= p * p
            k *= p
        p += 1
    return k, d


def _rational(q):
    if type(q) is int:
        return q
    if type(q) is not Fraction:
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


class SqrtSum:
    """A finite sum sum_d q_d * sqrt(d), q_d rational, d squarefree positive;
    terms maps d to q_d, no q_d is zero, and an integral q_d is an int."""

    __slots__ = ("terms",)

    def __init__(self, value=0):
        if isinstance(value, SqrtSum):
            self.terms = dict(value.terms)
        else:
            q = _rational(value)
            self.terms = {1: q} if q else {}

    @classmethod
    def _from_terms(cls, terms: dict) -> "SqrtSum":
        obj = cls.__new__(cls)
        obj.terms = {d: _rational(q) for d, q in terms.items() if q}
        return obj

    @classmethod
    def sqrt(cls, x) -> "SqrtSum":
        """sqrt(p/q) = sqrt(p*q)/q."""
        x = _rational(x)
        if x < 0:
            raise ValueError("sqrt of negative rational")
        if x == 0:
            return cls(0)
        if type(x) is int:
            k, rad = split_square(x)
            return cls._from_terms({rad: k})
        k, rad = split_square(x.numerator * x.denominator)
        return cls._from_terms({rad: Fraction(k, x.denominator)})

    def __add__(self, other):
        other = other if isinstance(other, SqrtSum) else SqrtSum(other)
        terms = dict(self.terms)
        for d, q in other.terms.items():
            terms[d] = terms[d] + q if d in terms else q
        return SqrtSum._from_terms(terms)

    __radd__ = __add__

    def __neg__(self):
        return SqrtSum._from_terms({d: -q for d, q in self.terms.items()})

    def __sub__(self, other):
        other = other if isinstance(other, SqrtSum) else SqrtSum(other)
        terms = dict(self.terms)
        for d, q in other.terms.items():
            terms[d] = terms[d] - q if d in terms else -q
        return SqrtSum._from_terms(terms)

    def __rsub__(self, other):
        return SqrtSum(other) - self

    def __mul__(self, other):
        # d1, d2 squarefree: sqrt(d1 d2) = g sqrt((d1/g)(d2/g)), g = gcd
        other = other if isinstance(other, SqrtSum) else SqrtSum(other)
        terms: dict = {}
        for d1, q1 in self.terms.items():
            for d2, q2 in other.terms.items():
                g = math.gcd(d1, d2)
                rad = (d1 // g) * (d2 // g)
                terms[rad] = terms.get(rad, 0) + q1 * q2 * g
        return SqrtSum._from_terms(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = other if isinstance(other, SqrtSum) else SqrtSum(other)
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __float__(self):
        return float(sum(float(q) * _root(d) for d, q in self.terms.items()))


class ExactC:
    """Complex number with SqrtSum real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, SqrtSum) else SqrtSum(re)
        self.im = im if isinstance(im, SqrtSum) else SqrtSum(im)

    @classmethod
    def _coerce(cls, x) -> "ExactC":
        return x if isinstance(x, ExactC) else cls(x)

    def __add__(self, other):
        o = ExactC._coerce(other)
        return ExactC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return ExactC(-self.re, -self.im)

    def __sub__(self, other):
        o = ExactC._coerce(other)
        return ExactC(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return ExactC._coerce(other) - self

    def __mul__(self, other):
        o = ExactC._coerce(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        return ExactC(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def conjugate(self) -> "ExactC":
        return ExactC(self.re, -self.im)

    def __eq__(self, other):
        o = ExactC._coerce(other)
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return bool(self.re.terms or self.im.terms)

    def __complex__(self):
        return complex(float(self.re), float(self.im))
