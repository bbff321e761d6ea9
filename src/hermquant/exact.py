"""Exact arithmetic over the rationals extended by square roots of integers.

Every ladder coefficient and closed-form matrix entry in this package has the
shape q*sqrt(d) with q rational and d a small positive integer.  Finite sums
of such terms form a ring, so operator identities can be checked with residual
exactly zero instead of "below tolerance".
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import numpy as np

_TRIAL_LIMIT = 100_000  # radicands here are smooth; see _split_square


def _split_square(d: int) -> tuple[int, int]:
    """Return (k, r) with d = k**2 * r and r squarefree.

    Works by trial division; inputs in this package are products of small
    integers and factorials, so all prime factors are tiny.  A cap plus a
    perfect-square check keeps pathological inputs from spinning.
    """
    if d <= 0:
        raise ValueError("radicand must be positive")
    k = 1
    rad = 1
    p = 2
    while p * p <= d and p <= _TRIAL_LIMIT:
        if d % p == 0:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            k *= p ** (e // 2)
            if e % 2:
                rad *= p
        p += 1 if p == 2 else 2
    if d > 1:
        s = isqrt(d)
        if s * s == d:
            k *= s
        else:
            rad *= d
    return k, rad


class SqrtSum:
    """A finite sum sum_d q_d * sqrt(d), q_d rational, d squarefree positive."""

    __slots__ = ("terms",)

    def __init__(self, value=0):
        if isinstance(value, SqrtSum):
            self.terms = dict(value.terms)
        else:
            q = Fraction(value)
            self.terms = {1: q} if q else {}

    @classmethod
    def _from_terms(cls, terms: dict) -> "SqrtSum":
        obj = cls.__new__(cls)
        obj.terms = {d: q for d, q in terms.items() if q}
        return obj

    @classmethod
    def sqrt(cls, x) -> "SqrtSum":
        """Exact sqrt of a nonnegative rational: sqrt(p/q) = sqrt(p*q)/q."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("sqrt of negative rational")
        if x == 0:
            return cls(0)
        k, rad = _split_square(x.numerator * x.denominator)
        return cls._from_terms({rad: Fraction(k, x.denominator)})

    def __add__(self, other):
        other = other if isinstance(other, SqrtSum) else SqrtSum(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for d, q in other.terms.items():
            terms[d] = terms.get(d, Fraction(0)) + q
        return SqrtSum._from_terms(terms)

    __radd__ = __add__

    def __neg__(self):
        return SqrtSum._from_terms({d: -q for d, q in self.terms.items()})

    def __sub__(self, other):
        return self + (-(other if isinstance(other, SqrtSum) else SqrtSum(other)))

    def __rsub__(self, other):
        return SqrtSum(other) + (-self)

    def __mul__(self, other):
        other = other if isinstance(other, SqrtSum) else SqrtSum(other)
        if not self.terms or not other.terms:
            return _ZERO
        terms: dict = {}
        for d1, q1 in self.terms.items():
            for d2, q2 in other.terms.items():
                if d1 == d2:
                    k, rad = d1, 1
                else:
                    k, rad = _split_square(d1 * d2)
                terms[rad] = terms.get(rad, Fraction(0)) + q1 * q2 * k
        return SqrtSum._from_terms(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = other if isinstance(other, SqrtSum) else SqrtSum(other)
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __float__(self):
        return float(sum(float(q) * d ** 0.5 for d, q in self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for d in sorted(self.terms):
            q = self.terms[d]
            parts.append(str(q) if d == 1 else f"{q}*sqrt({d})")
        return " + ".join(parts)


_ZERO = SqrtSum(0)


class ExactC:
    """Complex number with SqrtSum real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # a zero part copies _ZERO's empty terms, cheaper than Fraction(0)
        self.re = re if isinstance(re, SqrtSum) else SqrtSum(re or _ZERO)
        self.im = im if isinstance(im, SqrtSum) else SqrtSum(im or _ZERO)

    @classmethod
    def _coerce(cls, x) -> "ExactC":
        if isinstance(x, ExactC):
            return x
        if isinstance(x, SqrtSum):
            return cls(x)
        return cls(SqrtSum(x))

    def __add__(self, other):
        o = ExactC._coerce(other)
        return ExactC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return ExactC(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-ExactC._coerce(other))

    def __rsub__(self, other):
        return ExactC._coerce(other) + (-self)

    def __mul__(self, other):
        o = ExactC._coerce(other)
        if not self.im.terms and not o.im.terms:
            return ExactC(self.re * o.re)
        if not self.re.terms and not o.re.terms:
            return ExactC(-(self.im * o.im))
        return ExactC(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conjugate(self) -> "ExactC":
        return ExactC(self.re, -self.im)

    def __eq__(self, other):
        o = ExactC._coerce(other)
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"({self.re!r}) + ({self.im!r})i"


def sqrt_half(k: int) -> SqrtSum:
    """sqrt(k/2) as an exact value; the ubiquitous Jacobi entry."""
    return SqrtSum.sqrt(Fraction(k, 2))


# A band matrix is a dict {offset k: diagonal j - i = k}; the diagonal of an
# n x n matrix at offset k has n - |k| entries in numpy's np.diagonal order,
# entry t sitting at row t + max(0, -k), column t + max(0, k).  Offsets absent
# from the dict are zero.  The exact band functions below take lists of ExactC.


def exact_matmul(a: dict, b: dict) -> dict:
    """Band-by-band product: offset ka of a times offset kb of b feeds offset
    ka + kb, one entry per row that all three diagonals cover."""
    out: dict = {}
    for ka, da in a.items():
        n = len(da) + abs(ka)
        for kb, db in b.items():
            k = ka + kb
            if abs(k) >= n:
                continue
            acc = out.setdefault(k, [ExactC()] * (n - abs(k)))
            ra, rb, rc = max(0, -ka), max(0, -kb), max(0, -k)
            for i in range(max(ra, rc), min(n, n - ka, n - k)):
                x, y = da[i - ra], db[i + ka - rb]
                if x and y:
                    acc[i - rc] = acc[i - rc] + x * y
    return out


def exact_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, d in b.items():
        out[k] = [x - y for x, y in zip(out.get(k, [ExactC()] * len(d)), d)]
    return out


def exact_adjoint(a: dict) -> dict:
    """Conjugate transpose: offset k moves to -k, entry order unchanged."""
    return {-k: [x.conjugate() for x in d] for k, d in a.items()}


def exact_max_abs(a: dict) -> float:
    """Max entry magnitude as a float; exactly 0.0 iff the matrix is zero."""
    return max((abs(complex(x)) for d in a.values() for x in d if x),
               default=0.0)


def to_complex_array(bands: dict, dim: int, zero: complex = 0j):
    """Dense dim x dim array from float bands, zero off the bands."""
    out = np.full((dim, dim), zero, dtype=complex)
    for k, d in bands.items():
        t = np.arange(len(d))
        out[t + max(0, -k), t + max(0, k)] = d
    return out
