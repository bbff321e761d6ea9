"""Exact arithmetic over the rationals extended by square roots of integers.

Every ladder coefficient and closed-form matrix entry in this package has the
shape q*sqrt(d) with q rational and d a small positive integer.  Finite sums
of such terms form a ring, so operator identities can be checked with residual
exactly zero instead of "below tolerance".

A coefficient q is stored as an int whenever it is integral and as a
Fraction only where a denominator remains: int arithmetic is about a hundred
times cheaper than Fraction arithmetic.  Ladder weights are integral
multiples of a square root, and the Jacobi operators of `matrices`, whose
weights sqrt((k+s)/2) each carry a 1/2, are held at twice their value, so
their identity checks build no Fraction.  Fractions remain where a value has
a denominator of its own: the SI commutator of `physics` (rationals of two
floats), the factorial roots of `quantize` and the 1/k! of the nlpb checks
in `ladder`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

_TRIAL_LIMIT = 100_000  # radicands here are smooth; see _split_square


@lru_cache(maxsize=2048)
def _split_square(d: int) -> tuple[int, int]:
    """Return (k, r) with d = k**2 * r and r squarefree.

    Works by trial division; inputs in this package are products of small
    integers and factorials, so all prime factors are tiny.  A cap plus a
    perfect-square check keeps pathological inputs from spinning.  Every
    ladder and Jacobi weight is the root of a small integer, so the same
    radicands recur thousands of times and results are memoised.
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


def _root(d: int) -> float:
    """sqrt(d) as a float.  A radicand beyond the float range takes its root
    in integers: with m = isqrt(d), sqrt(d) is m or lies strictly between m
    and m + 1.  m has over 500 bits, so no float and no rounding tie lies
    strictly between m and m + 1, and m + 1/2 rounds once, as sqrt(d)
    does."""
    try:
        return d ** 0.5
    except OverflowError:
        m = isqrt(d)
        return float(m) if m * m == d else (2 * m + 1) / 2


def _rational(q):
    """An exact rational as an int when it is integral, else as a Fraction."""
    if type(q) is int:
        return q
    if type(q) is not Fraction:
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


class SqrtSum:
    """A finite sum sum_d q_d * sqrt(d), q_d rational, d squarefree positive.

    terms maps d to q_d; no q_d is zero, and an integral q_d is an int.
    Values are never mutated, so results may share a term dict or an
    operand.
    """

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
        """Exact sqrt of a nonnegative rational: sqrt(p/q) = sqrt(p*q)/q."""
        x = _rational(x)
        if x < 0:
            raise ValueError("sqrt of negative rational")
        if x == 0:
            return cls(0)
        if type(x) is int:
            k, rad = _split_square(x)
            return cls._from_terms({rad: k})
        k, rad = _split_square(x.numerator * x.denominator)
        return cls._from_terms({rad: Fraction(k, x.denominator)})

    def __add__(self, other):
        other = other if isinstance(other, SqrtSum) else SqrtSum(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        if len(self.terms) == 1 and len(other.terms) == 1:
            (d1, q1), = self.terms.items()
            (d2, q2), = other.terms.items()
            if d1 == d2:
                return SqrtSum._from_terms({d1: q1 + q2})
            obj = SqrtSum.__new__(SqrtSum)
            obj.terms = {d1: q1, d2: q2}
            return obj
        terms = dict(self.terms)
        for d, q in other.terms.items():
            terms[d] = terms[d] + q if d in terms else q
        return SqrtSum._from_terms(terms)

    __radd__ = __add__

    def __neg__(self):
        obj = SqrtSum.__new__(SqrtSum)
        obj.terms = {d: -q for d, q in self.terms.items()}
        return obj

    def __sub__(self, other):
        other = other if isinstance(other, SqrtSum) else SqrtSum(other)
        if not other.terms:
            return self
        if not self.terms:
            return -other
        terms = dict(self.terms)
        for d, q in other.terms.items():
            terms[d] = terms[d] - q if d in terms else -q
        return SqrtSum._from_terms(terms)

    def __rsub__(self, other):
        return SqrtSum(other) - self

    def __mul__(self, other):
        other = other if isinstance(other, SqrtSum) else SqrtSum(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return _ZERO
        # d1, d2 squarefree: sqrt(d1 d2) = g sqrt((d1/g)(d2/g)), g = gcd
        if len(a) == 1 and len(b) == 1:
            (d1, q1), = a.items()
            (d2, q2), = b.items()
            g = gcd(d1, d2)
            return SqrtSum._from_terms({(d1 // g) * (d2 // g): q1 * q2 * g})
        terms: dict = {}
        for d1, q1 in a.items():
            for d2, q2 in b.items():
                g = gcd(d1, d2)
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
        self.re = re if isinstance(re, SqrtSum) else SqrtSum(re)
        self.im = im if isinstance(im, SqrtSum) else SqrtSum(im)

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
        o = ExactC._coerce(other)
        return ExactC(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return ExactC._coerce(other) - self

    def __mul__(self, other):
        o = ExactC._coerce(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        # a real factor skips the two products that vanish
        if not b.terms:
            return ExactC(a * c, a * d) if d.terms else ExactC(a * c)
        if not d.terms:
            return ExactC(a * c, b * c)
        if not a.terms and not c.terms:
            return ExactC(-(b * d))
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

    def __repr__(self):
        return f"({self.re!r}) + ({self.im!r})i"


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
    """Dense dim x dim array from float bands, zero off the bands; band k
    holds dim - |k| entries, as `TruncatedOperator` checks.  It fills the
    strided slice of the flat array that starts at its first entry and steps
    dim + 1."""
    out = np.full((dim, dim), zero, dtype=complex)
    flat = out.reshape(-1)
    for k, d in bands.items():
        start = k if k >= 0 else -k * dim
        flat[start:start + len(d) * (dim + 1):dim + 1] = d
    return out
