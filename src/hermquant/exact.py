"""Exact arithmetic over the Gaussian rationals extended by square roots of
integers.

Every ladder coefficient and closed-form matrix entry in this package has the
shape (a + ib) sqrt(d) with a, b rational and d a small positive integer.
Finite sums of such terms form a ring, so operator identities can be checked
with residual exactly zero instead of "below tolerance".  One class, `Surd`,
holds such a sum as {squarefree d: (a, b)}.

A coefficient is stored as an int whenever it is integral and as a Fraction
only where a denominator remains: int arithmetic is about a hundred times
cheaper than Fraction arithmetic.  Ladder weights are integral multiples of
a square root, and the Jacobi operators of `matrices`, whose weights
sqrt((k+s)/2) each carry a 1/2, are held at twice their value, so their
identity checks build no Fraction.  Fractions remain where a value has a
denominator of its own: the SI commutator of `physics` (rationals of two
floats), the factorial roots of `quantize` and the 1/k! of the nlpb checks
in `ladder`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

_TRIAL_LIMIT = 100_000  # radicands here are smooth; see _split_square


@lru_cache(maxsize=1 << 14)
def _split_square(d: int) -> tuple[int, int]:
    """Return (k, r) with d = k**2 * r and r squarefree.

    Works by trial division; inputs in this package are products of small
    integers and factorials, so all prime factors are tiny.  A cap plus a
    perfect-square check keeps pathological inputs from spinning.  Every
    ladder and Jacobi weight is the root of a small integer (`matrices`
    takes each weight from factors below N + s + 2), so the same radicands
    recur thousands of times and results are memoised.  The cache holds
    the radicands of one identity check at N = 10^4, about 10^4, and takes
    about 3 MB when full.
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


def _new(terms: dict) -> "Surd":
    obj = object.__new__(Surd)
    obj.terms = terms
    return obj


def _put(out: dict, d: int, re, im) -> None:
    """Store the coefficient re + i im of sqrt(d) in out canonically: as
    ints when integral, and no entry when both parts vanish."""
    if type(re) is not int or type(im) is not int:
        re, im = _rational(re), _rational(im)
    if re or im:
        out[d] = (re, im)
    else:
        out.pop(d, None)


def _term_product(d1: int, x1, y1, d2: int, x2, y2):
    """(x1 + i y1) sqrt(d1) (x2 + i y2) sqrt(d2) as (d, re, im) with
    (re + i im) sqrt(d) its value: for squarefree d1 and d2,
    sqrt(d1 d2) = g sqrt((d1/g)(d2/g)) with g = gcd(d1, d2).  A product
    with a zero factor is skipped, as most values are real or imaginary."""
    g = gcd(d1, d2)
    d = (d1 // g) * (d2 // g)
    if not (y1 or y2):
        re, im = x1 * x2, 0
    elif not (x1 or x2):
        re, im = -(y1 * y2), 0
    elif not (y1 or x2):
        re, im = 0, x1 * y2
    elif not (x1 or y2):
        re, im = 0, y1 * x2
    else:
        re, im = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2
    if g != 1:
        re, im = re * g, im * g
    return d, re, im


class Surd:
    """A finite sum sum_d (a_d + i b_d) sqrt(d): a_d, b_d rational, d
    squarefree positive.

    terms maps d to the pair (a_d, b_d); the two are never both zero, and
    an integral one is an int.  Values are never mutated, so results may
    share a term dict or an operand.
    """

    __slots__ = ("terms",)

    def __init__(self, re=0, im=0):
        re, im = _rational(re), _rational(im)
        self.terms = {1: (re, im)} if re or im else {}

    @classmethod
    def sqrt(cls, x) -> "Surd":
        """Exact sqrt of a nonnegative rational: sqrt(p/q) = sqrt(p*q)/q."""
        x = _rational(x)
        if x < 0:
            raise ValueError("sqrt of negative rational")
        if type(x) is int:
            if not x:
                return _ZERO
            k, rad = _split_square(x)
            return _new({rad: (k, 0)})
        k, rad = _split_square(x.numerator * x.denominator)
        return _new({rad: (Fraction(k, x.denominator), 0)})

    def __add__(self, other, sign: int = 1) -> "Surd":
        """self + other, or self - other for sign -1."""
        other = other if type(other) is Surd else Surd(other)
        a, b = self.terms, other.terms
        if not b:
            return self
        if not a:
            return other if sign > 0 else -other
        if sign < 0 and a == b:  # the residual of an identity that holds
            return _ZERO
        out = dict(a)
        for d, (x, y) in b.items():
            if sign < 0:
                x, y = -x, -y
            if d in out:
                u, v = out[d]
                _put(out, d, u + x, v + y)
            else:
                out[d] = (x, y)
        return _new(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return Surd(other) - self

    def __neg__(self):
        return _new({d: (-x, -y) for d, (x, y) in self.terms.items()})

    def conjugate(self) -> "Surd":
        return _new({d: (x, -y) for d, (x, y) in self.terms.items()})

    def __mul__(self, other):
        out: dict = {}
        if type(other) is int:
            for d, (x, y) in self.terms.items():
                _put(out, d, x * other, y * other)
            return _new(out)
        other = other if type(other) is Surd else Surd(other)
        a, b = self.terms, other.terms
        if len(a) == 1 == len(b):
            # the common case; a product of two nonzero terms is nonzero
            (d1, (x1, y1)), = a.items()
            (d2, (x2, y2)), = b.items()
            d, re, im = _term_product(d1, x1, y1, d2, x2, y2)
            if type(re) is not int or type(im) is not int:
                re, im = _rational(re), _rational(im)
            return _new({d: (re, im)})
        acc: dict = {}
        for d1, (x1, y1) in a.items():
            for d2, (x2, y2) in b.items():
                d, re, im = _term_product(d1, x1, y1, d2, x2, y2)
                if d in acc:
                    u, v = acc[d]
                    re, im = u + re, v + im
                acc[d] = (re, im)
        for d, (re, im) in acc.items():
            _put(out, d, re, im)
        return _new(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = other if type(other) is Surd else Surd(other)
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __complex__(self):
        """Each part rounds as the float sum of float(q) * sqrt(d) over its
        terms, taken in ascending d."""
        t = self.terms
        if len(t) == 1:
            (d, (x, y)), = t.items()
            r = _root(d)
            return complex(0.0 + float(x) * r, 0.0 + float(y) * r)
        t = sorted(t.items())
        return complex(float(sum(float(x) * _root(d) for d, (x, _) in t if x)),
                       float(sum(float(y) * _root(d) for d, (_, y) in t if y)))

    def __repr__(self):
        return " + ".join(f"({x} + {y}i)*sqrt({d})"
                          for d, (x, y) in sorted(self.terms.items())) or "0"


_ZERO = Surd()


# A band matrix is a dict {offset k: diagonal j - i = k}; the diagonal of an
# n x n matrix at offset k has n - |k| entries in numpy's np.diagonal order,
# entry t sitting at row t + max(0, -k), column t + max(0, k).  Offsets absent
# from the dict are zero.  The exact band functions below take lists of Surd.


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
            acc = out.setdefault(k, [_ZERO] * (n - abs(k)))
            ra, rb, rc = max(0, -ka), max(0, -kb), max(0, -k)
            for i in range(max(ra, rc), min(n, n - ka, n - k)):
                x, y = da[i - ra], db[i + ka - rb]
                if x and y:
                    acc[i - rc] = acc[i - rc] + x * y
    return out


def exact_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, d in b.items():
        out[k] = [x - y for x, y in zip(out.get(k, [_ZERO] * len(d)), d)]
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
