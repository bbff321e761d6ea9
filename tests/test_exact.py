"""The exact layer against an all-Fraction reference.

The reference below keeps every coefficient a Fraction and follows the same
operation order as SqrtSum and ExactC, so the values must agree exactly and
the float and complex conversions bit for bit.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hermquant.exact import ExactC, SqrtSum, _root
from hermquant.ladder import ground, norm_squared


def _ref_split(d: int) -> tuple[int, int]:
    """(k, r) with d = k^2 r, r squarefree, by removing square factors."""
    k, p = 1, 2
    while p * p <= d:
        while d % (p * p) == 0:
            d //= p * p
            k *= p
        p += 1
    return k, d


class RefSum:
    """sum_d q_d sqrt(d) with every q_d a Fraction."""

    def __init__(self, terms):
        self.terms = {d: Fraction(q) for d, q in terms.items() if q}

    @classmethod
    def sqrt(cls, x: Fraction) -> "RefSum":
        k, rad = _ref_split(x.numerator * x.denominator)
        return cls({rad: Fraction(k, x.denominator)})

    def __add__(self, other):
        terms = dict(self.terms)
        for d, q in other.terms.items():
            terms[d] = terms.get(d, Fraction(0)) + q
        return RefSum(terms)

    def __neg__(self):
        return RefSum({d: -q for d, q in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms: dict = {}
        for d1, q1 in self.terms.items():
            for d2, q2 in other.terms.items():
                k, rad = _ref_split(d1 * d2)
                terms[rad] = terms.get(rad, Fraction(0)) + q1 * q2 * k
        return RefSum(terms)

    def __float__(self):
        return float(sum(float(q) * d ** 0.5 for d, q in self.terms.items()))


class RefC:
    """ExactC's formulas on RefSum parts."""

    def __init__(self, re, im):
        self.re, self.im = re, im

    def __add__(self, o):
        return RefC(self.re + o.re, self.im + o.im)

    def __neg__(self):
        return RefC(-self.re, -self.im)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        if not self.im.terms and not o.im.terms:
            return RefC(self.re * o.re, RefSum({}))
        if not self.re.terms and not o.re.terms:
            return RefC(-(self.im * o.im), RefSum({}))
        return RefC(self.re * o.re - self.im * o.im,
                    self.re * o.im + self.im * o.re)

    def __complex__(self):
        return complex(float(self.re), float(self.im))


rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
radicands = st.builds(Fraction, st.integers(1, 200), st.integers(1, 3))
# a value is a short list of q * sqrt(r), built by the same sums on both sides
recipes = st.lists(st.tuples(rationals, radicands), max_size=3)


def build(recipe):
    new, ref = SqrtSum(0), RefSum({})
    for q, r in recipe:
        new = new + SqrtSum(q) * SqrtSum.sqrt(r)
        ref = ref + RefSum({1: q}) * RefSum.sqrt(r)
    return new, ref


def assert_matches(new: SqrtSum, ref: RefSum):
    assert new.terms == ref.terms
    assert list(new.terms) == list(ref.terms)  # float() sums in this order
    assert float(new).hex() == float(ref).hex()
    assert bool(new) == bool(ref.terms)
    for d, q in new.terms.items():
        assert q != 0
        assert type(q) is int or (type(q) is Fraction and q.denominator != 1)
        assert d >= 1 and _ref_split(d) == (1, d)


@settings(max_examples=300, deadline=None)
@given(recipes, recipes)
def test_sqrtsum_matches_fraction_reference(rx, ry):
    (x, xr), (y, yr) = build(rx), build(ry)
    assert_matches(x, xr)
    assert_matches(y, yr)
    assert_matches(x + y, xr + yr)
    assert_matches(x - y, xr - yr)
    assert_matches(x * y, xr * yr)
    assert_matches(-x, -xr)
    assert_matches(x - x, RefSum({}))
    assert (x == y) == (xr.terms == yr.terms)


@settings(max_examples=100, deadline=None)
@given(rationals, rationals, radicands)
def test_sqrtsum_mixes_with_plain_rationals(a, b, r):
    x, xr = SqrtSum(a) * SqrtSum.sqrt(r), RefSum({1: a}) * RefSum.sqrt(r)
    assert_matches(x * b, xr * RefSum({1: b}))
    assert_matches(b * x, RefSum({1: b}) * xr)
    assert_matches(x + b, xr + RefSum({1: b}))
    assert_matches(b - x, RefSum({1: b}) - xr)
    assert (SqrtSum(a) == b) == (a == b)


def test_sqrtsum_sqrt_of_zero_is_zero():
    for zero in (0, Fraction(0)):
        root = SqrtSum.sqrt(zero)
        assert root.terms == {} and not root and root == SqrtSum(0)
        assert float(root) == 0.0


@settings(max_examples=200, deadline=None)
@given(recipes, recipes, recipes, recipes)
def test_exactc_matches_fraction_reference(r1, i1, r2, i2):
    (a, ar), (b, br) = build(r1), build(i1)
    (c, cr), (d, dr) = build(r2), build(i2)
    x, xr = ExactC(a, b), RefC(ar, br)
    y, yr = ExactC(c, d), RefC(cr, dr)
    for new, ref in ((x + y, xr + yr), (x - y, xr - yr), (x * y, xr * yr),
                     (-x, -xr), (x.conjugate(), RefC(ar, -br))):
        assert_matches(new.re, ref.re)
        assert_matches(new.im, ref.im)
        assert complex(new) == complex(ref)
        assert repr(complex(new)) == repr(complex(ref))
    assert (x == y) == (xr.re.terms == yr.re.terms
                        and xr.im.terms == yr.im.terms)
    assert bool(x) == bool(ar.terms or br.terms)


def test_integral_values_are_stored_as_int():
    assert SqrtSum(Fraction(6, 3)).terms == {1: 2}
    assert type(SqrtSum(Fraction(6, 3)).terms[1]) is int
    half = SqrtSum.sqrt(Fraction(1, 2))
    assert type((half * half * 2).terms[1]) is int
    assert type((SqrtSum(Fraction(1, 2)) + Fraction(1, 2)).terms[1]) is int
    assert SqrtSum(Fraction(1, 2)) - Fraction(1, 2) == 0
    assert (SqrtSum(Fraction(1, 2)) - Fraction(1, 2)).terms == {}


def test_norm_squared_is_a_fraction():
    for vec in ({}, {ground(0): SqrtSum(3)},
                {ground(2): SqrtSum.sqrt(Fraction(1, 6))},
                {ground(1): SqrtSum.sqrt(2), ground(3): SqrtSum.sqrt(7)}):
        assert type(norm_squared(vec)) is Fraction
    assert norm_squared({ground(1): SqrtSum.sqrt(2),
                         ground(3): SqrtSum.sqrt(7)}) == 9


def test_float_of_a_radicand_beyond_the_float_range():
    # 10**320 + 7 does not fit a float; its root does
    assert float(SqrtSum.sqrt(10**320 + 7)) == 1e160
    assert float(SqrtSum.sqrt(4**600)) == 2.0**600


@given(st.integers(2**1024, 2**2040))
def test_root_beyond_the_floats_is_correctly_rounded(d):
    # the midpoints between x and its neighbours bracket sqrt(d), in integers
    x = _root(d)
    lo, hi = (int(math.nextafter(x, t)) for t in (0.0, math.inf))
    assert (lo + int(x)) ** 2 <= 4 * d <= (int(x) + hi) ** 2
