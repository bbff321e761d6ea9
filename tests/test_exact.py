"""The exact layer against references.

`Surd` is checked against the two-class layer it replaced (`SqrtSum` and
`ExactC` in tests/oracles.py): the values must agree exactly and the complex
conversions bit for bit.  A part of three or more terms is the one case
where the float sum depends on the order of its terms: `Surd` takes them in
ascending d, the reference in the order the operations made them, so there
the reference is summed in ascending d too.  That reference is in turn
checked against an all-Fraction one below, which keeps every coefficient a
Fraction and follows its operation order.
"""

import ast
import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermquant import exact, matrices
from hermquant.exact import Surd, _root
from hermquant.ladder import ground, norm_squared
from conftest import mutants
from oracles import ExactC, SqrtSum, split_square


class RefSum:
    """sum_d q_d sqrt(d) with every q_d a Fraction."""

    def __init__(self, terms):
        self.terms = {d: Fraction(q) for d, q in terms.items() if q}

    @classmethod
    def sqrt(cls, x: Fraction) -> "RefSum":
        k, rad = split_square(x.numerator * x.denominator)
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
                k, rad = split_square(d1 * d2)
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
        assert d >= 1 and split_square(d) == (1, d)


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
        for root in (SqrtSum.sqrt(zero), Surd.sqrt(zero)):
            assert root.terms == {} and not root and root == 0
        assert float(SqrtSum.sqrt(zero)) == 0.0
        assert complex(Surd.sqrt(zero)) == 0j


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


# Surd against the two-class reference.  A coefficient is an int or a
# Fraction, a radicand an int or a Fraction; a value is a short sum of
# (re + i im) sqrt(r), built by the same operations on both sides.
coefficients = st.one_of(st.integers(-60, 60), rationals)
roots = st.one_of(st.integers(0, 200), radicands)
values = st.lists(st.tuples(coefficients, coefficients, roots), max_size=4)


def build_surd(recipe):
    new, ref = Surd(), ExactC()
    for re, im, r in recipe:
        new = new + Surd(re, im) * Surd.sqrt(r)
        ref = ref + ExactC(re, im) * ExactC(SqrtSum.sqrt(r))
    return new, ref


def _bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


def _ascending(part: SqrtSum) -> SqrtSum:
    return SqrtSum._from_terms(dict(sorted(part.terms.items())))


def assert_same(new: Surd, ref: ExactC):
    """Equal parts, canonical terms, and the same complex bit for bit."""
    assert {d: x for d, (x, _) in new.terms.items() if x} == ref.re.terms
    assert {d: y for d, (_, y) in new.terms.items() if y} == ref.im.terms
    for d, pair in new.terms.items():
        assert any(pair) and d >= 1 and split_square(d) == (1, d)
        assert all(type(q) is int
                   or (type(q) is Fraction and q.denominator != 1)
                   for q in pair)
    assert bool(new) == bool(ref)
    # a part rounds as the reference's float sum over its terms in
    # ascending d; a sum of at most two terms rounds alike in any order,
    # and every value the package rounds has one term per part
    assert _bits(complex(new)) == _bits(complex(
        ExactC(_ascending(ref.re), _ascending(ref.im))))
    if max(len(ref.re.terms), len(ref.im.terms)) <= 2:
        assert _bits(complex(new)) == _bits(complex(ref))
    if not ref.im:
        assert complex(new).real.hex() == float(ref.re).hex()


def check_against_reference(rx, ry):
    (x, xr), (y, yr) = build_surd(rx), build_surd(ry)
    for new, ref in ((x, xr), (y, yr), (x + y, xr + yr), (x - y, xr - yr),
                     (x * y, xr * yr), (y * x, yr * xr), (-x, -xr),
                     (x.conjugate(), xr.conjugate()), (x - x, ExactC())):
        assert_same(new, ref)
    assert (x == y) == (xr == yr)
    assert x == x + 0 and (x == y) == (y == x)


@settings(max_examples=300, deadline=None)
@given(values, values)
def test_surd_matches_the_two_class_reference(rx, ry):
    check_against_reference(rx, ry)


@settings(max_examples=100, deadline=None)
@given(coefficients, coefficients, roots, coefficients)
def test_surd_mixes_with_plain_rationals(re, im, r, b):
    x, xr = build_surd([(re, im, r)])
    for new, ref in ((x * b, xr * b), (b * x, b * xr), (x + b, xr + b),
                     (b + x, b + xr), (x - b, xr - b), (b - x, b - xr)):
        assert_same(new, ref)
    assert (Surd(re) == b) == (re == b)


def test_surd_sqrt_rejects_a_negative_radicand():
    for x in (-1, Fraction(-1, 2)):
        with pytest.raises(ValueError):
            Surd.sqrt(x)


def test_integral_values_are_stored_as_int():
    assert Surd(Fraction(6, 3)).terms == {1: (2, 0)}
    assert type(Surd(Fraction(6, 3)).terms[1][0]) is int
    half = Surd.sqrt(Fraction(1, 2))
    for x in (half * half * 2, half * half * Surd(0, 2)):
        assert [type(q) for q in x.terms[1]] == [int, int]
    assert type((Surd(Fraction(1, 2)) + Fraction(1, 2)).terms[1][0]) is int
    assert Surd(Fraction(1, 2)) - Fraction(1, 2) == 0
    assert (Surd(Fraction(1, 2)) - Fraction(1, 2)).terms == {}
    assert (Surd(0, Fraction(1, 2)) * 0).terms == {}


def test_norm_squared_is_a_fraction():
    for vec in ({}, {ground(0): Surd(3)},
                {ground(2): Surd.sqrt(Fraction(1, 6))},
                {ground(1): Surd.sqrt(2), ground(3): Surd.sqrt(7)}):
        assert type(norm_squared(vec)) is Fraction
    assert norm_squared({ground(1): Surd.sqrt(2),
                         ground(3): Surd.sqrt(7)}) == 9
    # |c|^2, not c^2, for a complex coefficient
    assert norm_squared({ground(1): Surd(1, 1), ground(2): Surd(0, 3)}) == 11
    with pytest.raises(ArithmeticError):  # (1 + sqrt 2)^2 = 3 + 2 sqrt 2
        norm_squared({ground(1): Surd.sqrt(2) + 1})


def test_float_of_a_radicand_beyond_the_float_range():
    # 10**320 + 7 does not fit a float; its root does
    assert complex(Surd.sqrt(10**320 + 7)) == 1e160
    assert complex(Surd.sqrt(4**600) * Surd(0, 1)) == 2.0**600 * 1j


@given(st.integers(2**1024, 2**2040))
def test_root_beyond_the_floats_is_correctly_rounded(d):
    # the midpoints between x and its neighbours bracket sqrt(d), in integers
    x = _root(d)
    lo, hi = (int(math.nextafter(x, t)) for t in (0.0, math.inf))
    assert (lo + int(x)) ** 2 <= 4 * d <= (int(x) + hi) ** 2


# every sign of the term product: the negated imaginary square, and the
# minus and plus of the general complex product
_SIGNS = [site for site in mutants.sites(ast.parse(inspect.getsource(
    exact._term_product))) if site.kind in ("USub", "Sub", "Add")]


def test_the_product_has_three_signs():
    assert [site.kind for site in _SIGNS] == ["USub", "Sub", "Add"]


@pytest.mark.parametrize("site", _SIGNS, ids=lambda site: site.kind)
def test_a_sign_flip_in_the_product_fails(site, monkeypatch):
    tree = mutants.mutate(ast.parse(inspect.getsource(exact._term_product)),
                          site)
    scope = dict(vars(exact))
    exec(compile(tree, exact.__file__, "exec"), scope)
    monkeypatch.setattr(exact, "_term_product", scope["_term_product"])
    # i sqrt(2) i sqrt(3) reaches the imaginary square, and
    # (1 + i) sqrt(2) (2 + 3i) sqrt(3) the general product
    for rx, ry in (([(0, 1, 2)], [(0, 1, 3)]), ([(1, 1, 2)], [(2, 3, 3)])):
        try:
            check_against_reference(rx, ry)
        except AssertionError:
            break
    else:
        pytest.fail(f"the mutant {site} agrees with the reference")
    if site.kind == "USub":
        # P^2 has imaginary factors, so the square identities see it too
        assert not all(c.passed
                       for c in matrices.verify_square_identities(1, 8))
