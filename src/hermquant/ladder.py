"""Index-space ladder algebra on the orthogonal decomposition of L2(C).

A basis state is a complex Hermite function h_{r,q}, stored as the pair of
its indices (r, q).  The pair carries its sector label: r > q is the left
state (L, n, s), r < q the right state (R, n, s), and r = q the relative
ground state G_s = (G, 0, s) where the two sectors intersect, with
n = |r - q| and s = min(r, q).  On the indices the generators act by

    A_L (r,q) = sqrt(r) (r-1,q)        A_L! (r,q) = sqrt(r+1) (r+1,q)
    A_R (r,q) = sqrt(q) (r,q-1)        A_R! (r,q) = sqrt(q+1) (r,q+1)
    N_L (r,q) = r (r,q)                N_R (r,q) = q (r,q)
    J   (r,q) = (q,r)

with annihilation encoded by an empty result.  In sector form, as the paper
states them and as the tests check these rules against, A_L and A_L! act by

    A_L (L,n,s) = sqrt(s+n) (L,n-1,s)          A_L! (L,n,s) = sqrt(s+n+1) (L,n+1,s)
    A_L (G,s)   = sqrt(s)   (R,1,s-1)          A_L! (G,s)   = sqrt(s+1)   (L,1,s)
    A_L (R,n,s) = sqrt(s)   (R,n+1,s-1)        A_L! (R,n,s) = sqrt(s+1)   (R,n-1,s+1)

and the right-handed operators by the L <-> R mirror J.  Each generator
sends a state to one state, so a word is folded on (r, q) with the product
of its integer squared weights, and its image takes one exact Surd root.
All coefficients are exact, so every identity check below reports a
residual that is exactly zero or a genuine failure.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .exact import Surd
from .report import CheckResult, worst_case

# shared constants: Surd values are never mutated
_ZERO = Surd(0)
_ONE = Surd(1)


class SectorIndex(NamedTuple):
    """One basis state h_{r,q}, read in sector terms through `kind`, `n`
    and `s`.  A tuple underneath, so hashing and comparison run in C.
    `left`, `right` and `ground` build one from its sector label and
    validate it; the ladder rules build the images of valid states."""

    r: int
    q: int

    @property
    def kind(self) -> str:
        return "L" if self.r > self.q else "R" if self.r < self.q else "G"

    @property
    def n(self) -> int:
        return abs(self.r - self.q)

    @property
    def s(self) -> int:
        return min(self.r, self.q)

    def __repr__(self) -> str:
        if self.r == self.q:
            return f"G(s={self.s})"
        return f"{self.kind}(n={self.n}, s={self.s})"


def left(n: int, s: int) -> SectorIndex:
    if n < 0 or s < 0:
        raise ValueError(f"n = {n} and s = {s} must be nonnegative")
    return SectorIndex(s + n, s)


def right(n: int, s: int) -> SectorIndex:
    return mirror_index(left(n, s))


def ground(s: int) -> SectorIndex:
    return left(0, s)


def mirror_index(idx: SectorIndex) -> SectorIndex:
    return SectorIndex(idx.q, idx.r)


# A WeightedIndexSum is a dict {SectorIndex: Surd}; {} encodes annihilation.
WeightedIndexSum = dict


# the roots of squared word weights: verify's ladder and nlpb suites take
# about 560 distinct ones
@lru_cache(maxsize=4096)
def _sq(k: int) -> Surd:
    return Surd.sqrt(k)


# the generators on the Hermite indices: (r, q) -> (r', q', w^2) for the
# image w (r', q'), every weight w >= 0; a zero weight annihilates
_RULES = {
    "AL": lambda r, q: (r - 1, q, r),
    "ALdag": lambda r, q: (r + 1, q, r + 1),
    "AR": lambda r, q: (r, q - 1, q),
    "ARdag": lambda r, q: (r, q + 1, q + 1),
    "NL": lambda r, q: (r, q, r * r),
    "NR": lambda r, q: (r, q, q * q),
    "J": lambda r, q: (q, r, 1),
}


def _fold(word, idx: SectorIndex):
    """The image of one basis state under a product of generators,
    rightmost factor first, as (state, squared weight), or None once a
    factor annihilates it.  Every generator sends a state to one state, so
    the word multiplies integer squared weights and takes no root."""
    r, q = idx
    w2 = 1
    for which in reversed(word):
        try:
            r, q, f = _RULES[which](r, q)
        except KeyError:
            raise ValueError(f"unknown operator {which!r}") from None
        w2 *= f
        if not w2:
            return None
    return SectorIndex(r, q), w2


def ladder_apply(which: str, idx: SectorIndex) -> WeightedIndexSum:
    """Image of one basis state under a single generator.

    which is one of 'AL', 'ALdag', 'AR', 'ARdag', 'NL', 'NR', 'J'.
    """
    return apply_word((which,), idx)


def apply_word(word, idx_or_vec) -> WeightedIndexSum:
    """Apply a product of generators, rightmost factor first: each basis
    state of the sum is folded through the whole word and its image takes
    one exact root."""
    if isinstance(idx_or_vec, SectorIndex):
        image = _fold(word, idx_or_vec)
        return {} if image is None else {image[0]: _sq(image[1])}
    out: WeightedIndexSum = {}
    for idx, coeff in idx_or_vec.items():
        image = _fold(word, idx)
        if image is None:
            continue
        jdx, w2 = image
        acc = out.get(jdx, _ZERO) + coeff * _sq(w2)
        if acc:
            out[jdx] = acc
        elif jdx in out:
            del out[jdx]
    return out


def sum_sub(a: WeightedIndexSum, b: WeightedIndexSum) -> WeightedIndexSum:
    out = dict(a)
    for idx, c in b.items():
        acc = out.get(idx, _ZERO) - c
        if acc:
            out[idx] = acc
        elif idx in out:
            del out[idx]
    return out


def sum_residual(diff: WeightedIndexSum) -> float:
    """Largest coefficient magnitude; exactly 0.0 iff the sum is empty."""
    return max((abs(complex(c)) for c in diff.values()), default=0.0)


def basis_window(n_max: int, s_max: int):
    """All basis states with n <= n_max, s <= s_max (ground states included)."""
    out = [ground(s) for s in range(s_max + 1)]
    for s in range(s_max + 1):
        for n in range(1, n_max + 1):
            out.append(left(n, s))
            out.append(right(n, s))
    return out


def _residual(lhs: WeightedIndexSum, rhs: WeightedIndexSum) -> float:
    # coefficients are canonical, so equal sums have an empty difference
    return 0.0 if lhs == rhs else sum_residual(sum_sub(lhs, rhs))


def _check_identity(name: str, lhs_fn, rhs_fn, window) -> CheckResult:
    check = worst_case(name, 0.0, (
        (_residual(lhs_fn(idx), rhs_fn(idx)), idx) for idx in window))
    # a pass drops its witness, so only the state a failure keeps is
    # formatted (str of a state is its sector label)
    return check if check.passed else replace(check,
                                              witness=str(check.witness))


def commutator(op_a: str, op_b: str, idx: SectorIndex) -> WeightedIndexSum:
    return sum_sub(apply_word((op_a, op_b), idx), apply_word((op_b, op_a), idx))


def verify_commutators_full(n_max: int, s_max: int) -> list:
    """Exact checks of the two mutually commuting oscillator algebras, the
    number-operator relations, and the mirror symmetry."""
    window = basis_window(n_max, s_max)
    ident = lambda idx: {idx: _ONE}
    zero = lambda idx: {}
    checks = [
        _check_identity("ladder.commutator_AL_ALdag_is_identity",
                        lambda i: commutator("AL", "ALdag", i), ident, window),
        _check_identity("ladder.commutator_AR_ARdag_is_identity",
                        lambda i: commutator("AR", "ARdag", i), ident, window),
        _check_identity("ladder.commutator_AL_AR_vanishes",
                        lambda i: commutator("AL", "AR", i), zero, window),
        _check_identity("ladder.commutator_AL_ARdag_vanishes",
                        lambda i: commutator("AL", "ARdag", i), zero, window),
        _check_identity("ladder.commutator_ALdag_ARdag_vanishes",
                        lambda i: commutator("ALdag", "ARdag", i), zero, window),
        _check_identity("ladder.NL_equals_ALdag_AL",
                        lambda i: apply_word(("ALdag", "AL"), i),
                        lambda i: ladder_apply("NL", i), window),
        _check_identity("ladder.NL_eigenvalue_on_left_sector",
                        lambda i: ladder_apply("NL", i),
                        lambda i: {i: Surd(i.n + i.s)} if (i.n + i.s) else {},
                        [i for i in window if i.kind != "R"]),
        _check_identity("ladder.commutator_NL_AR_vanishes",
                        lambda i: commutator("NL", "AR", i), zero, window),
        _check_identity("ladder.commutator_NL_ARdag_vanishes",
                        lambda i: commutator("NL", "ARdag", i), zero, window),
        _check_identity("ladder.mirror_squares_to_identity",
                        lambda i: apply_word(("J", "J"), i), ident, window),
        _check_identity("ladder.mirror_swaps_sectors",
                        lambda i: ladder_apply("J", i),
                        lambda i: {mirror_index(i): _ONE}, window),
        _check_identity("ladder.adjoint_pairing_AL",
                        lambda i: apply_word(("ALdag", "AL"), i),
                        lambda i: _scale(i, _pair_weight("AL", i)), window),
    ]
    return checks


def _pair_weight(op: str, idx: SectorIndex) -> Surd:
    img = ladder_apply(op, idx)
    acc = _ZERO
    for c in img.values():
        acc = acc + c * c
    return acc


def _scale(idx: SectorIndex, c: Surd) -> WeightedIndexSum:
    return {idx: c} if c else {}


def norm_squared(vec: WeightedIndexSum) -> Fraction:
    """Exact squared norm of a weighted index sum (basis is orthonormal)."""
    acc = _ZERO
    for c in vec.values():
        acc = acc + c * c.conjugate()
    re, _ = acc.terms.get(1, (0, 0))
    if set(acc.terms) - {1}:
        raise ArithmeticError("squared norm should be rational")
    # a Fraction even when integral, so that a ratio of norms stays exact
    return Fraction(re)


def nlpb_verify(n_max: int, s_max: int | None = None) -> list:
    """Exact checks of the cubic lowering/raising pair

        a = A_L A_R N_L,   b = A_R! A_L!,   eps_n = n^3

    acting on the ground-state chain, including the operator identity
    b a = N_R N_L^2 on the full index window and the factorially growing
    norm ratio that rules out a Riesz basis.
    """
    if s_max is None:
        s_max = n_max
    a_word = ("AL", "AR", "NL")
    b_word = ("ARdag", "ALdag")
    adag_word = ("NL", "ARdag", "ALdag")
    bdag_word = ("AL", "AR")
    checks = []

    checks.append(_check_identity(
        "nlpb.lowering_annihilates_ground",
        lambda i: apply_word(a_word, i), lambda i: {}, [ground(0)]))
    checks.append(_check_identity(
        "nlpb.bdag_annihilates_ground",
        lambda i: apply_word(bdag_word, i), lambda i: {}, [ground(0)]))

    # Phi_n = b^n Phi_0 / sqrt(eps_n!) = phi_{0;n}/sqrt(n!);  Psi_n = sqrt(n!) phi_{0;n}
    def raising_chains():
        vec_b = {ground(0): _ONE}
        vec_ad = {ground(0): _ONE}
        for n in range(1, n_max + 1):
            vec_b = apply_word(b_word, vec_b)
            vec_ad = apply_word(adag_word, vec_ad)
            want_b = {ground(n): Surd(math.factorial(n))}
            want_ad = {ground(n): Surd(math.factorial(n) ** 2)}
            yield sum_residual(sum_sub(vec_b, want_b)), f"n={n} b"
            yield sum_residual(sum_sub(vec_ad, want_ad)), f"n={n} adag"

    checks.append(worst_case("nlpb.raising_chains_build_ground_states", 0.0,
                             raising_chains()))

    # p3: a Phi_n = sqrt(eps_n) Phi_{n-1} and b! Psi_n = sqrt(eps_n) Psi_{n-1},
    # where Phi_k and Psi_k carry the squared weights 1/k! and k!
    def ladder_rule():
        for n in range(1, n_max + 1):
            for op, word, weight in (
                    ("a", a_word, lambda k: Fraction(1, math.factorial(k))),
                    ("bdag", bdag_word, math.factorial)):
                lhs = apply_word(word, {ground(n): Surd.sqrt(weight(n))})
                rhs = {ground(n - 1): Surd.sqrt(n ** 3)
                       * Surd.sqrt(weight(n - 1))}
                yield sum_residual(sum_sub(lhs, rhs)), f"n={n} {op}"

    checks.append(worst_case("nlpb.three_halves_power_ladder_rule", 0.0,
                             ladder_rule()))

    # M = b a equals N_R N_L^2 everywhere, with eigenvalue n^3 on ground states
    window = basis_window(n_max, s_max)
    checks.append(_check_identity(
        "nlpb.M_equals_NR_NL_squared",
        lambda i: apply_word(b_word + a_word, i),
        lambda i: apply_word(("NR", "NL", "NL"), i), window))
    checks.append(_check_identity(
        "nlpb.M_eigenvalue_cubic_on_ground",
        lambda i: apply_word(b_word + a_word, i),
        lambda i: _scale(i, Surd(i.s ** 3)),
        [ground(n) for n in range(n_max + 1)]))

    # norm ratio ||Psi_n||/||Phi_n|| = n! grows without bound
    def norm_ratios():
        prev = None
        for n in range(0, n_max + 1):
            num = norm_squared({ground(n): Surd.sqrt(math.factorial(n))})
            den = norm_squared(
                {ground(n): Surd.sqrt(Fraction(1, math.factorial(n)))})
            ratio_sq = num / den
            ok = (ratio_sq == Fraction(math.factorial(n)) ** 2
                  and (n < 2 or ratio_sq > prev))
            yield float(not ok), f"n={n}"
            prev = ratio_sq

    checks.append(worst_case("nlpb.norm_ratio_factorial_growth", 0.0,
                             norm_ratios()))
    return checks


def dual_hamiltonian_verify(n_max: int, s: int) -> list:
    """Exact checks of the intertwined Hamiltonian pair h1 = N_R and
    h2 = A_L A_L! = N_L + 1 with x1 = J A_L!."""
    h2_word = ("AL", "ALdag")
    x1_word = ("J", "ALdag")
    x1dag_word = ("AL", "J")
    h1_word = ("NR",)
    window = [ground(s)] + [left(n, s) for n in range(1, n_max + 1)] \
        + [right(n, s) for n in range(1, n_max + 1)]
    plus_one = lambda i: sum_sub(apply_word(("NL",), i), {i: Surd(-1)})
    checks = [
        _check_identity("dual.h2_equals_NL_plus_one",
                        lambda i: apply_word(h2_word, i), plus_one, window),
        _check_identity("dual.x1_x1dag_commutes_with_h1",
                        lambda i: sum_sub(
                            apply_word(x1_word + x1dag_word + h1_word, i),
                            apply_word(h1_word + x1_word + x1dag_word, i)),
                        lambda i: {}, window),
        _check_identity("dual.intertwining_residual_vanishes",
                        lambda i: sum_sub(
                            apply_word(x1dag_word + x1_word + h2_word, i),
                            apply_word(x1dag_word + h1_word + x1_word, i)),
                        lambda i: {}, window),
        _check_identity("dual.h2_commutes_with_x1dag_x1",
                        lambda i: sum_sub(
                            apply_word(h2_word + x1dag_word + x1_word, i),
                            apply_word(x1dag_word + x1_word + h2_word, i)),
                        lambda i: {}, window),
    ]
    # the transformed eigenvectors x1! phi^R_{n;s} = sqrt(n+s) phi^L_{n-1;s}
    def transformed():
        for n in range(1, n_max + 1):
            vec2 = apply_word(x1dag_word, right(n, s))
            want = {left(n - 1, s): _sq(n + s)} if n + s else {}
            yield sum_residual(sum_sub(vec2, want)), f"n={n} vector"
            lhs = apply_word(h2_word, vec2)
            rhs = {k: Surd(n + s) * c for k, c in vec2.items()}
            yield sum_residual(sum_sub(lhs, rhs)), f"n={n} level"

    checks.append(worst_case("dual.transformed_eigenvectors_and_levels", 0.0,
                             transformed(), n_max))
    return checks
