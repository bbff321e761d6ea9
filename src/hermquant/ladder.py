"""Index-space ladder algebra on the orthogonal decomposition of L2(C).

Basis states are labeled by sectors: left states (L, n, s) with n >= 1,
right states (R, n, s) with n >= 1, and the shared relative ground states
G_s = (G, 0, s) where the two sectors intersect.  The four ladder operators
act by the rules

    A_L (L,n,s) = sqrt(s+n) (L,n-1,s)          A_L! (L,n,s) = sqrt(s+n+1) (L,n+1,s)
    A_L (G,s)   = sqrt(s)   (R,1,s-1)          A_L! (G,s)   = sqrt(s+1)   (L,1,s)
    A_L (R,n,s) = sqrt(s)   (R,n+1,s-1)        A_L! (R,n,s) = sqrt(s+1)   (R,n-1,s+1)

with the right-handed operators given by the L <-> R mirror, and annihilation
encoded by an empty result.  All coefficients are exact SqrtSum values, so
every identity check below reports a residual that is exactly zero or a
genuine failure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .exact import SqrtSum
from .report import CheckResult, worst_case

# shared constants: SqrtSum values are never mutated
_ZERO = SqrtSum(0)
_ONE = SqrtSum(1)

_KINDS = ("L", "G", "R")

OPS = ("AL", "ALdag", "AR", "ARdag", "NL", "NR", "J")


class _Fields(NamedTuple):
    kind: str
    n: int
    s: int


class SectorIndex(_Fields):
    """One basis state of the decomposition: kind 'L'/'R' with n >= 1, or the
    ground state kind 'G' carrying only s.

    A tuple underneath, so hashing and comparison run in C.  Constructing
    one validates it; the ladder rules build the images of valid states with
    `_state`, which skips the checks."""

    __slots__ = ()

    def __new__(cls, kind: str, n: int, s: int):
        if kind not in _KINDS:
            raise ValueError("kind must be 'L', 'G' or 'R'")
        if s < 0:
            raise ValueError("s must be nonnegative")
        if kind == "G":
            if n != 0:
                raise ValueError("ground states carry n = 0")
        elif n < 1:
            raise ValueError("starred sector states need n >= 1")
        return tuple.__new__(cls, (kind, n, s))


def _state(kind: str, n: int, s: int) -> SectorIndex:
    """Unchecked SectorIndex: kind 'L'/'R' with n >= 1, or the ground state
    when n = 0."""
    return tuple.__new__(SectorIndex, ("G", 0, s) if n == 0 else (kind, n, s))


def left(n: int, s: int) -> SectorIndex:
    return SectorIndex("G", 0, s) if n == 0 else SectorIndex("L", n, s)


def right(n: int, s: int) -> SectorIndex:
    return SectorIndex("G", 0, s) if n == 0 else SectorIndex("R", n, s)


def ground(s: int) -> SectorIndex:
    return SectorIndex("G", 0, s)


def mirror_index(idx: SectorIndex) -> SectorIndex:
    if idx.kind == "G":
        return idx
    return _state("R" if idx.kind == "L" else "L", idx.n, idx.s)


# A WeightedIndexSum is a dict {SectorIndex: SqrtSum}; {} encodes annihilation.
WeightedIndexSum = dict


@lru_cache(maxsize=None)
def _sq(k: int) -> SqrtSum:
    return SqrtSum.sqrt(k)


def _apply_AL(idx: SectorIndex) -> WeightedIndexSum:
    n, s = idx.n, idx.s
    if idx.kind == "L":
        return {_state("L", n - 1, s): _sq(s + n)}
    if s == 0:
        return {}
    if idx.kind == "G":
        return {_state("R", 1, s - 1): _sq(s)}
    return {_state("R", n + 1, s - 1): _sq(s)}


def _apply_ALdag(idx: SectorIndex) -> WeightedIndexSum:
    n, s = idx.n, idx.s
    if idx.kind == "L":
        return {_state("L", n + 1, s): _sq(s + n + 1)}
    if idx.kind == "G":
        return {_state("L", 1, s): _sq(s + 1)}
    return {_state("R", n - 1, s + 1): _sq(s + 1)}


def _mirror_sum(out: WeightedIndexSum) -> WeightedIndexSum:
    return {mirror_index(i): c for i, c in out.items()}


def ladder_apply(which: str, idx: SectorIndex) -> WeightedIndexSum:
    """Image of one basis state under a single generator.

    which is one of 'AL', 'ALdag', 'AR', 'ARdag', 'NL', 'NR', 'J'.
    """
    if which == "AL":
        return _apply_AL(idx)
    if which == "ALdag":
        return _apply_ALdag(idx)
    if which == "AR":
        return _mirror_sum(_apply_AL(mirror_index(idx)))
    if which == "ARdag":
        return _mirror_sum(_apply_ALdag(mirror_index(idx)))
    if which == "NL":
        val = idx.n + idx.s if idx.kind == "L" else idx.s
        return {idx: SqrtSum(val)} if val else {}
    if which == "NR":
        val = idx.n + idx.s if idx.kind == "R" else idx.s
        return {idx: SqrtSum(val)} if val else {}
    if which == "J":
        return {mirror_index(idx): _ONE}
    raise ValueError(f"unknown operator {which!r}")


def apply_to_sum(which: str, vec: WeightedIndexSum) -> WeightedIndexSum:
    out: WeightedIndexSum = {}
    for idx, coeff in vec.items():
        for jdx, c in ladder_apply(which, idx).items():
            # the shared one starts every word and weights every J image
            term = c if coeff is _ONE else coeff if c is _ONE else coeff * c
            acc = out.get(jdx, _ZERO) + term
            if acc:
                out[jdx] = acc
            elif jdx in out:
                del out[jdx]
    return out


def apply_word(word, idx_or_vec) -> WeightedIndexSum:
    """Apply a product of generators, rightmost factor first."""
    vec = ({idx_or_vec: _ONE} if isinstance(idx_or_vec, SectorIndex)
           else dict(idx_or_vec))
    for which in reversed(word):
        vec = apply_to_sum(which, vec)
    return vec


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
    return max((abs(float(c)) for c in diff.values()), default=0.0)


def basis_window(n_max: int, s_max: int):
    """All basis states with n <= n_max, s <= s_max (ground states included)."""
    out = [ground(s) for s in range(s_max + 1)]
    for s in range(s_max + 1):
        for n in range(1, n_max + 1):
            out.append(left(n, s))
            out.append(right(n, s))
    return out


def _check_identity(name: str, lhs_fn, rhs_fn, window) -> CheckResult:
    return worst_case(name, 0.0, (
        (sum_residual(sum_sub(lhs_fn(idx), rhs_fn(idx))), repr(idx))
        for idx in window))


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
                        lambda i: {i: SqrtSum(i.n + i.s)} if (i.n + i.s) else {},
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


def _pair_weight(op: str, idx: SectorIndex) -> SqrtSum:
    img = ladder_apply(op, idx)
    acc = _ZERO
    for c in img.values():
        acc = acc + c * c
    return acc


def _scale(idx: SectorIndex, c: SqrtSum) -> WeightedIndexSum:
    return {idx: c} if c else {}


def norm_squared(vec: WeightedIndexSum) -> Fraction:
    """Exact squared norm of a weighted index sum (basis is orthonormal)."""
    acc = _ZERO
    for c in vec.values():
        acc = acc + c * c
    terms = acc.terms
    if set(terms) - {1}:
        raise ArithmeticError("squared norm should be rational")
    # a Fraction even when integral, so that a ratio of norms stays exact
    return Fraction(terms.get(1, 0))


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
            want_b = {ground(n): SqrtSum(math.factorial(n))}
            want_ad = {ground(n): SqrtSum(math.factorial(n) ** 2)}
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
                lhs = apply_word(word, {ground(n): SqrtSum.sqrt(weight(n))})
                rhs = {ground(n - 1): SqrtSum.sqrt(n ** 3)
                       * SqrtSum.sqrt(weight(n - 1))}
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
        lambda i: _scale(i, SqrtSum(i.s ** 3)),
        [ground(n) for n in range(n_max + 1)]))

    # norm ratio ||Psi_n||/||Phi_n|| = n! grows without bound
    def norm_ratios():
        prev = None
        for n in range(0, n_max + 1):
            num = norm_squared({ground(n): SqrtSum.sqrt(math.factorial(n))})
            den = norm_squared(
                {ground(n): SqrtSum.sqrt(Fraction(1, math.factorial(n)))})
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
    plus_one = lambda i: sum_sub(apply_word(("NL",), i), {i: SqrtSum(-1)})
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
            rhs = {k: SqrtSum(n + s) * c for k, c in vec2.items()}
            yield sum_residual(sum_sub(lhs, rhs)), f"n={n} level"

    checks.append(worst_case("dual.transformed_eigenvectors_and_levels", 0.0,
                             transformed(), n_max))
    return checks
