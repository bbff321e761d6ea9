import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermquant import ladder
from hermquant.exact import SqrtSum
from hermquant.ladder import (SectorIndex, apply_word, basis_window,
                              dual_hamiltonian_verify, ground, ladder_apply,
                              left, mirror_index, nlpb_verify, norm_squared,
                              right, sum_residual, sum_sub,
                              verify_commutators_full)


def test_absolute_ground_state_annihilated():
    assert ladder_apply("AL", ground(0)) == {}
    assert ladder_apply("AR", ground(0)) == {}


def test_relative_ground_states_shift_sectors():
    assert ladder_apply("AL", ground(3)) == {right(1, 2): SqrtSum.sqrt(3)}
    assert ladder_apply("AR", ground(3)) == {left(1, 2): SqrtSum.sqrt(3)}


def test_cross_annihilation_of_opposite_sector():
    assert ladder_apply("AR", left(2, 0)) == {}
    assert ladder_apply("AL", right(5, 0)) == {}


def test_in_sector_ladder_weights():
    assert ladder_apply("AL", left(4, 2)) == {left(3, 2): SqrtSum.sqrt(6)}
    assert ladder_apply("ALdag", left(4, 2)) == {left(5, 2): SqrtSum.sqrt(7)}


@pytest.mark.parametrize("s", range(1, 9))
def test_quadratic_ground_ladders(s):
    assert apply_word(("AL", "AR"), ground(s)) == {ground(s - 1): SqrtSum(s)}
    assert apply_word(("ARdag", "ALdag"), ground(s)) == \
        {ground(s + 1): SqrtSum(s + 1)}


def test_invalid_indices_rejected():
    for build, args in ((left, (-1, 2)), (left, (1, -1)), (right, (-2, 0)),
                        (right, (0, -1)), (ground, (-1,))):
        with pytest.raises(ValueError, match="must be nonnegative"):
            build(*args)


def test_states_are_hermite_index_pairs():
    assert left(2, 1) == SectorIndex(3, 1) and right(2, 1) == SectorIndex(1, 3)
    assert ground(4) == SectorIndex(4, 4)
    for idx in basis_window(4, 4):
        assert (idx.kind, idx.n, idx.s) == (
            "G" if idx.r == idx.q else "L" if idx.r > idx.q else "R",
            abs(idx.r - idx.q), min(idx.r, idx.q))


def test_repr_names_the_sector():
    assert repr(left(2, 1)) == "L(n=2, s=1)"
    assert repr(right(1, 0)) == "R(n=1, s=0)"
    assert repr(ground(3)) == "G(s=3)"


def test_left_right_constructors_canonicalize_ground():
    assert left(0, 4) == ground(4) == right(0, 4)


def test_full_commutator_sweep_is_exact():
    for check in verify_commutators_full(8, 8):
        assert check.passed and check.max_residual == 0.0, check


def test_number_operator_eigenvalues():
    assert ladder_apply("NL", left(3, 2)) == {left(3, 2): SqrtSum(5)}
    assert ladder_apply("NL", right(3, 2)) == {right(3, 2): SqrtSum(2)}
    assert ladder_apply("NR", ground(4)) == {ground(4): SqrtSum(4)}


def test_mirror_involution():
    for idx in (ground(2), left(3, 1), right(1, 0)):
        assert mirror_index(mirror_index(idx)) == idx
        assert apply_word(("J", "J"), idx) == {idx: SqrtSum(1)}


def test_adjointness_pairing_on_window():
    # <ALdag x, y> == <x, AL y> entry by entry over a finite window
    window = basis_window(6, 6)
    for x in window:
        up = ladder_apply("ALdag", x)
        for y in window:
            down = ladder_apply("AL", y)
            lhs = up.get(y, SqrtSum(0))
            rhs = down.get(x, SqrtSum(0))
            assert lhs == rhs, (x, y)


def test_no_negative_indices_ever():
    for idx in basis_window(5, 5):
        for op in ("AL", "ALdag", "AR", "ARdag"):
            for out in ladder_apply(op, idx):
                assert out.r >= 0 and out.q >= 0
                assert out.n >= 0 and out.s >= 0
                assert out.kind in ("L", "G", "R")


# The sector-form table of the paper, written out by hand in (kind, n, s):
# a statement of the ladder rules independent of their (r, q) form.
def _sector(kind, n, s):
    return ground(s) if n == 0 else left(n, s) if kind == "L" else right(n, s)


def _AL_sector(kind, n, s):
    if kind == "L":
        return {_sector("L", n - 1, s): SqrtSum.sqrt(s + n)}
    if s == 0:
        return {}
    if kind == "G":
        return {_sector("R", 1, s - 1): SqrtSum.sqrt(s)}
    return {_sector("R", n + 1, s - 1): SqrtSum.sqrt(s)}


def _ALdag_sector(kind, n, s):
    if kind == "L":
        return {_sector("L", n + 1, s): SqrtSum.sqrt(s + n + 1)}
    if kind == "G":
        return {_sector("L", 1, s): SqrtSum.sqrt(s + 1)}
    return {_sector("R", n - 1, s + 1): SqrtSum.sqrt(s + 1)}


_FLIP = {"L": "R", "G": "G", "R": "L"}


def _mirrored(rule):
    """The right-handed partner J rule J of a left-handed rule."""
    def partner(kind, n, s):
        return {_sector(_FLIP[i.kind], i.n, i.s): c
                for i, c in rule(_FLIP[kind], n, s).items()}
    return partner


def _number(sector):
    """N_L (sector 'L') or N_R: s + n on its own sector, s elsewhere."""
    def rule(kind, n, s):
        val = s + n if kind == sector else s
        return {_sector(kind, n, s): SqrtSum(val)} if val else {}
    return rule


SECTOR_FORM = {
    "AL": _AL_sector,
    "ALdag": _ALdag_sector,
    "AR": _mirrored(_AL_sector),
    "ARdag": _mirrored(_ALdag_sector),
    "NL": _number("L"),
    "NR": _number("R"),
    "J": lambda kind, n, s: {_sector(_FLIP[kind], n, s): SqrtSum(1)},
}


def _sector_form_mismatches():
    return [(op, idx) for idx in basis_window(8, 8)
            for op, rule in SECTOR_FORM.items()
            if ladder_apply(op, idx) != rule(idx.kind, idx.n, idx.s)]


def test_rules_match_the_sector_form_table():
    assert _sector_form_mismatches() == []


@pytest.mark.parametrize("op, mutant", [
    ("AL", lambda r, q: (r - 1, q, r + 1 if r else 0)),
    ("ARdag", lambda r, q: (r + 1, q, q + 1)),
    ("NR", lambda r, q: (r, q, r * r)),
    ("J", lambda r, q: (r, q, 1)),
], ids=["AL-weight", "ARdag-on-r", "NR-reads-r", "J-no-swap"])
def test_sector_form_oracle_fails_for_a_mutated_rule(monkeypatch, op, mutant):
    monkeypatch.setitem(ladder._RULES, op, mutant)
    assert {o for o, _ in _sector_form_mismatches()} == {op}


@settings(max_examples=80)
@given(st.integers(0, 12), st.integers(0, 12))
def test_norm_consistency_raise_then_lower(n, s):
    idx = left(n, s) if n else ground(s)
    once = apply_word(("AL", "ALdag"), idx)
    assert once == {idx: SqrtSum(s + n + 1)}


def test_nlpb_suite_exact():
    for check in nlpb_verify(30, 8):
        assert check.passed and check.max_residual == 0.0, check


def test_nlpb_chain_normalizations():
    # b^n on the absolute ground gives n! phi_{0;n}; adjoint chain (n!)^2
    vec = {ground(0): SqrtSum(1)}
    for n in range(1, 12):
        vec = apply_word(("ARdag", "ALdag"), vec)
        assert vec == {ground(n): SqrtSum(math.factorial(n))}


def test_nlpb_norm_ratio_growth():
    ratios = []
    for n in range(0, 12):
        psi = norm_squared({ground(n): SqrtSum.sqrt(math.factorial(n))})
        phi = norm_squared({ground(n): SqrtSum.sqrt(Fraction(1, math.factorial(n)))})
        ratios.append(psi / phi)
        assert ratios[-1] == Fraction(math.factorial(n)) ** 2
    # strictly increasing from n = 1 on (0! = 1!)
    assert all(b > a for a, b in zip(ratios[1:], ratios[2:]))


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_dual_hamiltonian_suite_exact(s):
    for check in dual_hamiltonian_verify(30, s):
        assert check.passed and check.max_residual == 0.0, check


def test_dual_hamiltonian_transformed_vector():
    vec = apply_word(("AL", "J"), right(4, 2))
    assert vec == {left(3, 2): SqrtSum.sqrt(6)}


def test_sum_sub_and_residual():
    a = {ground(1): SqrtSum(2)}
    b = {ground(1): SqrtSum(2), left(1, 0): SqrtSum.sqrt(2)}
    diff = sum_sub(a, b)
    assert sum_residual(diff) == pytest.approx(math.sqrt(2))
    assert sum_residual(sum_sub(a, a)) == 0.0


def _generator_by_generator(word, idx):
    """The image of idx under word one generator at a time, with a SqrtSum
    product per step: the route a folded word must agree with."""
    vec = {idx: SqrtSum(1)}
    for op in reversed(word):
        out = {}
        for i, c in vec.items():
            for j, w in ladder_apply(op, i).items():
                out[j] = out.get(j, SqrtSum(0)) + c * w
        vec = {j: c for j, c in out.items() if c}
    return vec


@settings(max_examples=80)
@given(st.lists(st.sampled_from(sorted(ladder._RULES)), max_size=6),
       st.integers(0, 6), st.integers(0, 6))
def test_folded_word_equals_generator_by_generator(word, r, q):
    idx = SectorIndex(r, q)
    assert apply_word(word, idx) == _generator_by_generator(word, idx)


def test_word_on_a_sum_scales_each_image():
    vec = {ground(2): SqrtSum.sqrt(3), left(1, 0): SqrtSum(-2)}
    assert apply_word(("ALdag", "NR"), vec) == {
        left(1, 2): SqrtSum.sqrt(3) * 2 * SqrtSum.sqrt(3)}
    assert apply_word(("AL",), {ground(0): SqrtSum(5)}) == {}
    with pytest.raises(ValueError, match="unknown operator 'X'"):
        apply_word(("AL", "X"), left(1, 1))
