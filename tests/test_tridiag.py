import ast
import functools
import inspect
import textwrap
import tracemalloc

import numpy as np
import pytest

from hermquant import spectral, tridiag
from hermquant.tridiag import eigenvalues

import oracles
from conftest import mutants

KINDS = ("generic", "split", "repeated-diagonal", "zero-diagonal")


def _tridiagonal(n: int, kind: str, rng):
    diag = rng.standard_normal(n)
    off = rng.standard_normal(n - 1)
    if kind == "split":
        off[::3] = 0.0  # zeros split T into decoupled blocks
    elif kind == "repeated-diagonal":
        diag[:] = diag[0]
    elif kind == "zero-diagonal":
        diag[:] = 0.0
    return diag, off


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", (1, 2, 3, 17, 64, 400))
def test_multisection_matches_eigvalsh(n, kind):
    rng = np.random.default_rng(1000 * n + KINDS.index(kind))
    diag, off = _tridiagonal(n, kind, rng)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    ref = np.linalg.eigvalsh(dense)
    radius = max(np.abs(ref).max(), np.finfo(float).tiny)
    got = eigenvalues(diag, off)
    assert got.shape == (n,)
    assert np.abs(got - ref).max() <= 1e-12 * radius


def _span(diag, off):
    # the Gershgorin span the brackets' final width refers to
    radius = np.zeros(diag.size)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    return np.max(diag + radius) - np.min(diag - radius)


def _counting_sweeps(monkeypatch):
    # the shift count of every Sturm sweep: each multisection round makes
    # one, and the first also takes the certificate of the seeds
    calls = []
    sweep = tridiag.sturm_counts

    def counted(diag, off, xs, sizes=None):
        calls.append(np.size(xs))
        return sweep(diag, off, xs, sizes)

    monkeypatch.setattr(tridiag, "sturm_counts", counted)
    return calls


def _hard(case: str):
    if case == "wilkinson-21":
        # W21+: the top eigenvalue pairs agree to about 1e-14, so their seed
        # brackets overlap
        return np.abs(np.arange(21.0) - 10.0), np.ones(20)
    # two identical blocks decoupled by a zero: every eigenvalue is double
    rng = np.random.default_rng(21)
    d, o = rng.standard_normal(15), rng.standard_normal(14)
    return np.concatenate((d, d)), np.concatenate((o, [0.0], o))


@pytest.mark.parametrize("case", ("wilkinson-21", "double-block"))
def test_close_and_double_roots_start_from_certified_seeds(monkeypatch, case):
    diag, off = _hard(case)
    ref = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    calls = _counting_sweeps(monkeypatch)
    got = eigenvalues(diag, off)
    # every seed certified: 5 rounds, the first also sweeping the 2n ends
    assert calls == [9 * diag.size] + [7 * diag.size] * 4
    assert np.all(np.diff(got) >= 0)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    if case == "double-block":
        # both copies of a double root bracket the same Sturm switch point
        assert np.abs(got[0::2] - got[1::2]).max() <= 2.0 ** -58 * _span(diag, off)


@pytest.mark.parametrize("wrong", ("shifted", "reversed"))
@pytest.mark.parametrize("matrix", ("jacobi-40", "random-64"))
def test_wrong_seeds_fall_back_to_gershgorin(monkeypatch, wrong, matrix):
    if matrix == "jacobi-40":
        diag, off = np.zeros(40), np.sqrt(np.arange(2, 41) / 2.0)
    else:
        rng = np.random.default_rng(64)
        diag, off = rng.standard_normal(64), rng.standard_normal(63)
    ref = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    seeded = eigenvalues(diag, off)
    estimates = tridiag._estimates
    perturb = {"shifted": lambda est: est + 0.5,
               "reversed": lambda est: est[::-1]}[wrong]
    monkeypatch.setattr(tridiag, "_estimates",
                        lambda d, o: perturb(estimates(d, o)))
    calls = _counting_sweeps(monkeypatch)
    got = eigenvalues(diag, off)
    # a failed certificate sends its root to the Gershgorin bracket, with
    # one more sweep at its interior points: 20 rounds in 21 sweeps
    n = diag.size
    failed = calls[1] // 7
    assert calls == [9 * n, 7 * failed] + [7 * n] * 19 and 0 < failed <= n
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(got - seeded).max() <= 2.0 ** -58 * _span(diag, off)


@pytest.mark.parametrize("sizes", ([40], [40, 25]))
def test_one_wrong_seed_per_section_takes_the_full_rounds(monkeypatch, sizes):
    # one failed certificate is enough to send its whole section to 20
    # rounds; with 5 the restarted root would end 8^-5 of the span wide
    diag, off = np.zeros(40), np.sqrt((np.arange(1, 40) + 1) / 2.0)
    estimates = tridiag._estimates

    def one_wrong(d, o):
        est = estimates(d, o)
        est[d.size // 3] += 0.5
        return est

    monkeypatch.setattr(tridiag, "_estimates", one_wrong)
    calls = _counting_sweeps(monkeypatch)
    got = (tridiag.section_eigenvalues(diag, off, sizes) if len(sizes) > 1
           else [eigenvalues(diag, off)])
    n = sum(sizes)
    assert calls == [9 * n, 7 * len(sizes)] + [7 * n] * 19
    for m, ev in zip(sizes, got):
        ref = np.linalg.eigvalsh(np.diag(off[:m - 1], 1)
                                 + np.diag(off[:m - 1], -1))
        assert np.abs(ev - ref).max() <= 1e-12 * np.abs(ref).max()


def test_no_dense_seed_above_the_cap(monkeypatch):
    diag, off = np.zeros(17), np.sqrt(np.arange(1, 17) / 2.0)
    seeded = eigenvalues(diag, off)

    def refuse(d, o):
        raise AssertionError("dense estimate above the cap")

    monkeypatch.setattr(tridiag, "_SEED_MAX_N", 16)
    monkeypatch.setattr(tridiag, "_estimates", refuse)
    got = eigenvalues(diag, off)
    assert np.abs(got - seeded).max() <= 2.0 ** -58 * _span(diag, off)


def test_memory_stays_linear_in_the_shift_count():
    # n = 400 takes 2800 section points a round: an n x shifts array would
    # be 9 MB, the dense seed is 1.3 MB
    diag, off = np.zeros(400), np.sqrt(np.arange(1, 400) / 2.0)
    tracemalloc.start()
    try:
        eigenvalues(diag, off)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def _laguerre_jacobi(n: int):
    # the Jacobi matrix of the radial Gauss-Laguerre rules
    return 2.0 * np.arange(n) + 1.0, np.arange(1, n, dtype=float)


@pytest.mark.parametrize("s", range(7))
def test_sections_equal_one_section_calls(s):
    diag, off = np.zeros(40), np.sqrt((np.arange(1, 40) + s) / 2.0)
    sizes = list(range(1, 41))
    for m, ev in zip(sizes, tridiag.section_eigenvalues(diag, off, sizes)):
        assert np.array_equal(ev, eigenvalues(diag[:m], off[:m - 1])), m


def test_laguerre_sections_equal_one_section_calls():
    diag, off = _laguerre_jacobi(60)
    sizes = list(range(12, 61))
    for m, ev in zip(sizes, tridiag.section_eigenvalues(diag, off, sizes)):
        assert np.array_equal(ev, eigenvalues(*_laguerre_jacobi(m))), m


def test_sections_come_back_in_the_order_asked(monkeypatch):
    diag, off = np.zeros(9), np.sqrt(np.arange(1, 9) / 2.0)
    calls = _counting_sweeps(monkeypatch)
    got = tridiag.section_eigenvalues(diag, off, [3, 9, 0, 1, 5])
    assert [ev.size for ev in got] == [3, 9, 0, 1, 5]
    assert got[3][0] == 0.0
    # sections of order 2 and more share every sweep: 3 + 9 + 5 roots
    assert calls == [9 * 17] + [7 * 17] * 4
    with pytest.raises(ValueError):
        tridiag.section_eigenvalues(diag, off, [10])


def test_sections_round_counts_are_their_own(monkeypatch):
    # a section whose seeds fail keeps 20 rounds while a certified one
    # stops after 5, and both equal their one-section calls
    rng = np.random.default_rng(7)
    diag, off = rng.standard_normal(30), rng.standard_normal(29)
    want = [eigenvalues(diag[:m], off[:m - 1]) for m in (30, 12)]
    estimates = tridiag._estimates
    monkeypatch.setattr(tridiag, "_estimates", lambda d, o: estimates(d, o)
                        + (0.5 if d.size == 30 else 0.0))
    calls = _counting_sweeps(monkeypatch)
    got = tridiag.section_eigenvalues(diag, off, [12, 30])
    failed = calls[1] // 7
    assert calls == [9 * 42, 7 * failed] + [7 * 42] * 4 + [7 * 30] * 15
    assert np.array_equal(got[0], want[1])
    assert np.array_equal(got[1], eigenvalues(diag, off))
    assert np.abs(got[1] - want[0]).max() <= 2.0 ** -58 * _span(diag, off)


def test_sturm_counts_of_sections_equal_separate_sweeps():
    rng = np.random.default_rng(3)
    diag, off = rng.standard_normal(25), rng.standard_normal(24)
    sizes = np.repeat([25, 17, 17, 4, 2], 6)
    xs = rng.uniform(-3.0, 3.0, sizes.size)
    got = tridiag.sturm_counts(diag, off, xs, sizes)
    want = [tridiag.sturm_counts(diag[:m], off[:m - 1], [x])[0]
            for m, x in zip(sizes, xs)]
    assert got.tolist() == want


@pytest.mark.parametrize("sizes", ([3, 4], [5, 3], [2, 0]),
                         ids=("increasing", "too-long", "empty-section"))
def test_sturm_counts_reject_bad_section_orders(sizes):
    with pytest.raises(ValueError, match="section orders"):
        tridiag.sturm_counts(np.zeros(4), np.ones(3), [0.5, 0.5], sizes)


@functools.lru_cache(maxsize=None)
def _christoffel(s: int, n: int):
    """Golub-Welsch nodes and weights of Q in sector s at order n, and the
    50-digit weights at the same nodes."""
    pytest.importorskip("mpmath")
    meas = spectral.golub_welsch(s, n)
    return meas.nodes, meas.weights, oracles.christoffel_weights(s, n,
                                                                 meas.nodes)


# orders whose outer weights lie below 1e-200 (3.8e-206 to 1.4e-246), so
# their sums pass 1e200 and first_component_squared rescales them
_RESCALED = [(0, 250), (0, 300), (1, 250), (1, 300)]


@pytest.mark.parametrize("s, n", _RESCALED)
def test_rescaled_weights_match_mpmath(s, n):
    _, got, want = _christoffel(s, n)
    assert 0 < got.min() < 1e-200
    assert np.max(np.abs(got / want - 1)) < 1e-12


def _rescale_sites() -> list:
    """The sampler's sites in the rescale block of first_component_squared.
    The two of its test `total > 1e200` are equivalent mutants (>= differs
    only at a sum of exactly 1e200, and 1e200 + 1 == 1e200), so they are
    left out."""
    tree = ast.parse(textwrap.dedent(
        inspect.getsource(tridiag.first_component_squared)))
    block = next(node for node in ast.walk(tree) if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "big.any()")
    return [site for site in mutants.sites(tree)
            if block.lineno <= site.span[0] <= block.end_lineno]


def test_the_rescale_block_has_eleven_sites():
    assert len(_rescale_sites()) == 11


@pytest.mark.parametrize("site", _rescale_sites(), ids=str)
def test_a_rescale_mutant_fails(site):
    tree = mutants.mutate(ast.parse(textwrap.dedent(
        inspect.getsource(tridiag.first_component_squared))), site)
    scope = dict(vars(tridiag))
    exec(compile(tree, tridiag.__file__, "exec"), scope)
    for s, n in _RESCALED:
        nodes, _, want = _christoffel(s, n)
        off = spectral.JacobiMatrix(s, n).offdiag()
        with np.errstate(all="ignore"):  # a mutant may overflow
            got = scope["first_component_squared"](np.zeros(n), off, nodes)
            if not np.max(np.abs(got / want - 1)) < 1e-12:
                break
    else:
        pytest.fail(f"the mutant {site} matches the 50-digit weights")
