import numpy as np
import pytest

from hermquant.tridiag import eigenvalues

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

