"""Symmetric tridiagonal eigenvalue machinery.

Sturm-count multisection gives the eigenvalues.  Each round cuts every
root's bracket into eighths with one Sturm sweep vectorized over all roots
and section points, and the rounds narrow the brackets to 2^-60 of the
Gershgorin span.  Up to order 2048 the brackets start narrow: dense LAPACK
estimates, each widened to 2^-45 of the span and certified by Sturm counts,
need 5 rounds where a Gershgorin bracket needs 20.  Golub-Welsch weights
come from the three-term recurrence at those nodes.  Everything is
deterministic: fixed round counts, no randomness.
"""

from __future__ import annotations

import numpy as np

# multisection: each round splits every bracket into 8 equal parts, so 20
# rounds narrow a Gershgorin bracket by 8^20 = 2^60 and 5 rounds narrow a
# seed bracket 8^-15 of that width to the same final width
_SECTIONS = 8
_ROUNDS = 20
_SEEDED_ROUNDS = 5
# largest order seeded from dense estimates: the n x n seed stays <= 32 MB
_SEED_MAX_N = 2048


def sturm_counts(diag: np.ndarray, off: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of T strictly below each shift in xs.

    Counts negative pivots of the LDL^T factorization of T - x*I, with the
    standard pivmin safeguard against division blowup.  The sweep runs row
    by row in place on preallocated vectors the size of xs and adds each
    row's negative pivots to the count.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    off2 = off * off
    # pivmin at the underflow scale, as in LAPACK; a larger floor miscounts at
    # shifts that are exact eigenvalues of leading principal minors
    pivmin = np.finfo(float).tiny * max(1.0, off2.max(initial=0.0))
    q = np.subtract(diag[0], xs)
    work = np.empty_like(q)
    mask = np.empty(q.shape, dtype=bool)
    count = np.zeros(q.shape, dtype=np.int64)
    with np.errstate(over="ignore", divide="ignore"):
        for k in range(diag.size):
            if k:
                # q <- (diag[k] - x) - off2[k-1] / q
                np.subtract(diag[k], xs, out=work)
                np.divide(off2[k - 1], q, out=q)
                np.subtract(work, q, out=q)
            np.abs(q, out=work)
            np.less(work, pivmin, out=mask)
            np.copyto(q, -pivmin, where=mask)
            np.less(q, 0.0, out=mask)
            count += mask
    return count


def _estimates(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalue estimates from LAPACK on the dense matrix."""
    n = diag.size
    dense = np.zeros((n, n))
    dense.flat[::n + 1] = diag
    dense.flat[n::n + 1] = off  # eigvalsh reads the lower triangle
    return np.linalg.eigvalsh(dense)


def eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """All eigenvalues of the symmetric tridiagonal (diag, off), ascending.

    Each root is isolated by multisection on Sturm counts: every round
    evaluates one Sturm sweep at the 7 interior points lo + j (hi - lo) / 8
    of all n brackets at once and keeps, for root k, the eighth that holds
    it.  Up to order 2048 root k starts from the LAPACK estimate widened to
    [est - h, est + h], 2h = 2^-45 of the Gershgorin span, if one Sturm
    sweep over all 2n endpoints certifies it (count(est - h) <= k <
    count(est + h)); any other root starts from the Gershgorin bracket.  The
    round count follows from the widest start: 5 rounds when every seed is
    certified, else 20.  Either way each bracket ends 2^-60 of the Gershgorin
    span wide, below one ulp of the largest eigenvalue in magnitude, so the
    Sturm counts and not the estimates or the round limit set the accuracy.
    The returned values are the bracket midpoints.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    n = diag.size
    if n == 0:
        return np.empty(0)
    if n == 1:
        return diag.copy()
    radius = np.zeros(n)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    span = max(np.max(radius), 1.0)
    # asymmetric padding keeps section points off structurally special
    # shifts (e.g. 0 for a zero-diagonal matrix)
    lo = np.full(n, np.min(diag - radius) - 2.13e-3 * span)
    hi = np.full(n, np.max(diag + radius) + 0.97e-3 * span)
    rows = np.arange(n)
    rounds = _ROUNDS
    width = hi[0] - lo[0]
    if n <= _SEED_MAX_N and np.isfinite(width):
        half = 0.5 * width * float(_SECTIONS) ** (_SEEDED_ROUNDS - _ROUNDS)
        est = _estimates(diag, off)
        ends = np.concatenate((est - half, est + half))
        counts = sturm_counts(diag, off, ends)
        # seed k holds root k iff at most k eigenvalues lie below its lower
        # end and more than k below its upper end
        certified = (counts[:n] <= rows) & (rows < counts[n:])
        lo = np.where(certified, ends[:n], lo)
        hi = np.where(certified, ends[n:], hi)
        if certified.all():
            rounds = _SEEDED_ROUNDS
    targets = rows[:, None] + 1
    fractions = np.arange(1, _SECTIONS) / _SECTIONS
    for _ in range(rounds):
        shifts = lo[:, None] + (hi - lo)[:, None] * fractions
        counts = sturm_counts(diag, off, shifts.ravel()).reshape(shifts.shape)
        # root k lies in the eighth between edges j and j + 1, where j counts
        # the section points with fewer than k + 1 eigenvalues below them
        edges = np.column_stack((lo, shifts, hi))
        j = (counts < targets).sum(axis=1)
        lo, hi = edges[rows, j], edges[rows, j + 1]
    return 0.5 * (lo + hi)


def first_component_squared(diag: np.ndarray, off: np.ndarray,
                            nodes: np.ndarray) -> np.ndarray:
    """Squared first components of the unit eigenvectors at the given nodes.

    The eigenvector for node x is (p_0(x), ..., p_{n-1}(x)) up to norm, with
    p_k the orthonormal recurrence polynomials, so the squared first component
    is 1/sum_k p_k(x)^2.  The sum has only positive terms, which keeps every
    value relatively accurate even when it underflows the eigenvector scale;
    running rescaling absorbs the growth at extreme nodes.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    n = diag.size
    nodes = np.asarray(nodes, dtype=float)
    p_prev = np.zeros_like(nodes)
    p = np.ones_like(nodes)
    total = np.ones_like(nodes)
    logscale = np.zeros_like(nodes)  # total true value = total * exp(logscale)
    for k in range(n - 1):
        p_next = ((nodes - diag[k]) * p - (off[k - 1] * p_prev if k > 0 else 0.0)) / off[k]
        p_prev, p = p, p_next
        total = total + p * p
        big = total > 1e200
        if big.any():
            f = np.where(big, 1e-100, 1.0)
            p_prev, p = p_prev * f, p * f
            total = total * f * f
            logscale = logscale + np.where(big, 200.0 * np.log(10.0), 0.0)
    return np.exp(-logscale) / total


def golub_welsch(diag: np.ndarray, off: np.ndarray):
    """Nodes and weights of the unit-mass measure of a Jacobi matrix.

    Nodes are the eigenvalues; each weight is the squared first component of
    the corresponding unit eigenvector.
    """
    nodes = eigenvalues(diag, off)
    return nodes, first_component_squared(diag, off, nodes)
