"""Symmetric tridiagonal eigenvalue machinery.

Sturm-count bisection, vectorized over all roots, gives the eigenvalues;
Golub-Welsch weights come from the three-term recurrence at those nodes.
Everything is deterministic: fixed iteration counts, no randomness.
"""

from __future__ import annotations

import numpy as np


def sturm_counts(diag: np.ndarray, off: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of T strictly below each shift in xs.

    Counts negative pivots of the LDL^T factorization of T - x*I, with the
    standard pivmin safeguard against division blowup.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    n = diag.size
    off2 = off * off
    # pivmin at the underflow scale, as in LAPACK; a larger floor miscounts at
    # shifts that are exact eigenvalues of leading principal minors
    pivmin = np.finfo(float).tiny * max(1.0, np.max(off2, initial=0.0))
    with np.errstate(over="ignore", divide="ignore"):
        q = diag[0] - xs
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        count = (q < 0).astype(np.int64)
        for k in range(1, n):
            q = diag[k] - xs - off2[k - 1] / q
            q = np.where(np.abs(q) < pivmin, -pivmin, q)
            count += q < 0
    return count


def eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """All eigenvalues of the symmetric tridiagonal (diag, off), ascending.

    Each root is isolated by bisection on Sturm counts from a Gershgorin
    bracket; the returned values are the bracket midpoints.  Sixty halvings
    leave each bracket 2^-60 of the Gershgorin span wide, below one ulp of
    the largest eigenvalue in magnitude, so the Sturm counts and not the
    iteration limit set the accuracy.
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
    # asymmetric padding keeps bisection midpoints off structurally special
    # shifts (e.g. 0 for a zero-diagonal matrix)
    lo = np.full(n, np.min(diag - radius) - 2.13e-3 * span)
    hi = np.full(n, np.max(diag + radius) + 0.97e-3 * span)
    targets = np.arange(1, n + 1)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        counts = sturm_counts(diag, off, mid)
        below = counts >= targets  # at least k+1 eigenvalues below mid
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
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


def golub_welsch(diag: np.ndarray, off: np.ndarray, total_mass: float = 1.0):
    """Quadrature nodes and weights of the measure encoded by a Jacobi matrix.

    Nodes are the eigenvalues; each weight is total_mass times the squared
    first component of the corresponding unit eigenvector.
    """
    nodes = eigenvalues(diag, off)
    weights = total_mass * first_component_squared(diag, off, nodes)
    return nodes, weights
