"""Symmetric tridiagonal eigenvalue machinery.

Sturm-count multisection gives the eigenvalues.  Each round cuts every
root's bracket into eighths with one Sturm sweep vectorized over all roots
and section points, and the rounds narrow the brackets to 2^-60 of the
Gershgorin span.  Several leading sections of one matrix share their sweeps:
the rows are swept once for all of them, largest section first, and each
count stops at its own section's last row.  Up to order 2048 the brackets
start narrow: dense LAPACK estimates, each widened to 2^-45 of the span,
need 5 rounds where a Gershgorin bracket needs 20, and the first round's
sweep also takes the Sturm counts at their ends that certify them.  The
float Sturm counts are rounded: each is exact for a matrix within a few
u*||T|| of T (u = 2^-53), so that backward error, and not the bracket
width, bounds an eigenvalue's error (Demmel, Applied Numerical Linear
Algebra, section 5.3).  Against exact integer counts the Jacobi matrices of
Q come out up to 1.84 ulp off, and 10 ulp for an eigenvalue near 0.
Golub-Welsch weights come from the three-term recurrence at those nodes.
Everything is deterministic: fixed round counts, no randomness."""

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
_FRACTIONS = np.arange(1, _SECTIONS) / _SECTIONS
_TINY = np.finfo(float).tiny


def sturm_counts(diag: np.ndarray, off: np.ndarray, xs: np.ndarray,
                 sizes=None) -> np.ndarray:
    """Number of eigenvalues strictly below each shift in xs, of T or of
    one of its leading sections.

    sizes[i], when given, is the order of the leading section whose
    eigenvalues xs[i] counts, nonincreasing along xs; by default every shift
    counts for all of T.  Counts negative pivots of the LDL^T factorization
    of T - x*I, with each section's own pivmin safeguard against division
    blowup.  The sweep runs row by row in place on preallocated vectors the
    size of xs and adds each row's negative pivots to the count; the shifts
    still sweeping at row k are those of sections longer than k, a prefix of
    xs, so each count stops at its own section's last row.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    sizes = (np.full(xs.shape, diag.size) if sizes is None
             else np.asarray(sizes))
    if sizes.size and (sizes[0] > diag.size or sizes[-1] < 1
                       or np.any(sizes[1:] > sizes[:-1])):
        raise ValueError("section orders must not increase along the "
                         f"shifts and must lie in 1..{diag.size}")
    off2 = off * off
    # pivmin at the underflow scale, as in LAPACK; a larger floor miscounts at
    # shifts that are exact eigenvalues of leading principal minors.  peak[m]
    # is the largest squared off-diagonal of the m-section
    peak = np.concatenate(([0.0, 0.0], np.maximum.accumulate(off2)))
    pivmin = _TINY * np.maximum(1.0, peak[sizes])
    neg_pivmin = -pivmin
    q = np.subtract(diag[0], xs)
    work = np.empty_like(q)
    mask = np.empty(q.shape, dtype=bool)
    count = np.zeros(q.shape, dtype=np.int64)
    # for each m in ends, the first m shifts are those of the sections of
    # order >= sizes[m - 1], from the shortest section's order up
    starts = np.flatnonzero(sizes[:-1] != sizes[1:]) + 1
    ends = [sizes.size] + starts[::-1].tolist() if sizes.size else []
    row = 0
    with np.errstate(over="ignore", divide="ignore"):
        for m in ends:
            # rows row..stop-1 sweep the first m shifts
            stop = int(sizes[m - 1])
            qv, wv, mv, cv = q[:m], work[:m], mask[:m], count[:m]
            xv, pv, nv = xs[:m], pivmin[:m], neg_pivmin[:m]
            for k in range(row, stop):
                if k:
                    # q <- (diag[k] - x) - off2[k-1] / q
                    np.subtract(diag[k], xv, out=wv)
                    np.divide(off2[k - 1], qv, out=qv)
                    np.subtract(wv, qv, out=qv)
                np.abs(qv, out=wv)
                np.less(wv, pv, out=mv)
                np.copyto(qv, nv, where=mv)
                np.less(qv, 0.0, out=mv)
                cv += mv
            row = stop
    return count


def _estimates(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalue estimates from LAPACK on the dense matrix."""
    n = diag.size
    dense = np.zeros((n, n))
    dense.flat[::n + 1] = diag
    dense.flat[n::n + 1] = off  # eigvalsh reads the lower triangle
    return np.linalg.eigvalsh(dense)


def _narrow(lo, shifts, hi, counts, k):
    """One multisection step: root k of its section lies in the eighth of
    [lo, hi] between edges j and j + 1, where j counts the section points
    `shifts` with fewer than k + 1 eigenvalues below them."""
    edges = np.column_stack((lo, shifts, hi))
    j = (counts < k[:, None] + 1).sum(axis=1)
    rows = np.arange(lo.size)
    return edges[rows, j], edges[rows, j + 1]


def _round(diag, off, lo, hi, size, k):
    """One multisection round over the brackets [lo, hi]: a single Sturm
    sweep at their 7 interior points."""
    shifts = lo[:, None] + (hi - lo)[:, None] * _FRACTIONS
    counts = sturm_counts(diag, off, shifts.ravel(),
                          np.repeat(size, _SECTIONS - 1))
    return _narrow(lo, shifts, hi, counts.reshape(shifts.shape), k)


def section_eigenvalues(diag: np.ndarray, off: np.ndarray, sizes) -> list:
    """Eigenvalues of the leading sections of (diag, off) of the given
    orders, ascending, one array per order in the order given.

    Each root is isolated by multisection on Sturm counts: every round
    evaluates one Sturm sweep at the 7 interior points lo + j (hi - lo) / 8
    of the brackets of all sections at once and keeps, for root k of its
    section, the eighth that holds it.  The sections are swept largest
    first, so at each row the shifts still sweeping are a prefix (see
    `sturm_counts`).  Up to order 2048 root k of an m-section starts from
    the LAPACK estimate widened to [est - h, est + h], 2h = 2^-45 of the
    section's Gershgorin span, and the first round's sweep also takes the
    counts at both ends, which certify it (count(est - h) <= k <
    count(est + h)); a root whose certificate fails restarts from the
    Gershgorin bracket with one more sweep.  The round count of a section
    follows from its widest start: 5 rounds when every seed is certified,
    else 20.  Either way each bracket ends 2^-60 of the Gershgorin span
    wide, below one ulp of the largest eigenvalue in magnitude, so the
    Sturm counts and not the estimates or the round limit set the accuracy:
    a backward error of a few u*||T|| (see the module docstring), since
    the float counts are rounded.  The returned values are the bracket
    midpoints.  Each section keeps its own start, rounds and pivmin, so its
    spectrum is bit for bit that of a call with it alone.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    sizes = [int(m) for m in sizes]
    if any(not 0 <= m <= diag.size for m in sizes):
        raise ValueError(f"section orders {sizes} must lie in 0..{diag.size}")
    out = [diag[:m].copy() for m in sizes]  # orders 0 and 1 are done
    order = sorted((i for i, m in enumerate(sizes) if m > 1),
                   key=lambda i: -sizes[i])
    if not order:
        return out
    gershgorin, seeded, lo, hi = [], [], [], []
    for i in order:
        m = sizes[i]
        d, o = diag[:m], off[:m - 1]
        radius = np.zeros(m)
        radius[:-1] += np.abs(o)
        radius[1:] += np.abs(o)
        span = max(np.max(radius), 1.0)
        # asymmetric padding keeps section points off structurally special
        # shifts (e.g. 0 for a zero-diagonal matrix)
        g = (np.min(d - radius) - 2.13e-3 * span,
             np.max(d + radius) + 0.97e-3 * span)
        width = g[1] - g[0]
        gershgorin.append(g)
        seeded.append(m <= _SEED_MAX_N and bool(np.isfinite(width)))
        if seeded[-1]:
            half = 0.5 * width * float(_SECTIONS) ** (_SEEDED_ROUNDS - _ROUNDS)
            est = _estimates(d, o)
            lo.append(est - half)
            hi.append(est + half)
        else:
            lo.append(np.full(m, g[0]))
            hi.append(np.full(m, g[1]))
    # one entry per root of every section, largest section first: root k of
    # the section of order size
    orders = np.array([sizes[i] for i in order])
    section = np.repeat(np.arange(len(order)), orders)
    ends = np.cumsum(orders)
    k = np.arange(section.size) - (ends - orders)[section]
    size, seeded = orders[section], np.array(seeded)[section]
    g_lo, g_hi = np.array(gershgorin).T[:, section]
    lo, hi = np.concatenate(lo), np.concatenate(hi)

    # round 1: one sweep at the interior points of every bracket and at both
    # ends of every seed bracket
    shifts = lo[:, None] + (hi - lo)[:, None] * _FRACTIONS
    points = np.column_stack((lo, shifts, hi))
    swept = np.ones(points.shape, dtype=bool)
    swept[~seeded, 0] = swept[~seeded, -1] = False
    counts = np.zeros(points.shape, dtype=np.int64)
    counts[swept] = sturm_counts(diag, off, points[swept],
                                 np.repeat(size, swept.sum(axis=1)))
    # seed k holds root k iff at most k eigenvalues lie below its lower end
    # and more than k below its upper end
    certified = seeded & (counts[:, 0] <= k) & (k < counts[:, -1])
    lo, hi = _narrow(lo, shifts, hi, counts[:, 1:-1], k)
    failed = np.flatnonzero(seeded & ~certified)
    if failed.size:
        lo[failed], hi[failed] = _round(diag, off, g_lo[failed],
                                        g_hi[failed], size[failed],
                                        k[failed])
    uncertain = np.bincount(section[failed], minlength=len(order)) > 0
    rounds = np.where(seeded & ~uncertain[section], _SEEDED_ROUNDS, _ROUNDS)
    for r in range(1, rounds.max()):
        live = np.flatnonzero(rounds > r)
        lo[live], hi[live] = _round(diag, off, lo[live], hi[live],
                                    size[live], k[live])
    for i, values in zip(order, np.split(0.5 * (lo + hi), ends[:-1])):
        out[i] = values
    return out


def eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """All eigenvalues of the symmetric tridiagonal (diag, off), ascending:
    the one-section case of `section_eigenvalues`."""
    diag = np.asarray(diag, dtype=float)
    return section_eigenvalues(diag, off, [diag.size])[0]


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
