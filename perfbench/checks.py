"""Output checks computed apart from the program.

Each check takes the Op and the text the CLI wrote to stdout and raises
CheckError when the output is wrong.  The references are closed forms, numpy
routines (`eigvalsh`, `hermgauss`) on matrices built here, or 30-digit mpmath
series from the defining formulas; nothing here imports hermquant.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import mpmath
import numpy as np

from workloads import GRID_POINTS

KERNEL_TOL = 1e-8          # series truncated at --tol 1e-10 relative to max(|K|, 1)
SYMBOL_TOL = 1e-9
SPECTRUM_TOL = 1e-12       # relative to max |lambda|
ENTRY_TOL = 1e-13          # relative to the largest closed-form entry
COMMUTATOR_TOL = 1e-9
TABLE_TOL = 1e-12
INFIMUM_TOL = 1e-3
MPMATH_SAMPLES = 12
_NAMES_FILE = Path(__file__).with_name("verify_check_names.txt")


class CheckError(Exception):
    """An output that disagrees with the independent computation."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def parse_csv(text: str, header: str) -> np.ndarray:
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == header,
             f"expected header {header!r}, got {lines[:1]!r}")
    ncol = header.count(",") + 1
    vals = np.array(",".join(lines[1:]).split(","), dtype=float)
    _require(vals.size == ncol * (len(lines) - 1), "ragged CSV rows")
    return vals.reshape(-1, ncol)


def check_verify(op, text: str) -> None:
    rep = json.loads(text)
    checks = rep["checks"]
    want = _NAMES_FILE.read_text().split()
    _require(rep["n_checks"] == len(checks) == len(want),
             f"{len(checks)} checks, expected {len(want)}")
    _require(sorted(c["name"] for c in checks) == want,
             "check names differ from the recorded list")
    for c in checks:
        ok = math.isfinite(c["max_residual"]) and c["max_residual"] <= c["tol"]
        _require(ok, f"{c['name']}: residual {c['max_residual']} > tol {c['tol']}")
        _require(c["passed"] is True, f"{c['name']} reported as failed")
    _require(rep["all_passed"] is True, "report does not claim all_passed")


def _grid(op) -> np.ndarray:
    e = op.params["extent"]
    pts = np.linspace(-e, e, GRID_POINTS)
    return np.array([(x, y) for x in pts for y in pts])


def _check_coords(op, rows: np.ndarray) -> None:
    want = _grid(op)
    _require(rows.shape[0] == want.shape[0],
             f"{rows.shape[0]} grid rows, expected {want.shape[0]}")
    err = np.abs(rows[:, :2] - want).max()
    _require(err <= 1e-14 * op.params["extent"], f"grid coordinates off by {err:.3g}")


def sample_indices(op, n_rows: int) -> list:
    """Grid rows compared against mpmath; drawn from the op's own seed."""
    return sorted(random.Random(op.params["sample_seed"]).sample(range(n_rows),
                                                                 MPMATH_SAMPLES))


def mp_kernel(s: int, z: complex, zp: complex):
    """K_s(z, zbar') = sum_n s!/(s+n)! (zbar z')^n L_s^(n)(|z|^2) L_s^(n)(|z'|^2)."""
    with mpmath.workdps(30):
        zz = mpmath.mpc(z.real, z.imag)
        zq = mpmath.mpc(zp.real, zp.imag)
        w = mpmath.conj(zz) * zq
        t, tp = abs(zz) ** 2, abs(zq) ** 2
        total = mpmath.mpc(0)
        small = 0
        for n in range(400):
            term = (mpmath.factorial(s) / mpmath.factorial(s + n) * w ** n
                    * mpmath.laguerre(s, n, t) * mpmath.laguerre(s, n, tp))
            total += term
            small = small + 1 if abs(term) < mpmath.mpf(10) ** -28 * max(1, abs(total)) else 0
            if small >= 3:
                return complex(total)
    raise CheckError("reference kernel series did not converge")


def check_kernel(op, text: str) -> None:
    rows = parse_csv(text, "x,y,re,im")
    _check_coords(op, rows)
    s, zp = op.params["s"], op.params["zprime"]
    z = rows[:, 0] + 1j * rows[:, 1]
    got = rows[:, 2] + 1j * rows[:, 3]
    if s in (0, 1):
        w = np.conj(z) * zp
        want = np.exp(w)
        if s == 1:
            want = want * (1.0 - np.abs(z - zp) ** 2) - z * np.conj(zp)
        idx = range(len(z))
    else:
        idx = sample_indices(op, len(z))
        want = {i: mp_kernel(s, complex(z[i]), zp) for i in idx}
    for i in idx:
        err = abs(got[i] - want[i])
        _require(err <= KERNEL_TOL * max(1.0, abs(want[i])),
                 f"kernel s={s} at z={z[i]:.6g}: |diff| {err:.3g}")


def mp_symbol(name: str, s: int, z: complex, dim: int):
    """<z; s|A|z; s> on the dim-section from the coherent-state coefficients

        c_n = (-1)^s sqrt(s!/(s+n)!) z^n L_s^(n)(|z|^2) / sqrt(N_s(|z|^2)),

    with N_s summed from its defining series, A_H diagonal n + 2s + 1 and
    A_{q^2} adding the band sqrt((n+s+1)(n+s+2))/2 on |n><n+2| + h.c.
    """
    with mpmath.workdps(30):
        zz = mpmath.mpc(z.real, z.imag)
        t = abs(zz) ** 2
        norm = mpmath.mpf(0)
        raw = []
        small = 0
        for n in range(1000):
            a = (mpmath.sqrt(mpmath.factorial(s) / mpmath.factorial(s + n))
                 * zz ** n * mpmath.laguerre(s, n, t))
            if n < dim:
                raw.append(a)
            norm += abs(a) ** 2
            small = small + 1 if abs(a) ** 2 < mpmath.mpf(10) ** -28 * norm else 0
            if n >= dim and small >= 3:
                break
        else:
            raise CheckError("reference normalization series did not converge")
        c = [a / mpmath.sqrt(norm) for a in raw]
        val = mpmath.fsum(abs(c[n]) ** 2 * (n + 2 * s + 1) for n in range(dim))
        if name == "Aq2":
            val += 2 * mpmath.re(mpmath.fsum(
                mpmath.conj(c[n]) * c[n + 2] * mpmath.sqrt((n + s + 1) * (n + s + 2)) / 2
                for n in range(dim - 2)))
        return complex(val)


def check_symbol(op, text: str) -> None:
    rows = parse_csv(text, "x,y,re,im")
    _check_coords(op, rows)
    name, s = op.params["operator"], op.params["s"]
    z = rows[:, 0] + 1j * rows[:, 1]
    got = rows[:, 2] + 1j * rows[:, 3]
    if name == "Aq2":
        _require(bool(np.all(rows[:, 2] >= 0.0)), "A_q2 symbol negative")
        im = np.abs(rows[:, 3]).max()
        _require(bool(np.all(np.abs(rows[:, 3]) <= 1e-12 * np.maximum(1.0, rows[:, 2]))),
                 f"A_q2 symbol not real: |im| up to {im:.3g}")
    if name == "AH" and s == 0:
        want = np.abs(z) ** 2 + 1.0
        idx = range(len(z))
    else:
        idx = sample_indices(op, len(z))
        want = {i: mp_symbol(name, s, complex(z[i]), op.params["dim"]) for i in idx}
    for i in idx:
        err = abs(got[i] - want[i])
        _require(err <= SYMBOL_TOL * max(1.0, abs(want[i])),
                 f"{name} symbol s={s} at z={z[i]:.6g}: |diff| {err:.3g}")


def jacobi_offdiag(n: int, s: int) -> np.ndarray:
    """Off-diagonal sqrt((k+s)/2), k = 1..n-1, of the position operator."""
    return np.sqrt((np.arange(1, n) + s) / 2.0)


def jacobi_eigvals(n: int, s: int) -> np.ndarray:
    off = jacobi_offdiag(n, s)
    return np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))


def _close(got, want, scale, what) -> None:
    err = np.abs(np.asarray(got) - np.asarray(want)).max()
    _require(err <= SPECTRUM_TOL * scale, f"{what}: off by {err:.3g} (scale {scale:.3g})")


def check_eigen(op, text: str) -> None:
    n, s = op.params["n"], op.params["s"]
    rows = parse_csv(text, "index,eigenvalue")
    _require(rows.shape[0] == n and np.array_equal(rows[:, 0], np.arange(n)),
             f"expected indices 0..{n - 1}")
    lam = rows[:, 1]
    scale = np.abs(lam).max()
    _close(lam, -lam[::-1], scale, "spectrum symmetry")
    if s == 0:
        _close(lam, np.polynomial.hermite.hermgauss(n)[0], scale,
               "eigenvalues vs hermgauss")
    _close(lam, jacobi_eigvals(n, s), scale, "eigenvalues vs eigvalsh")


def check_measure(op, text: str) -> None:
    n, s = op.params["n"], op.params["s"]
    rows = parse_csv(text, "node,weight")
    _require(rows.shape[0] == n, f"{rows.shape[0]} nodes, expected {n}")
    x, w = rows[:, 0], rows[:, 1]
    _require(bool(np.all(w > 0.0)), "nonpositive weight")
    _close(x, jacobi_eigvals(n, s), np.abs(x).max(), "nodes vs eigvalsh")
    c1sq, c2sq = (1 + s) / 2.0, (2 + s) / 2.0      # squared off-diagonals c_1^2, c_2^2
    for k, want in ((0, 1.0), (2, c1sq), (4, c1sq * c1sq + c1sq * c2sq)):
        got = math.fsum(w * x ** k)
        _require(abs(got - want) <= 1e-11 * want, f"moment {k}: {got!r} vs {want!r}")


def operator_reference(name: str, s: int, n: int, epsilon: str) -> np.ndarray:
    """Closed-form matrix of Q, P or A_{q^2} on the n-section of sector s."""
    m = np.zeros((n, n), dtype=complex)
    k = np.arange(n - 1)
    w = np.sqrt((s + k + 1) / 2.0)
    if name == "Q":
        m[k, k + 1] = w
        m[k + 1, k] = w
    elif name == "P":
        sgn = -1.0 if epsilon == "L" else 1.0      # (-1)^eps
        m[k, k + 1] = 1j * sgn * w
        m[k + 1, k] = -1j * sgn * w
    else:
        d = np.arange(n)
        m[d, d] = d + 2 * s + 1
        k2 = np.arange(n - 2)
        b = np.sqrt((k2 + s + 1) * (k2 + s + 2)) / 2.0
        m[k2, k2 + 2] = b
        m[k2 + 2, k2] = b
    return m


def parse_operator_csv(text: str, n: int) -> np.ndarray:
    vals = np.array(text.replace("\n", ",").rstrip(",").split(","), dtype=float)
    _require(vals.size == 2 * n * n, f"{vals.size} cells, expected {2 * n * n}")
    return (vals[0::2] + 1j * vals[1::2]).reshape(n, n)


def check_operator(op, text: str, peers: dict | None = None) -> None:
    p = op.params
    got = parse_operator_csv(text, p["n"])
    want = operator_reference(p["operator"], p["s"], p["n"], p["epsilon"])
    off_band = want == 0
    _require(bool(np.all(got[off_band] == 0)), "nonzero entry outside the band")
    err = np.abs(got - want).max()
    _require(err <= ENTRY_TOL * np.abs(want).max(), f"{p['operator']} entries off by {err:.3g}")
    if peers is not None:
        peers[p["operator"]] = got


def check_commutator(q: np.ndarray, p: np.ndarray, s: int, epsilon: str) -> None:
    """[Q, P] = (-1)^(eps+1) i (1 + s P_0) on the block that truncation leaves intact."""
    n = q.shape[0] - 1
    comm = (q @ p - p @ q)[:n, :n]
    want = np.eye(n, dtype=complex)
    want[0, 0] += s
    want *= 1j * (1.0 if epsilon == "L" else -1.0)
    err = np.abs(comm - want).max()
    _require(err <= COMMUTATOR_TOL, f"[Q,P] off by {err:.3g}")


def check_table(op, text: str) -> None:
    lines = text.splitlines()
    head = lines[0].split(",")
    rows = [dict(zip(head, ln.split(","))) for ln in lines[1:]]
    _require([int(r["s"]) for r in rows] == list(range(op.params["s_max"] + 1)),
             "table rows are not s = 0..s_max")
    for r in rows:
        s = int(r["s"])
        for col, want, tol in (("ground_direct", 2 * s + 1, TABLE_TOL),
                               ("ground_substituted", (s + 1) / 2, TABLE_TOL),
                               ("first_gap_direct", 1.0, TABLE_TOL),
                               ("first_gap_substituted", s / 2 + 1, TABLE_TOL),
                               ("infimum_quantized_q2", s + 0.5, INFIMUM_TOL)):
            got = float(r[col])
            _require(abs(got - want) <= tol, f"s={s} {col}: {got!r} vs {want!r}")


CHECKS = {
    "verify": check_verify,
    "kernel": check_kernel,
    "symbol": check_symbol,
    "eigen": check_eigen,
    "measure": check_measure,
    "operator": check_operator,
    "table": check_table,
}


def check_round(ops, outputs) -> list:
    """Check every op that exited 0; return a list of (argv, message) failures.

    outputs[i] is the stdout text of ops[i], or None for an op that failed.
    Q and P of one round share (s, N, eps), so their commutator is checked too.
    """
    bad = []
    peers: dict = {}
    for op, text in zip(ops, outputs):
        if text is None:
            continue
        try:
            if op.kind == "operator":
                check_operator(op, text, peers)
            else:
                CHECKS[op.kind](op, text)
        except (CheckError, ValueError, KeyError, IndexError) as exc:
            bad.append((" ".join(op.argv), f"{type(exc).__name__}: {exc}"))
    if "Q" in peers and "P" in peers:
        ref = next(op for op in ops if op.kind == "operator")
        try:
            check_commutator(peers["Q"], peers["P"], ref.params["s"], ref.params["epsilon"])
        except CheckError as exc:
            bad.append(("[Q,P]", str(exc)))
    return bad

