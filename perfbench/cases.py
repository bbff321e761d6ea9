"""Fixed-size layer cases, timed from outside the program after a warm-up.

    python perfbench/cases.py      (from the repository root)

Prints one JSON object {case name: value}.  Times are the median
over repetitions of the per-call wall time; calls of a few microseconds are
timed in batches.  The `peak_mb` cases are the tracemalloc peak of one call,
taken in a separate call so tracing does not slow the timed ones.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

from hermquant import basis, matrices, quadrature, quantize, spectral, specfun, tridiag  # noqa: E402

X60 = np.linspace(0.0, 12.0, 60)


def _q_jacobi(n: int):
    return np.zeros(n), np.sqrt((np.arange(1, n) + 1) / 2.0)


def timed(fn, reps: int, batch: int = 1) -> float:
    fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples)


def peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def cases() -> dict:
    out = {}
    for s in (4, 8):
        out[f"case.laguerre.scalar.s{s}"] = timed(lambda: specfun.laguerre(s, 3, 1.7), 7, 400)
        out[f"case.laguerre.array60.s{s}"] = timed(lambda: specfun.laguerre(s, 3, X60), 7, 200)
    for n in (20, 60):
        out[f"case.gauss_laguerre_rule.n{n}"] = timed(lambda: quadrature.gauss_laguerre_rule(n), 5)
    for n in (40, 200, 300):
        d, e = _q_jacobi(n)
        out[f"case.tridiag.eigenvalues.n{n}"] = timed(lambda: tridiag.eigenvalues(d, e), 5)
        out[f"case.tridiag.golub_welsch.n{n}"] = timed(lambda: tridiag.golub_welsch(d, e), 5)
    with warnings.catch_warnings():
        # the Newton polish emits overflow warnings at n = 300
        warnings.simplefilter("ignore", RuntimeWarning)
        for n in (100, 300):
            out[f"case.spectral.eigenvalues.n{n}"] = timed(lambda: spectral.eigenvalues(n, 1), 3)
    for n in (50, 200):
        out[f"case.build_Q.N{n}"] = timed(lambda: matrices.build_Q(1, n), 3)
        out[f"case.build_Q.N{n}.peak_mb"] = peak_mb(lambda: matrices.build_Q(1, n))
    out["case.quantize_numeric.N12"] = timed(
        lambda: quantize.quantize_numeric(quantize.Monomial(2, 1), 1, "L", 12), 5)
    for s in (1, 8):
        out[f"case.basis.kernel.s{s}"] = timed(
            lambda: basis.kernel(s, 0.7 + 0.4j, -0.3 + 0.5j), 7, 50)
    return out


if __name__ == "__main__":
    print(json.dumps(cases()))
