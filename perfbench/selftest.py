"""Show that every output check passes on real CLI output and flags a
deliberately perturbed copy of it.

    python3 perfbench/selftest.py [--seed N]      (from the repository root)

Runs one round of each workload through the CLI, then for each kind of
output applies small perturbations (a value moved by 1e-6 relative, a
coordinate by 1e-9, a band entry leaked outside the band, a residual pushed
over its tolerance, ...) and requires the check to raise CheckError with the
message of the sub-check the perturbation targets.  Exits 1 if a real output
is rejected or a perturbation goes unnoticed.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import random
import sys

import numpy as np

import checks
from checks import CheckError
from run import RESULTS, ROOT, cli_argv, run_proc
from workloads import WORKLOADS

failures: list = []


def _csv_text(header: str, rows: np.ndarray) -> str:
    return header + "\n" + "".join(",".join(format(v, ".17g") for v in r) + "\n"
                                   for r in rows)


def expect(label: str, fn, *args, match: str | None = None) -> None:
    """fn(*args) must raise CheckError (mentioning `match` when given)."""
    try:
        fn(*args)
    except CheckError as exc:
        if match is None or match in str(exc):
            print(f"  flagged   {label}: {exc}")
            return
        failures.append(f"{label}: flagged by the wrong sub-check: {exc}")
        print(f"  WRONG     {label}: {exc}")
        return
    failures.append(f"{label}: not flagged")
    print(f"  MISSED    {label}")


def verify_cases(op, text):
    rep = json.loads(text)

    def edit(fn):
        r = copy.deepcopy(rep)
        fn(r)
        return json.dumps(r)

    def over_tol(r):
        c = r["checks"][0]
        c["max_residual"] = 2 * c["tol"] + 1e-300

    def drop(r):
        r["checks"].pop()
        r["n_checks"] -= 1

    def rename(r):
        r["checks"][3]["name"] += "_x"

    def nan(r):
        r["checks"][5]["max_residual"] = float("nan")

    def unpassed(r):
        r["checks"][7]["passed"] = False

    yield "residual over tol, passed kept true", edit(over_tol), "> tol"
    yield "check dropped", edit(drop), "expected"
    yield "check renamed", edit(rename), "names differ"
    yield "residual NaN", edit(nan), "> tol"
    yield "check reported failed", edit(unpassed), "reported as failed"


def grid_cases(op, text, header="x,y,re,im"):
    rows = checks.parse_csv(text, header)
    sample = checks.sample_indices(op, len(rows))
    full = op.kind == "kernel" and op.params["s"] in (0, 1) or \
        op.kind == "symbol" and op.params["operator"] == "AH" and op.params["s"] == 0
    hit = len(rows) // 2 if full else sample[0]
    miss = next(i for i in range(len(rows)) if i not in sample)

    r = rows.copy()
    r[hit, 2] += 1e-6 * max(1.0, abs(r[hit, 2]))
    yield "value moved by 1e-6 relative", _csv_text(header, r), "|diff|"
    r = rows.copy()
    r[hit + 1, 0] += 1e-9
    yield "x coordinate moved by 1e-9", _csv_text(header, r), "coordinates"
    yield "last row dropped", _csv_text(header, rows[:-1]), "grid rows"
    if op.kind == "symbol" and op.params["operator"] == "Aq2":
        r = rows.copy()
        r[miss, 3] = 1e-6
        yield "A_q2 symbol given an imaginary part", _csv_text(header, r), "not real"
        r = rows.copy()
        r[miss, 2] = -1e-3
        yield "A_q2 symbol made negative", _csv_text(header, r), "negative"


def eigen_cases(op, text):
    rows = checks.parse_csv(text, "index,eigenvalue")
    n = len(rows)
    r = rows.copy()
    r[0, 1] += 1e-9
    yield "one eigenvalue moved by 1e-9", _csv_text("index,eigenvalue", r), "symmetry"
    r = rows.copy()
    r[n // 4, 1] -= 1e-9
    r[n - 1 - n // 4, 1] += 1e-9
    want = "hermgauss" if op.params["s"] == 0 else "eigvalsh"
    yield "symmetric pair moved by 1e-9", _csv_text("index,eigenvalue", r), want
    yield "last eigenvalue dropped", _csv_text("index,eigenvalue", rows[:-1]), "indices"


def measure_cases(op, text):
    head = "node,weight"
    rows = checks.parse_csv(text, head)
    x = rows[:, 0]
    n = len(rows)
    r = rows.copy()
    r[n // 2, 1] = -r[n // 2, 1]
    yield "weight made negative", _csv_text(head, r), "nonpositive"
    r = rows.copy()
    r[n // 4, 0] -= 1e-9
    r[n - 1 - n // 4, 0] += 1e-9
    yield "node pair moved by 1e-9", _csv_text(head, r), "nodes"
    r = rows.copy()
    r[:, 1] *= 1 + 1e-9
    yield "weights scaled by 1 + 1e-9", _csv_text(head, r), "moment 0"
    mid = n // 2
    i, j, k = mid, mid + 3, mid + 6
    r = rows.copy()
    d = 1e-6 * r[i, 1]
    r[i, 1] += d
    r[j, 1] -= d
    yield "mass moved between two nodes", _csv_text(head, r), "moment 2"
    # a move that keeps the zeroth and second moments but not the fourth
    a = np.array([[1.0, 1.0, 1.0], [x[i] ** 2, x[j] ** 2, x[k] ** 2]])
    delta = np.linalg.svd(a)[2][-1] * 1e-4 * rows[i, 1]
    r = rows.copy()
    r[[i, j, k], 1] += delta
    yield "mass moved keeping moments 0 and 2", _csv_text(head, r), "moment 4"


def operator_cases(op, text):
    n = op.params["n"]
    m = checks.parse_operator_csv(text, n)

    def to_text(mat):
        cells = np.empty((n, 2 * n))
        cells[:, 0::2] = mat.real
        cells[:, 1::2] = mat.imag
        return "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in cells)

    band = np.argwhere(np.abs(m) > 0)[len(np.argwhere(np.abs(m) > 0)) // 2]
    p = m.copy()
    p[tuple(band)] *= 1 + 1e-9
    yield "band entry moved by 1e-9 relative", to_text(p), "entries off"
    p = m.copy()
    p[0, n - 1] = 1e-300
    yield "entry leaked outside the band", to_text(p), "outside the band"
    if op.params["operator"] == "P":
        yield "P with the other sector's sign", to_text(-m), "entries off"


def table_cases(op, text):
    lines = text.splitlines()
    head = lines[0].split(",")

    def edit(row, col, delta):
        out = [ln.split(",") for ln in lines]
        c = head.index(col)
        out[row + 1][c] = format(float(out[row + 1][c]) + delta, ".17g")
        return "\n".join(",".join(r) for r in out) + "\n"

    yield "ground_direct moved by 1e-9", edit(2, "ground_direct", 1e-9), "ground_direct"
    yield "ground_substituted moved", edit(1, "ground_substituted", 1e-9), "ground_substituted"
    yield "first_gap_direct moved", edit(3, "first_gap_direct", 1e-9), "first_gap_direct"
    yield "first_gap_substituted moved", edit(4, "first_gap_substituted", -1e-9), "first_gap_substituted"
    yield "infimum moved by 2e-3", edit(0, "infimum_quantized_q2", 2e-3), "infimum"
    yield "last row dropped", "\n".join(lines[:-1]) + "\n", "s = 0..s_max"


PERTURB = {"verify": verify_cases, "kernel": grid_cases, "symbol": grid_cases,
           "eigen": eigen_cases, "measure": measure_cases,
           "operator": operator_cases, "table": table_cases}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    RESULTS.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for workload, make in WORKLOADS.items():
        ops = make(random.Random(f"{workload}:{args.seed}"))
        results = [run_proc(cli_argv(op), env) for op in ops]
        peers: dict = {}
        for op, r in zip(ops, results):
            label = " ".join(op.argv)
            if r.rc != 0:
                if not op.known_fault:
                    failures.append(f"{label}: exit {r.rc}")
                continue
            print(label)
            try:
                if op.kind == "operator":
                    checks.check_operator(op, r.stdout, peers)
                else:
                    checks.CHECKS[op.kind](op, r.stdout)
            except CheckError as exc:
                failures.append(f"{label}: real output rejected: {exc}")
                continue
            print("  accepted  real output")
            for what, bad, match in PERTURB[op.kind](op, r.stdout):
                expect(what, checks.CHECKS[op.kind], op, bad, match=match)
        if peers:
            ref = next(op for op in ops if op.kind == "operator")
            s, eps = ref.params["s"], ref.params["epsilon"]
            print("[Q,P] commutator")
            checks.check_commutator(peers["Q"], peers["P"], s, eps)
            print("  accepted  real output")
            q = peers["Q"].copy()
            q[3, 4] *= 1 + 1e-6
            expect("Q entry moved by 1e-6 relative", checks.check_commutator,
                   q, peers["P"], s, eps, match="[Q,P]")
            expect("P of the other sector", checks.check_commutator,
                   peers["Q"], -peers["P"], s, eps, match="[Q,P]")
    print(f"{len(failures)} problem(s)")
    for f in failures:
        print("  " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
