"""Seeded inputs for the three benchmark workloads.

A workload is a generator of rounds; a round is a fixed list of CLI
invocations whose arguments are drawn from a `random.Random` owned by the
run.  Every round of a workload has the same make-up (the same commands in the
same order, only their numeric arguments differ), so the share of failed
operations is the same in every run whatever the seed or the run length.

Argument ranges are kept narrow on purpose: per-round cost must not depend on
the seed, or run-to-run spread would measure the inputs instead of the code.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

GRID_POINTS = 41
KERNEL_SECTORS = (0, 1, 3, 8)        # s <= 6 takes the Fraction path, s = 8 the recurrence
SYMBOL_SECTORS = (0, 1, 3)
SYMBOL_OPERATORS = ("AH", "Aq2")
SYMBOL_DIM = 64                       # captures the coherent-state norm to far below 1e-9
# fails at this commit: the Newton polish overflows converting the exact
# characteristic polynomial to float (OverflowError, exit 1)
KNOWN_FAULT_ARGV = ("spectrum", "eigenvalues", "--s", "2", "--dim", "400",
                    "--format", "csv")


@dataclass
class Op:
    """One CLI invocation plus what the checks need to judge its output."""

    argv: list
    kind: str                 # selects the output check
    group: str                # breakdown metric the op's wall time feeds
    params: dict = field(default_factory=dict)
    points: int = 0           # grid points written, for the rate metrics
    known_fault: bool = False  # attempted and counted, but kept out of every metric


def fmt_complex(z: complex) -> str:
    """The CLI's 'a+bi' literal; repr keeps every digit of the parsed double."""
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _verify_round(rng) -> list:
    seed = rng.randrange(1, 2**31)
    return [Op(["verify", "--suite", "all", "--seed", str(seed)], "verify",
               "verify_sweep_s", {"seed": seed})]


def _phase_space_round(rng) -> list:
    extent = round(rng.uniform(1.9, 2.1), 6)
    # kernel series length grows with |z'|, so only its phase varies much
    zp = cmath.rect(rng.uniform(0.45, 0.55), rng.uniform(-math.pi, math.pi))
    zp = complex(round(zp.real, 6), round(zp.imag, 6))
    sample_seed = rng.randrange(2**31)
    pts = GRID_POINTS * GRID_POINTS
    ops = []
    for s in KERNEL_SECTORS:
        ops.append(Op(["export", "--object", "kernel-grid", "--s", str(s),
                       "--extent", repr(extent), f"--zprime={fmt_complex(zp)}",
                       "--grid-points", str(GRID_POINTS), "--format", "csv"],
                      "kernel", "kernel_points_per_s",
                      {"s": s, "extent": extent, "zprime": zp,
                       "sample_seed": sample_seed + s}, points=pts))
    for name in SYMBOL_OPERATORS:
        for s in SYMBOL_SECTORS:
            ops.append(Op(["export", "--object", "lower-symbol-scan",
                           "--operator", name, "--s", str(s),
                           "--extent", repr(extent),
                           "--grid-points", str(GRID_POINTS),
                           "--dim", str(SYMBOL_DIM), "--format", "csv"],
                          "symbol", "lower_symbol_points_per_s",
                          {"operator": name, "s": s, "extent": extent,
                           "dim": SYMBOL_DIM, "sample_seed": sample_seed + 10 * s},
                          points=pts))
    return ops


def _large_dim_round(rng) -> list:
    s_eig = rng.choice((1, 3))
    s_meas = rng.choice((0, 1, 2, 3))
    s_op = rng.randrange(0, 5)
    eps = rng.choice(("L", "R"))
    n_qp = rng.randrange(390, 401)
    n_aq2 = rng.randrange(300, 311)
    dim_table = rng.randrange(195, 206)
    ops = [
        Op(["spectrum", "eigenvalues", "--s", "0", "--dim", "100", "--format", "csv"],
           "eigen", "eigenvalues_s", {"s": 0, "n": 100}),
        Op(["spectrum", "eigenvalues", "--s", str(s_eig), "--dim", "300",
            "--format", "csv"], "eigen", "eigenvalues_s", {"s": s_eig, "n": 300}),
        Op(["spectrum", "measure", "--s", str(s_meas), "--dim", "300",
            "--format", "csv"], "measure", "measure_s", {"s": s_meas, "n": 300}),
    ]
    for name, dim in (("Q", n_qp), ("P", n_qp), ("Aq2", n_aq2)):
        ops.append(Op(["export", "--object", "operator", "--operator", name,
                       "--s", str(s_op), "--epsilon", eps, "--dim", str(dim),
                       "--format", "csv"], "operator", "operator_export_s",
                      {"operator": name, "s": s_op, "epsilon": eps, "n": dim}))
    ops.append(Op(["physics", "table", "--s-max", "4", "--dim", str(dim_table),
                   "--format", "csv"], "table", "spectrum_table_s",
                  {"s_max": 4, "n": dim_table}))
    ops.append(Op(list(KNOWN_FAULT_ARGV), "eigen", "eigenvalues_s",
                  {"s": 2, "n": 400}, known_fault=True))
    return ops


WORKLOADS = {
    "verify-sweep": _verify_round,
    "phase-space": _phase_space_round,
    "large-dim": _large_dim_round,
}

# the parts of round_s printed for each workload, with their units
BREAKDOWN = {
    "verify-sweep": {"verify_sweep_s": "s"},
    "phase-space": {"kernel_points_per_s": "points/s",
                    "lower_symbol_points_per_s": "points/s"},
    "large-dim": {"eigenvalues_s": "s", "measure_s": "s",
                  "operator_export_s": "s", "spectrum_table_s": "s"},
}
