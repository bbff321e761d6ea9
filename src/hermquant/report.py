"""Structured results for identity checks and verification sweeps.

worst_case is the one place the cases of a check become its residual, and
CheckResult the one place a verdict is decided: a check passes iff
max_residual <= tol, so a NaN residual fails, and tol = 0.0 marks checks done
in exact arithmetic, where anything nonzero is a failure.  The witness names
the parameters behind the worst residual and is kept only on a failure.  The
margin max_residual / tol says how much of its tolerance a check used; it is
None (JSON null) for an exact check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verified identity over n_checked cases.

    A boolean check reports max_residual = float(not ok) with tol = 0.0.
    """

    name: str
    max_residual: float
    tol: float
    n_checked: int
    witness: str | None = None

    def __post_init__(self):
        if self.passed:
            object.__setattr__(self, "witness", None)

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.tol)

    def to_dict(self) -> dict:
        # numpy scalars serialize poorly; normalize at the boundary
        margin = float(self.max_residual / self.tol) if self.tol else None
        return {"name": self.name, "n_checked": int(self.n_checked),
                "max_residual": float(self.max_residual),
                "tol": float(self.tol), "margin": margin,
                "passed": self.passed, "witness": self.witness}


def worst_case(name: str, tol: float, cases,
               n_checked: int | None = None) -> CheckResult:
    """The check over an iterable of (residual, witness) cases.

    Its residual is the largest case residual, a NaN counting as larger than
    any number (0.0 when there are no cases), and its witness that of the
    last case reaching it.  n_checked is the number of cases unless given:
    a caller whose one case covers many comparisons passes their count.
    """
    worst, witness, count = -math.inf, None, 0
    for count, (res, wit) in enumerate(cases, 1):
        if res >= worst or math.isnan(res):  # no number is >= a NaN worst
            worst, witness = res, wit
    return CheckResult(name, worst if count else 0.0, tol,
                       count if n_checked is None else n_checked, witness)
