"""Structured results for identity checks and verification sweeps."""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verified identity.

    max_residual is the worst deviation seen; tol = 0.0 marks checks done in
    exact arithmetic, where anything nonzero is a failure.  witness names the
    parameters that produced the worst residual (only kept on failure or when
    informative).
    """

    name: str
    n_checked: int
    max_residual: float
    tol: float
    passed: bool
    witness: str | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        # numpy scalars serialize poorly; normalize at the boundary
        d["n_checked"] = int(d["n_checked"])
        d["max_residual"] = float(d["max_residual"])
        d["tol"] = float(d["tol"])
        d["passed"] = bool(d["passed"])
        return d

