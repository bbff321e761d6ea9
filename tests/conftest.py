import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hermquant.specfun import laguerre_coeffs

# scripts/mutants.py, whose sites() and mutate() the mutation tests apply
_spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parents[1] / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


def rel_err(a, b, floor: float = 1.0) -> float:
    """|a - b| relative to the larger magnitude (or floor for tiny values)."""
    return abs(a - b) / max(abs(a), abs(b), floor)


def laguerre_scale(s: int, alpha, x: float) -> float:
    """sum_m |c_m| x^m over the coefficients of L_s^(alpha): the size of the
    terms whose sum is the value, so rounding errors scale with it."""
    return sum(abs(float(c)) * x**m
               for m, c in enumerate(laguerre_coeffs(s, alpha)))
