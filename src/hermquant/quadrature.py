"""Quadrature over the phase plane in polar form.

All integrands in this package factor as (radial polynomial x exp(-t)) times
a trigonometric polynomial in the angle, so Gauss-Laguerre radially plus a
uniform angular grid integrates them to machine precision:

    integral d^2z/pi e^{-|z|^2} F(|z|^2, theta)
        = sum_i w_i * (1/M) sum_j F(u_i, theta_j)      (exact for poly F)

The uniform M-point rule on [0, 2pi) is exact for trig polynomials with all
frequencies strictly below M in magnitude.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tridiag


@dataclass(frozen=True)
class QuadratureRule:
    """Radial Gauss-Laguerre nodes/weights plus an angular point count."""

    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    angular_count: int = 1

    def __post_init__(self):
        if np.any(self.radial_weights <= 0):
            raise ValueError("radial weights must be positive")
        if self.angular_count < 1:
            raise ValueError("angular point count must be >= 1")
        self.radial_nodes.setflags(write=False)
        self.radial_weights.setflags(write=False)

    def angles(self) -> np.ndarray:
        m = self.angular_count
        return 2.0 * np.pi * np.arange(m) / m


def gauss_laguerre_rule(n_r: int, angular_count: int = 1) -> QuadratureRule:
    """Gauss-Laguerre rule for weight e^{-u} on [0, inf).

    Nodes/weights come from the Laguerre Jacobi matrix (diagonal 2k+1,
    off-diagonal k) via Golub-Welsch; exact for polynomials up to degree
    2*n_r - 1.  The radial part does not depend on the angular count, so it
    is built once per n_r per process, and every rule with that n_r shares
    the same read-only arrays.
    """
    if n_r < 1:
        raise ValueError("need at least one radial node")
    nodes, weights = _radial_rule(n_r)
    return QuadratureRule(nodes, weights, angular_count)


@functools.lru_cache(maxsize=None)
def _radial_rule(n_r: int) -> tuple:
    k = np.arange(n_r, dtype=float)
    diag = 2.0 * k + 1.0
    off = np.arange(1, n_r, dtype=float)
    nodes, weights = tridiag.golub_welsch(diag, off)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def rule_for(radial_degree: int, max_angular_freq: int) -> QuadratureRule:
    """Rule sized for a given radial polynomial degree and angular bandwidth.

    Radial count degree//2 + 8 gives exactness with margin; the angular count
    2*max_freq + 3 is odd and strictly above the bandwidth.
    """
    n_r = max(1, radial_degree // 2 + 8)
    m = 2 * max(0, max_angular_freq) + 3
    return gauss_laguerre_rule(n_r, m)


def phase_space_integral(rule: QuadratureRule, fvals: np.ndarray) -> complex:
    """Integrate d^2z/pi e^{-|z|^2} F from samples F[i, j] on the rule grid."""
    ang_mean = fvals.mean(axis=1)
    return complex(np.dot(rule.radial_weights, ang_mean))


def grid_points(rule: QuadratureRule) -> np.ndarray:
    """Complex grid z[i, j] = sqrt(u_i) * exp(i*theta_j)."""
    r = np.sqrt(rule.radial_nodes)[:, None]
    return r * np.exp(1j * rule.angles())[None, :]
