"""Shared exception types."""


class NonConvergence(RuntimeError):
    """An adaptive series or iterative solver did not reach its tail/residual
    target within the configured budget."""


class HintViolation(ValueError):
    """A sampled phase-space function was passed without the degree hints the
    exact quadrature sizing needs."""


class TailError(RuntimeError):
    """A coherent-state coefficient vector was truncated before capturing the
    required fraction of its norm."""
