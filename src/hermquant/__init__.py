"""Sector bases of L2 over the complex plane, coherent-state quantization of
phase-space functions, and spectral analysis of the resulting position and
momentum operators, with every closed form backed by an independent
representation or quadrature check."""

import os

# banded operators with N in the hundreds gain nothing from a spinning BLAS pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
