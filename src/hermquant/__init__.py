"""Sector bases of L2 over the complex plane, coherent-state quantization of
phase-space functions, and spectral analysis of the resulting position and
momentum operators, with every closed form backed by an independent
representation or quadrature check."""

import os

# banded operators with N in the hundreds gain nothing from a spinning BLAS pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .basis import (BasisLabel, KernelValue, cs_coefficients,
                    displacement_element, gamma_like_pdf, kernel,
                    kernel_s1_closed, normalization, normalization_series,
                    phi, poisson_like_pmf, reproduce)
from .errors import HintViolation, NonConvergence, PoleError, TailError
from .ladder import SectorIndex, ladder_apply
from .matrices import (TruncatedOperator, build_A_z, build_A_zbar, build_AH,
                       build_Ap2, build_Aq2, build_Hhat, build_P, build_Q)
from .physics import PhysicalParams, gamma_ratio, spectrum_compare, zeta_map
from .quadrature import QuadratureRule, gauss_laguerre_rule
from .quantize import (Monomial, Sampled, laguerre_integral, lower_symbol,
                       quantize_monomial, quantize_numeric)
from .spectral import (DiscreteMeasure, JacobiMatrix, PolyExact,
                       assoc_hermite, char_poly, eigenvalues, golub_welsch,
                       monic_q)
from .specfun import (complex_hermite, complex_hermite_laguerre,
                      hyp3f2_terminating, laguerre)

__version__ = "0.1.0"
