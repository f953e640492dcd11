"""Exact computation of modified Macdonald polynomials, their positive
monomial coefficients via coloured lattice paths, and the positive polynomial
form of the series Phi."""

from .combinat import Partition, SequencePair, conjugate
from .exactalg import ExactPolynomial, RationalFunction, render
from .memo import clear_caches
from .modmac import (HResult, cauchy_check, duality_check, kostka_qt,
                     modified_H, modified_HL, w_reduction_check)
from .phi import (g_poly, phi_at_one, phi_finite, phi_normalized,
                  phi_positive, phi_prime, phi_series, rotate)
from .symoracle import W_oracle

__all__ = [
    "Partition", "SequencePair", "conjugate",
    "ExactPolynomial", "RationalFunction", "render", "clear_caches",
    "HResult", "cauchy_check", "duality_check", "kostka_qt",
    "modified_H", "modified_HL", "w_reduction_check",
    "g_poly", "phi_at_one", "phi_finite", "phi_normalized",
    "phi_positive", "phi_prime", "phi_series", "rotate",
    "W_oracle",
]

__version__ = "0.1.0"
