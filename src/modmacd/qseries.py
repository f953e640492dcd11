"""Gaussian binomials, Pochhammer symbols, hook products, fusion normalizer."""

from .combinat import Partition, conjugate
from .errors import NegativeLambdaZero, NegativeLength
from .exactalg import (ExactPolynomial, ONE, P, RationalFunction, T, ZERO,
                       sym)
from .memo import memoized

_BINOM_CACHE = {}


def gauss_binomial(a, b):
    """Gaussian binomial [a choose b] in t.

    Zero unless a >= b >= 0.  Computed by the Pascal-type recurrence
    [a, b] = [a-1, b-1] + t^b [a-1, b], keeping intermediates positive.
    """
    if not (a >= b >= 0):
        return ZERO
    return _gauss_binomial(a, min(b, a - b))


@memoized(_BINOM_CACHE)
def _gauss_binomial(a, b):
    if b == 0:
        return ONE
    return gauss_binomial(a - 1, b - 1) + T ** b * gauss_binomial(a - 1, b)


def pochhammer(w, base, k):
    """(w; base)_k = prod_{i=0}^{k-1} (1 - w base^i)."""
    if k < 0:
        raise NegativeLength("Pochhammer length must be nonnegative")
    if isinstance(w, str):
        w = sym(w)
    x = sym(base)
    out = ONE
    shift = ONE
    for _ in range(k):
        out = out * (ONE - w * shift)
        shift = shift * x
    return out


def pochhammer_qt_partition(w, lam, qbase="q", tbase="t"):
    """(w; q, t)_lambda = prod_i (w t^(1-i); q)_{lambda_i}; Laurent in t."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if isinstance(w, str):
        w = sym(w)
    out = ONE
    for i, part in enumerate(lam.parts, start=1):
        tshift = ExactPolynomial.monomial({tbase: 1 - i}) if i > 1 else ONE
        out = out * pochhammer(w * tshift, qbase, part)
    return out


def c_functions(lam, qbase="q", tbase="t"):
    """Hook products c, c' and their ratio b = c/c'."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    conj = conjugate(lam)
    c = ONE
    cprime = ONE
    for i, row in enumerate(lam.parts, start=1):
        for j in range(1, row + 1):
            a = row - j
            l = conj.part(j) - i
            c = c * (ONE - ExactPolynomial.monomial({qbase: a, tbase: l + 1}))
            cprime = cprime * (
                ONE - ExactPolynomial.monomial({qbase: a + 1, tbase: l}))
    return {"c": c, "cprime": cprime, "b": RationalFunction(c, cprime)}


def fusion_normalizer(J, lam):
    """C_J(lambda): closed product form, Laurent in t.

    lambda is a composition of colour multiplicities (length n); the
    multiplicity of colour 0 is J - sum(lambda) and must be nonnegative.
    """
    parts = tuple(lam)
    lam0 = J - sum(parts)
    if lam0 < 0:
        raise NegativeLambdaZero("sum of multiplicities exceeds J")
    out = ONE
    prefix = lam0
    for m in parts:
        out = out * ExactPolynomial.monomial({"t": -m * prefix}) \
            * gauss_binomial(prefix + m, m)
        prefix += m
    return out
