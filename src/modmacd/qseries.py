"""Gaussian binomials, Pochhammer symbols, hook factors, fusion normalizer."""

from collections import Counter

from .combinat import stats
from .errors import NegativeLambdaZero, NegativeLength
from .exactalg import ExactPolynomial, ONE, T, ZERO, sym
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


def hook_factors(lam):
    """Multiset of (a, b) with c_lam = prod (1 - q^a t^b): (arm, leg + 1)."""
    return Counter((a, l + 1) for a, l in stats(lam)["armlegs"].values())


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
