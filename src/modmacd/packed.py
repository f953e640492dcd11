"""Packed integer arithmetic at t = 2^W (Kronecker substitution).

A polynomial in t whose coefficients are at most B in absolute value is held
as its value at t = 2^W with W = B.bit_length() + 1, one balanced W-bit digit
per coefficient: products of polynomials become products of ints, and a value
is zero exactly when its polynomial is.  B comes from the l1 norms of the
inputs, never from the result: ||[a, b]_t|| = C(a, b), ||1 - z t^e|| = 2,
||fg|| <= ||f|| ||g|| and ||f + g|| <= ||f|| + ||g||.  The Phi routes (phi)
and the lattice sums (lattice) use these helpers; the oracle (symoracle)
takes only _width and _digits.
"""

from math import comb

from .memo import memoized
from .qseries import gauss_binomial

_BINOM_LIST_CACHE = {}
_GAUSS_AT_CACHE = {}


@memoized(_BINOM_LIST_CACHE)
def _binom_list(a, b):
    """Gaussian binomial [a choose b] as a list of integer t-coefficients."""
    poly = gauss_binomial(a, b)
    if poly.is_zero():
        return []
    got = [0] * (poly.degree("t") + 1)
    for exp, c in poly.terms.items():
        got[exp[0] if poly.vars else 0] = c
    return got


def _width(l1):
    """Digit width W that decodes every value of l1 norm at most l1."""
    return l1.bit_length() + 1


def _comb(a, b):
    """l1 norm of [a choose b]_t."""
    return comb(a, b) if a >= b >= 0 else 0


@memoized(_GAUSS_AT_CACHE)
def _gauss_at(a, b, W):
    """[a choose b]_t at t = 2^W; 0 unless a >= b >= 0."""
    value = 0
    for c in reversed(_binom_list(a, b)):
        value = (value << W) + c
    return value


def _digits(value, W):
    """The nonzero balanced W-bit digits of value as (position, digit):
    the coefficients of the polynomial f with f(2^W) = value."""
    mask, half = (1 << W) - 1, 1 << (W - 1)
    # A value of L bits has at most L // W + 1 balanced digits.
    for i in range(value.bit_length() // W + 1):
        c = value & mask
        if c >= half:
            c -= mask + 1
        if c:
            yield i, c
        value = (value - c) >> W
