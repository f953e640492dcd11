"""Gaussian binomials, Pochhammer symbols, hook products, fusion normalizer."""

from collections import Counter
from itertools import accumulate

from .combinat import Partition, conjugate, stats
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


def hook_factors(lam):
    """Multiset of (a, b) with c_lam = prod (1 - q^a t^b): (arm, leg + 1)."""
    return Counter((a, l + 1) for a, l in stats(lam)["armlegs"].values())


def factor_product(factors):
    """prod (1 - q^a t^b) over a multiset of (a, b)."""
    out = ONE
    for a, b in factors.elements():
        out = out * (ONE - ExactPolynomial.monomial({"q": a, "t": b}))
    return out


def divide_factors(f, factors):
    """f / prod (1 - q^a t^b) over a multiset of (a, b), the inverse of
    factor_product; raises ValueError unless every division is exact.

    Each distinct factor is cleared in one pass along the lines of direction
    (a, b): if f = g (1 - q^a t^b), then g at a point of a line is the sum
    of f over the points up to it on that line, and f sums to 0 along every
    line; a factor of multiplicity m takes m running sums per line.  Terms
    are keyed (other exponents, q exponent, t exponent) throughout.
    """
    if any(not (a or b) for a, b in factors):
        raise ZeroDivisionError("division by the zero factor 1 - 1")
    rest = tuple(v for v in f.vars if v not in ("q", "t"))
    iq = f.vars.index("q") if "q" in f.vars else None
    it = f.vars.index("t") if "t" in f.vars else None
    terms = {(tuple(x for v, x in zip(f.vars, e) if v not in ("q", "t")),
              e[iq] if iq is not None else 0,
              e[it] if it is not None else 0): c
             for e, c in f.terms.items()}
    for (a, b), m in sorted(factors.items()):
        if m > 0:
            terms = _divide_factor(terms, a, b, m)
    return ExactPolynomial(rest + ("q", "t"),
                           {o + (x, y): c for (o, x, y), c in terms.items()})


def _divide_factor(terms, a, b, m):
    # a line's points are base + s (a, b), base the point whose q (or, when
    # a = 0, t) exponent lies in [0, a) (or [0, b))
    lines = {}
    for (o, x, y), c in terms.items():
        s = x // a if a else y // b
        lines.setdefault((o, x - s * a, y - s * b), {})[s] = c
    out = {}
    for (o, x, y), line in lines.items():
        low = min(line)
        dense = [0] * (max(line) - low + 1)
        for s, c in line.items():
            dense[s - low] = c
        # both ends of a line stay nonzero, so a line of one point is
        # never divisible and dense never runs empty
        for _ in range(m):
            dense = list(accumulate(dense))
            if dense.pop():
                raise ValueError("not divisible by 1 - q^%d t^%d" % (a, b))
        for u, c in enumerate(dense, low):
            if c:
                out[(o, x + u * a, y + u * b)] = c
    return out


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
