"""Gaussian binomials, Pochhammer symbols, hook products, fusion normalizer."""

import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from modmacd.combinat import (Partition, conjugate, inversion_number, n_stat,
                              partitions_of)
from modmacd.errors import NegativeLambdaZero, NegativeLength
from modmacd.exactalg import (ExactPolynomial, ONE, P, RationalFunction,
                              poly_divexact, sym)
from modmacd.qseries import (fusion_normalizer, gauss_binomial, hook_factors,
                             pochhammer)

from reference import c_functions, divide_factors, factor_product

T = sym("t")
W = sym("w")


def test_binomial_base_cases_and_support():
    assert gauss_binomial(4, 0).is_one()
    assert gauss_binomial(4, 4).is_one()
    assert gauss_binomial(2, 3).is_zero()
    assert gauss_binomial(-1, 0).is_zero()
    assert gauss_binomial(2, 1) == P(1) + T


def test_binomial_at_base_one_counts_subsets():
    from math import comb
    for a in range(7):
        for b in range(a + 1):
            val = gauss_binomial(a, b).substitute({"t": P(1)})
            assert val == P(comb(a, b))


@given(st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=50, deadline=None)
def test_binomial_symmetry(a, b):
    assert gauss_binomial(a, b) == gauss_binomial(a, a - b)


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=50, deadline=None)
def test_binomial_chain_product(a, b, c):
    lhs = gauss_binomial(a, b) * gauss_binomial(b, c)
    rhs = gauss_binomial(a, c) * gauss_binomial(a - c, b - c)
    assert lhs == rhs


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_binomial_vandermonde_convolution(a, b, c):
    lhs = gauss_binomial(a + b, c)
    # Terms with j > c vanish through [a choose c-j]; skip them so the
    # exponent (b-j)(c-j) stays nonnegative.
    rhs = sum((T ** ((b - j) * (c - j))
               * gauss_binomial(a, c - j) * gauss_binomial(b, j)
               for j in range(min(b, c) + 1)), ExactPolynomial.constant(0))
    assert lhs == rhs


def test_binomial_positivity():
    for a in range(8):
        for b in range(a + 1):
            assert gauss_binomial(a, b).is_nonnegative()


@given(st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_pochhammer_shift_ratio(a, b):
    lhs = pochhammer(W * T ** a, "t", b) * pochhammer(W, "t", a)
    rhs = pochhammer(W, "t", a + b)
    assert lhs == rhs


def test_pochhammer_errors_and_base_cases():
    assert pochhammer(W, "t", 0).is_one()
    assert pochhammer(W, "t", 1) == P(1) - W
    with pytest.raises(NegativeLength):
        pochhammer(W, "t", -1)


def test_binomial_generating_series_truncated():
    # sum_s w^s [s+a choose s] * (w; t)_{a+1} = 1 up to the truncation order.
    for a in range(4):
        cutoff = 6
        acc = ExactPolynomial.constant(0)
        for s in range(cutoff + 1):
            acc = acc + W ** s * gauss_binomial(s + a, s)
        prod = acc * pochhammer(W, "t", a + 1)
        for d in range(cutoff - a):
            expect = P(1) if d == 0 else ExactPolynomial.constant(0)
            assert prod.coefficient({"w": d}) == expect


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


def test_pochhammer_qt_partition_row_product():
    lam = Partition((2, 1))
    direct = pochhammer(W, "q", 2) \
        * pochhammer(W * ExactPolynomial.monomial({"t": -1}), "q", 1)
    assert pochhammer_qt_partition(W, lam) == direct


def test_hook_products_on_single_box():
    fns = c_functions(Partition((1,)))
    assert fns["c"] == P(1) - T
    assert fns["cprime"] == P(1) - sym("q")
    assert fns["b"] == RationalFunction(P(1) - T, P(1) - sym("q"))


def small_shapes():
    return [lam for w in range(1, 6) for lam in partitions_of(w)]


def test_hook_product_conjugation():
    # c'(lambda) with swapped bases equals c(lambda') in the original bases.
    for lam in small_shapes():
        swapped = c_functions(lam, qbase="t", tbase="q")
        plain = c_functions(conjugate(lam))
        assert swapped["cprime"] == plain["c"]
        assert swapped["c"] == plain["cprime"]


def test_hook_product_inversion():
    # c(q, t) = (-t)^{|l|} t^{n(l)} q^{n(l')} c(1/q, 1/t).
    for lam in small_shapes():
        fns = c_functions(lam)
        inv = fns["c"].substitute(
            {"q": ExactPolynomial.monomial({"q": -1}),
             "t": ExactPolynomial.monomial({"t": -1})})
        pref = ExactPolynomial.monomial(
            {"t": lam.weight() + n_stat(lam), "q": n_stat(conjugate(lam))},
            (-1) ** lam.weight())
        assert fns["c"] == pref * inv


def test_hook_factors_multiply_to_c():
    for lam in small_shapes():
        assert factor_product(hook_factors(lam)) == c_functions(lam)["c"]
    assert factor_product(hook_factors(Partition((2, 1)))) == \
        (P(1) - T) ** 2 * (P(1) - sym("q") * T ** 2)


def laurent_qt_polys():
    exps = st.tuples(st.integers(-2, 3), st.integers(-2, 3))
    return st.dictionaries(exps, st.integers(-4, 4), max_size=5).map(
        lambda d: sum((ExactPolynomial.monomial({"q": e[0], "t": e[1]}, c)
                       for e, c in d.items()), ExactPolynomial.constant(0)))


def factor_multisets():
    factor = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any)
    return st.lists(factor, max_size=4).map(Counter)


@given(laurent_qt_polys(), factor_multisets())
@example(P(1) + T, Counter())
@example(ExactPolynomial.monomial({"t": -2}) + sym("q"),
         Counter({(1, 1): 3, (0, 2): 1}))
@example(sym("x") - sym("q") * T, Counter({(2, 1): 2}))
@settings(max_examples=80, deadline=None)
def test_divide_factors_inverts_factor_product(f, factors):
    assert divide_factors(f * factor_product(factors), factors) == f


def _divexact_or_none(f, g):
    try:
        return poly_divexact(f, g)
    except ValueError:
        return None


@given(laurent_qt_polys(), laurent_qt_polys(), factor_multisets(),
       factor_multisets())
@example(P(1), P(0), Counter({(0, 1): 1}), Counter())
@example(T, ExactPolynomial.monomial({"t": -1}), Counter({(1, 0): 2}),
         Counter({(1, 0): 1}))
@settings(max_examples=80, deadline=None)
def test_divide_factors_raises_where_divexact_does(f, g, factors, part):
    # g * prod(part) is divisible by prod(factors) exactly when part covers
    # enough of factors and g the rest; both kernels must agree either way.
    h = g * factor_product(part) + f * factor_product(factors - part)
    want = _divexact_or_none(h, factor_product(factors))
    try:
        got = divide_factors(h, factors)
    except ValueError:
        got = None
    assert got == want


def test_divide_factors_rejects_the_zero_factor():
    with pytest.raises(ZeroDivisionError):
        divide_factors(P(1), Counter({(0, 0): 1}))


def test_b_ratio_conjugation():
    # b(lambda; q, t) * b(lambda'; t, q) = 1.
    for lam in small_shapes():
        b1 = c_functions(lam)["b"]
        b2 = c_functions(conjugate(lam), qbase="t", tbase="q")["b"]
        assert b1 * b2 == RationalFunction(P(1))


def test_fusion_normalizer_matches_inversion_sum():
    # C_J(lambda) equals the sum of t^{-inv} over arrangements of the
    # multiset with lambda_0 = J - |lambda| copies of colour 0.
    for J in (1, 2, 3):
        for lam in itertools.product(range(J + 1), repeat=2):
            if sum(lam) > J:
                continue
            mult = (J - sum(lam),) + lam
            letters = [c for c, m in enumerate(mult) for _ in range(m)]
            acc = ExactPolynomial.constant(0)
            for word in set(itertools.permutations(letters)):
                acc = acc + ExactPolynomial.monomial(
                    {"t": -inversion_number(word)})
            assert acc == fusion_normalizer(J, lam)


def test_fusion_normalizer_rejects_overfull():
    with pytest.raises(NegativeLambdaZero):
        fusion_normalizer(1, (1, 1))
