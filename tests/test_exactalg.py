"""Exact sparse-polynomial and rational-function arithmetic."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from modmacd.errors import (NonUnitIntoNegativeExponent, ZeroDenominator)
from modmacd.exactalg import (ONE, ExactPolynomial, RationalFunction, P, sym,
                              _monomial_power, poly_divexact, poly_gcd,
                              ratfun_normalize, render)

Q = sym("q")
T = sym("t")


def small_polys(low=0):
    exps = st.tuples(st.integers(low, 3), st.integers(low, 3))
    coefs = st.integers(-4, 4)
    return st.dictionaries(exps, coefs, max_size=4).map(
        lambda d: sum((ExactPolynomial.monomial({"q": e[0], "t": e[1]}, c)
                       for e, c in d.items()), ExactPolynomial.constant(0)))


NAMES = ("q", "t", "x1")


def mixed_polys():
    """Laurent polynomials over a random subset of NAMES."""
    exps = st.tuples(*(st.integers(-2, 2) for _ in NAMES))
    terms = st.dictionaries(exps, st.integers(-3, 3), max_size=5)
    return st.builds(_over, st.sets(st.sampled_from(NAMES)), terms)


def _over(names, terms):
    names = tuple(sorted(names))
    out = {}
    for e, c in terms.items():
        key = tuple(x for v, x in zip(NAMES, e) if v in names)
        out[key] = out.get(key, 0) + c
    return ExactPolynomial(names, out)


def _schoolbook(a, b, combine):
    """Reference sum or product: every pair of terms over the merged symbols,
    canonicalised by the full constructor."""
    names = tuple(sorted(set(a.vars) | set(b.vars)))

    def spread(p):
        return [(tuple(dict(zip(p.vars, e)).get(v, 0) for v in names), c)
                for e, c in p.terms.items()]

    out = {}
    if combine == "mul":
        for e1, c1 in spread(a):
            for e2, c2 in spread(b):
                key = tuple(x + y for x, y in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
    else:
        for e, c in spread(a) + spread(b):
            out[e] = out.get(e, 0) + c
    return ExactPolynomial(names, out)


def _same(got, want):
    assert (got.vars, got.terms) == (want.vars, want.terms)
    assert hash(got) == hash(want)


@given(mixed_polys(), mixed_polys())
@example(P(1) + T, -T)
@example(T, ExactPolynomial.monomial({"t": -1}))
@example(Q * T + T, ExactPolynomial.monomial({"t": -1}) * (P(1) - Q))
@example(Q + T, Q - T)
@settings(max_examples=150, deadline=None)
def test_add_and_mul_match_the_schoolbook_reference(a, b):
    _same(a + b, _schoolbook(a, b, "add"))
    _same(a - b, _schoolbook(a, -b, "add"))
    _same(a * b, _schoolbook(a, b, "mul"))
    _same(b * a, _schoolbook(a, b, "mul"))


def test_cancelled_symbols_are_pruned():
    for value in ((P(1) + T) - T, T * ExactPolynomial.monomial({"t": -1}),
                  (Q + T) * (Q - T) - Q * Q + T * T + P(1)):
        assert value.vars == ()
        assert value == ONE
        assert hash(value) == hash(1)
    mixed = (Q * T + T) * ExactPolynomial.monomial({"t": -1})
    assert mixed.vars == ("q",) and mixed == Q + P(1)


def test_constant_polynomial_hashes_like_its_int():
    three = P(3)
    assert three == 3 and hash(three) == hash(3)
    assert three in {3: "a"} and {three: "a"}[3] == "a"
    assert P(0) == 0 and hash(P(0)) == hash(0)
    assert P(-1) in {-1} and P(2) ** 70 in {2 ** 70}
    # A non-constant polynomial is a different key from every int.
    assert T != 1 and T not in {1: "a"}


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert (a * P(1)) == a
    assert (a * P(0)).is_zero()


@given(small_polys())
@settings(max_examples=40, deadline=None)
def test_power_matches_repeated_product(a):
    assert a ** 0 == P(1)
    assert a ** 3 == a * a * a


@given(small_polys())
@settings(max_examples=40, deadline=None)
def test_json_round_trip(a):
    assert ExactPolynomial.from_json(a.to_json()) == a


def test_json_format_is_canonical():
    p = Q * T ** 2 + P(3)
    data = json.loads(p.to_json())
    assert data["vars"] == sorted(data["vars"])
    assert set(data) == {"vars", "terms"}
    for term in data["terms"]:
        assert set(term) == {"exp", "coef"}
        assert isinstance(term["coef"], str)
    # Identical inputs must serialize to identical bytes.
    assert p.to_json() == (P(3) + T ** 2 * Q).to_json()


def _substitute_by_sums(p, bindings):
    """Reference substitution, the former ExactPolynomial.substitute: each
    term's image is built by products and added to the running result."""
    result = P(0)
    pow_cache = {}
    for e, c in p.terms.items():
        term = P(c)
        keep = {}
        for name, ex in zip(p.vars, e):
            if not ex:
                continue
            if name not in bindings:
                keep[name] = keep.get(name, 0) + ex
                continue
            if (name, ex) not in pow_cache:
                pow_cache[name, ex] = _monomial_power(bindings[name], ex)
            term = term * pow_cache[name, ex]
        if keep:
            term = term * ExactPolynomial.monomial(keep)
        result = result + term
    return result


def bindings():
    """Bindings of a subset of NAMES: 0, a signed monomial (a unit, so it
    may meet negative exponents) or a general polynomial."""
    unit = st.builds(lambda e, s: ExactPolynomial.monomial(
        dict(zip(("q", "t", "x2"), e)), s),
        st.tuples(*(st.integers(-2, 2) for _ in range(3))),
        st.sampled_from((1, -1)))
    value = st.one_of(st.just(P(0)), unit, mixed_polys())
    return st.dictionaries(st.sampled_from(NAMES + ("x2",)), value,
                           max_size=3)


@given(mixed_polys(), bindings())
@example(Q * T + T, {"q": P(0)})
@example(Q + T, {"q": -T})
@example(ExactPolynomial.monomial({"q": -1}) + T, {"q": T, "t": Q})
@example(Q * T * sym("x1") + sym("x1"), {"q": sym("x2")})
@settings(max_examples=150, deadline=None)
def test_substitute_matches_the_term_by_term_sum(p, values):
    try:
        want = _substitute_by_sums(p, values)
    except NonUnitIntoNegativeExponent:
        with pytest.raises(NonUnitIntoNegativeExponent):
            p.substitute(values)
        return
    _same(p.substitute(values), want)


def test_substitution_is_simultaneous():
    p = Q ** 2 * T
    swapped = p.substitute({"q": T, "t": Q})
    assert swapped == T ** 2 * Q


def test_substitution_keeps_unbound_variables():
    p = Q * T + T
    assert p.substitute({"q": P(2)}) == P(2) * T + T


def test_laurent_substitution_of_units():
    p = ExactPolynomial.monomial({"q": -2, "t": 1})
    assert p * ExactPolynomial.monomial({"q": 2}) == T
    inv = Q.substitute({"q": ExactPolynomial.monomial({"q": -1})})
    assert inv == ExactPolynomial.monomial({"q": -1})
    with pytest.raises(NonUnitIntoNegativeExponent):
        ExactPolynomial.monomial({"q": -1}).substitute({"q": P(1) + T})


def test_coefficient_extraction_and_degrees():
    p = Q ** 2 * T + P(2) * Q ** 2 + T ** 3
    assert p.coefficient({"q": 2}) == T + P(2)
    assert p.coefficient({"q": 0}) == T ** 3
    assert p.coefficient({"q": 1}).is_zero()
    assert p.degree("q") == 2
    assert p.min_degree("q") == 0
    assert p.degree("t") == 3


def test_nonnegativity_predicate():
    assert (Q + T ** 2).is_nonnegative()
    assert not (Q - T).is_nonnegative()


def test_render_is_deterministic_and_ordered():
    p = T * Q + Q + P(1)
    out = render(p, ("q", "t"))
    assert out == render(p, ("q", "t"))
    assert out.index("1") < out.index("q")


@given(small_polys(-3), small_polys(-3))
@example(ExactPolynomial.monomial({"t": -1}) * (P(1) + T),
         ExactPolynomial.monomial({"t": -1}))
@settings(max_examples=30, deadline=None)
def test_divexact_inverts_multiplication(a, b):
    if a.is_zero():
        return
    assert poly_divexact(a * b, a) == b


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=20, deadline=None)
def test_gcd_divides_both_arguments(a, b, g):
    f1, f2 = a * g, b * g
    d = poly_gcd(f1, f2)
    if f1.is_zero() and f2.is_zero():
        assert d.is_zero()
        return
    assert poly_divexact(f1, d) is not None or f1.is_zero()
    assert poly_divexact(f2, d) is not None or f2.is_zero()
    if not g.is_zero() and not (a.is_zero() and b.is_zero()):
        # g divides the gcd of its multiples.
        assert poly_divexact(d, g) is not None


def as_polynomial(r):
    """The Laurent polynomial r.num / r.den, or None if r.den does not
    divide: exact division, no gcd."""
    try:
        return poly_divexact(r.num, r.den)
    except ValueError:
        return None


def test_rational_function_normalization():
    r = RationalFunction((P(1) - T) * (P(1) + T), P(1) - T)
    assert r == RationalFunction(P(1) + T)
    assert as_polynomial(r) == P(1) + T
    assert ratfun_normalize(r).den.is_one()


def test_rational_function_field_axioms():
    a = RationalFunction(Q, P(1) - T)
    b = RationalFunction(T, P(1) + Q)
    assert a + b - b == a
    assert (a * b) / b == a
    assert a / a == RationalFunction(P(1))
    assert a * (P(1) - T) == RationalFunction(Q)


def test_rational_function_equality_cross_multiplies():
    a = RationalFunction(Q * (P(1) - T), (P(1) - T) ** 2)
    b = RationalFunction(Q, P(1) - T)
    assert a == b


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        RationalFunction(Q, P(0))


def test_non_polynomial_stays_rational():
    r = RationalFunction(P(1), P(1) - T)
    assert as_polynomial(r) is None


@given(small_polys(-3), small_polys(-3))
@example(P(2) * Q, P(2))
@example(Q, P(2))
@example(-Q, P(-1))
@example(P(1), T)
@example(P(2) * Q, P(2) + T)
@settings(max_examples=60, deadline=None)
def test_as_polynomial_matches_gcd_reduction(a, b):
    if b.is_zero():
        return
    # the quotient is unique, so exact division gives what a full gcd
    # reduction gives
    assert as_polynomial(RationalFunction(a * b, b)) == a
    reduced = ratfun_normalize(RationalFunction(a, b))
    got = as_polynomial(RationalFunction(a, b))
    if reduced.den.is_one():
        assert got == reduced.num
    else:
        assert got is None

