"""The (q, t) packing kernel behind the Cauchy check: exact comparison of
sums of products at the W and T that the bound rule picks."""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from modmacd.exactalg import ExactPolynomial, ZERO
from modmacd.packed import (_at_one, _Bound, _digits, _pack_qt, _qt_terms,
                            _rows_times, _unpack_qt, _width, QTBounds,
                            QTPacking)

from reference import factor_product

_POLY = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-60, 60),
    max_size=5)
_PRODUCTS = st.lists(st.tuples(_POLY, _POLY), max_size=3)
_FACTORS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
    st.integers(1, 2), max_size=3).map(Counter)


def _poly(terms):
    return ExactPolynomial(("q", "t"), terms)


def _bound(products):
    out = _Bound(0, 0)
    for f, g in products:
        out = out + QTBounds.pack(f) * QTBounds.pack(g)
    return out


def _packed(qt, products):
    return sum(qt.pack(f) * qt.pack(g) for f, g in products)


def _exact(products):
    out = ZERO
    for f, g in products:
        out = out + _poly(f) * _poly(g)
    return out


@given(_PRODUCTS, _PRODUCTS, _FACTORS, st.booleans())
# coefficients at the bound: one term of l1 norm B and no cancellation
@example([({(0, 0): -(1 << 10)}, {(2, 3): 1 << 10})], [], Counter(), False)
@example([({(4, 4): 60}, {(4, 4): -60})], [({(0, 0): 1}, {(0, 0): 3600})],
         Counter(), False)
@example([], [({(0, 4): -60}, {(4, 0): 60})], Counter({(0, 3): 2}), False)
@example([], [], Counter(), True)
@settings(max_examples=150, deadline=None)
def test_packed_equality_is_polynomial_equality(lhs, rhs, factors, equal):
    # lhs == rhs prod(1 - q^a t^b) compared as ints at t = 2^W,
    # q = 2^(W T), W and T picked from the bounds of both sides by the rule
    # cauchy_check uses; with equal set, lhs is rhs with the factors
    # multiplied into each product, so the sides agree although built apart.
    scale = factor_product(factors)
    if equal:
        lhs = [(f, _qt_terms(_poly(g) * scale)) for f, g in rhs]
    a, b = _bound(lhs), _bound(rhs)
    s = QTBounds.times(_Bound(1, 0), factors)
    qt = QTPacking.comparing([(a, b, s)])
    left = _packed(qt, lhs)
    right = qt.times(_packed(qt, rhs), factors)
    exact_left, exact_right = _exact(lhs), _exact(rhs) * scale
    assert (left == right) == (exact_left == exact_right)
    assert _unpack_qt(left, qt.W, qt.T) == exact_left
    assert _unpack_qt(right, qt.W, qt.T) == exact_right
    assert _unpack_qt(left - right, qt.W, qt.T) == exact_left - exact_right
    if equal:
        assert left == right


@given(_POLY)
@example({(3, 4): -(1 << 20)})
@example({(0, 0): 1 << 20, (1, 0): -(1 << 20)})
@settings(max_examples=150, deadline=None)
def test_pack_and_unpack_round_trip(terms):
    bound = QTBounds.pack(terms)
    qt = QTPacking(_width(bound.l1), bound.tdeg + 1)
    assert _unpack_qt(qt.pack(terms), qt.W, qt.T) == _poly(terms)


@given(_POLY, st.integers(0, 4), st.integers(0, 3))
# l1 norm exactly 2^(W-1) - 1 at the least W, of either sign
@example({(1, 2): 300, (0, 0): 211}, 0, 0)
@example({(1, 2): -300, (0, 0): -211}, 0, 0)
# a negative sum, and a value that cancels to 0 at q = t = 1
@example({(2, 1): -40, (0, 3): 7}, 0, 0)
@example({(0, 0): 5, (1, 1): -5}, 2, 1)
@settings(max_examples=150, deadline=None)
def test_value_at_one_is_the_balanced_residue(terms, wider, taller):
    # The lattice sweep reads each composition's value at q = t = 1 off its
    # packed int: at any W with l1 < 2^(W-1) and any T above the t-degree
    # it is the substituted polynomial's value.
    W = _width(sum(map(abs, terms.values()))) + wider
    T = max((t for _, t in terms), default=0) + 1 + taller
    expect = _poly(terms).substitute({"q": 1, "t": 1}).constant_value()
    assert _at_one(_pack_qt(terms.items(), W, T), W) == expect


def test_bounds_follow_the_packed_binomials_and_factors():
    # the structure pass's binomial and factor bounds are those of the
    # polynomials QTPacking packs
    qt = QTPacking(12, 10)
    for a, b in ((4, 2), (5, 3), (3, 0)):
        for base in "qt":
            poly = _unpack_qt(qt.binomial(a, b, base), qt.W, qt.T)
            bound = QTBounds.binomial(a, b, base)
            terms = _qt_terms(poly)
            assert bound.l1 == sum(map(abs, terms.values()))
            assert bound.tdeg == max(t for _, t in terms)
    factors = Counter({(1, 2): 2, (0, 1): 1})
    poly = _unpack_qt(qt.times(1, factors), qt.W, qt.T)
    assert poly == factor_product(factors)
    bound = QTBounds.times(_Bound(1, 0), factors)
    assert bound.l1 >= sum(map(abs, _qt_terms(poly).values()))
    assert bound.tdeg == max(t for _, t in _qt_terms(poly))


@given(_POLY, _FACTORS)
@example({(0, 0): 1}, Counter())
@example({(0, 0): -3, (2, 4): 5}, Counter({(0, 2): 2, (3, 0): 1}))
@settings(max_examples=80, deadline=None)
def test_rows_times_matches_the_exact_factor_product(terms, factors):
    # rows[i] is the q^i coefficient at t = 2^W; each factor 1 - q^a t^b
    # at most doubles the l1 norm, so W fits the product.
    W = _width(sum(map(abs, terms.values())) << sum(factors.values()))
    rows = [0] * (max((q for q, _ in terms), default=0) + 1)
    for (q, t), c in terms.items():
        rows[q] += c << W * t
    got = _rows_times(rows, factors.elements(), W)
    assert _poly({(q, t): c for q, value in enumerate(got)
                  for t, c in _digits(value, W)}) \
        == _poly(terms) * factor_product(factors)
