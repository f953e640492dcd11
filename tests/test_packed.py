"""The (q, t) packing kernel behind the Cauchy check: exact comparison of
sums of products at the W and T that the bound rule picks; and the digit
re-spacing that packs the lattice cells."""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from modmacd.exactalg import ExactPolynomial, ZERO
from modmacd.packed import (_at_one, _Bound, _digits, _pack_qt, _qt_terms,
                            _respace, _rows_times, _unpack_qt, _width,
                            QTBounds, QTPacking)

from reference import factor_product, unpack_rows

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


def _signed_row(W):
    """Balanced W-bit digits, in [-2^(W-1), 2^(W-1)), as many as 48: the
    longest Phi row a weight-9 lattice sweep re-spaces has at most 37."""
    half = 1 << (W - 1)
    return st.lists(st.integers(-half, half - 1), max_size=48)


@given(st.integers(2, 12).flatmap(lambda W: st.tuples(st.just(W),
                                                      _signed_row(W))),
       st.integers(2, 14), st.integers(1, 6), st.sampled_from("tqs"))
@example((2, []), 5, 3, "t")
@example((5, [-15, 0, 7] * 20), 9, 4, "q")
@example((7, [63, -63] * 25), 7, 1, "s")
@example((2, [-2, 1] * 20), 3, 2, "t")
@settings(max_examples=150, deadline=None)
def test_respace_matches_the_digit_shift_sum(row, width, T, target):
    # A row packed at W re-spaced to W' (a t step), W' T (a q step) or W
    # itself (equal widths) must carry each balanced digit to the new
    # spacing.  For a packing, whose digits are below 2^(W-1) in absolute
    # value, that is the reference: the digits _digits reads, shifted and
    # summed as _pack_qt sums terms.  A digit of -2^(W-1) is still one
    # balanced digit, which _respace must not carry into the next.
    W, digits = row
    spacing = {"t": width, "q": width * T, "s": W}[target]
    value = sum(c << W * i for i, c in enumerate(digits))
    got = _respace(value, W, spacing)
    assert got == sum(c << spacing * i for i, c in enumerate(digits))
    assert got == _pack_qt((((0, i), c) for i, c in _digits(value, W)),
                           spacing, 1)


@given(st.integers(2, 12).flatmap(lambda W: st.tuples(st.just(W),
                                                      _signed_row(W))))
@example((2, [-2, -2, 1]))
@example((3, [-4] * 9))
@example((4, [7, -8, 0, -8]))
@settings(max_examples=150, deadline=None)
def test_digits_read_every_balanced_digit(row):
    # Every balanced digit in [-2^(W-1), 2^(W-1)) is read, -2^(W-1) too:
    # 6 = -2 - 2 * 4 + 16 has three digits at W = 2, one more than
    # bit_length // W + 1.
    W, digits = row
    value = sum(c << W * i for i, c in enumerate(digits))
    assert list(_digits(value, W)) == [(i, c) for i, c in enumerate(digits)
                                       if c]
    assert _unpack_qt(value, W, len(digits) + 1) \
        == unpack_rows([value], W, "q")
