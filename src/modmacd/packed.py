"""Packed integer arithmetic at t = 2^W (Kronecker substitution).

A polynomial in t whose coefficients are at most B in absolute value is held
as its value at t = 2^W with W = B.bit_length() + 1, one balanced W-bit digit
per coefficient: products of polynomials become products of ints, and a value
is zero exactly when its polynomial is.  B comes from the l1 norms of the
inputs, never from the result: ||[a, b]_t|| = C(a, b), ||1 - z t^e|| = 2,
||fg|| <= ||f|| ||g|| and ||f + g|| <= ||f|| + ||g||.  The Phi routes (phi)
and the lattice sums (lattice) use these helpers; the oracle (symoracle)
takes only _width, _digits and _rows_times.  The Gaussian binomials come
from the Pascal recurrence on integer coefficient lists (_binom_list), with
no ExactPolynomial arithmetic; qseries.gauss_binomial, the same recurrence
on ExactPolynomial, is their reference in the tests.  Their packed values
are kept in one table per width (_gauss_table(W), a dict keyed by (a, b)
that packs a missing pair on first use), so the Phi kernels read each
binomial factor with one subscript and no Python call.

A polynomial in q and t is held at t = 2^W, q = 2^(W T) (_pack_qt): with
every t-degree below T, the coefficient of q^a t^b is the balanced digit at
position a T + b.  The lattice sums and the Cauchy check (modmac) pack this
way; _Bound carries the l1 norm and t-degree that choose W and T.  A lattice
cell comes packed at its own width, one row per power of another variable,
and _respace moves each row's digits to the spacing of the variable they
stand for (W for t, W T for q), so no cell is decoded into terms.
"""

from math import comb

from .exactalg import ExactPolynomial, _pruned
from .memo import memoized

_BINOM_LIST_CACHE = {}
_GAUSS_AT_CACHE = {}


@memoized(_BINOM_LIST_CACHE)
def _binom_list(a, b):
    """Gaussian binomial [a choose b] as a list of integer t-coefficients
    (empty unless a >= b >= 0), by the Pascal recurrence
    [a, b] = [a-1, b-1] + t^b [a-1, b] on lists, with b <= a - b."""
    if not a >= b >= 0:
        return []
    b = min(b, a - b)
    if b == 0:
        return [1]
    low, high = _binom_list(a - 1, b - 1), _binom_list(a - 1, b)
    # [a-1, b] has degree b (a-1-b): t^b times it ends at b (a-b) = deg [a, b]
    out = low + [0] * (b + len(high) - len(low))
    for i, c in enumerate(high, b):
        out[i] += c
    return out


def _width(l1):
    """Digit width W that decodes every value of l1 norm at most l1."""
    return l1.bit_length() + 1


def _comb(a, b):
    """l1 norm of [a choose b]_t."""
    return comb(a, b) if a >= b >= 0 else 0


class _GaussTable(dict):
    """[a choose b]_t at t = 2^W keyed by (a, b), 0 unless a >= b >= 0:
    a missing pair is packed from _binom_list and kept, so a hit is one
    dict subscript."""

    __slots__ = ("W",)

    def __init__(self, W):
        self.W = W

    def __missing__(self, key):
        value = 0
        for c in reversed(_binom_list(*key)):
            value = (value << self.W) + c
        self[key] = value
        return value


@memoized(_GAUSS_AT_CACHE)
def _gauss_table(W):
    """The one _GaussTable of width W."""
    return _GaussTable(W)


def _gauss_at(a, b, W):
    """[a choose b]_t at t = 2^W; 0 unless a >= b >= 0."""
    return _gauss_table(W)[a, b]


def _digits(value, W):
    """The nonzero balanced W-bit digits of value as (position, digit):
    the coefficients of the polynomial f with f(2^W) = value."""
    mask, half = (1 << W) - 1, 1 << (W - 1)
    i = 0
    while value:
        c = value & mask
        if c >= half:
            c -= mask + 1
        if c:
            yield i, c
        value = (value - c) >> W
        i += 1


def _respace(value, W, spacing):
    """The value at 2^spacing of the polynomial f with f(2^W) = value,
    W >= 2: f's coefficients are the balanced W-bit digits of value, each
    in [-2^(W-1), 2^(W-1)) (those _digits reads, when value packs a
    polynomial), and each moves from bit W i to bit spacing i, its sign
    kept, in one pass over the digits."""
    if W == spacing:
        return value
    mask, half = (1 << W) - 1, 1 << (W - 1)
    out = shift = 0
    while value:
        c = value & mask
        if c >= half:
            c -= mask + 1
        out += c << shift
        value = (value - c) >> W
        shift += spacing
    return out


def _rows_times(rows, factors, W):
    """rows times prod (1 - x^a t^b) over the (a, b) in factors, rows[i]
    being the x^i coefficient at t = 2^W: each factor shifts the list by a
    rows and each row by W b bits, and subtracts."""
    for a, b in factors:
        rows = [c - (p << W * b)
                for c, p in zip(rows + [0] * a, [0] * a + rows)]
    return rows


_QT = ExactPolynomial.monomial({"q": 1, "t": 1})


def _qt_terms(c):
    """The terms of a polynomial in q and t, keyed (q exponent, t exponent)."""
    names, terms, _ = c._aligned(_QT)
    if names != ("q", "t"):
        raise ValueError("%r is not a polynomial in q and t" % (c,))
    return terms


def _pack_qt(terms, W, T):
    """The value at t = 2^W, q = 2^(W T) of the polynomial with terms
    ((q exponent, t exponent), coefficient), all exponents >= 0, t's < T."""
    return sum(c << W * (q * T + t) for (q, t), c in terms)


def _at_one(value, W):
    """The value at q = t = 1 of the polynomial P packed at width W (any T),
    if ||P|| < 2^(W-1): t = 2^W and q = 2^(W T) are both 1 mod 2^W - 1, so
    P(1, 1) is the residue of value, and |P(1, 1)| <= ||P|| makes the
    balanced residue unique."""
    m = (1 << W) - 1
    r = value % m
    return r - m if r > m >> 1 else r


def _unpack_qt(value, W, T, qshift=0, tshift=0):
    """Inverse of _pack_qt, times q^qshift t^tshift."""
    return _pruned(("q", "t"), {
        (q + qshift, t + tshift): c
        for i, c in _digits(value, W) for q, t in (divmod(i, T),)})


class _Bound:
    """The l1 norm of a (q, t) polynomial and a bound on its t-degree.
    Sums and products of bounds bound the sums and products of the
    polynomials: ||f + g|| <= ||f|| + ||g||, ||fg|| <= ||f|| ||g||."""

    __slots__ = ("l1", "tdeg")

    def __init__(self, l1, tdeg):
        self.l1, self.tdeg = l1, tdeg

    def __add__(self, other):
        return _Bound(self.l1 + other.l1, max(self.tdeg, other.tdeg))

    def __mul__(self, other):
        return _Bound(self.l1 * other.l1, self.tdeg + other.tdeg)

    def __or__(self, other):
        """A bound for either polynomial."""
        return _Bound(max(self.l1, other.l1), max(self.tdeg, other.tdeg))


class QTBounds:
    """The _Bound of each value that QTPacking computes, by the same calls."""

    @staticmethod
    def pack(terms):
        """terms {(q exponent, t exponent): c}."""
        return _Bound(sum(map(abs, terms.values())),
                      max((t for _, t in terms), default=0))

    @staticmethod
    def binomial(a, b, base):
        """[a choose b] in base q or t."""
        return _Bound(_comb(a, b), b * (a - b) if base == "t" else 0)

    @staticmethod
    def times(value, factors):
        """value times prod (1 - q^a t^b) over the multiset factors: each
        factor has l1 norm 2 and t-degree b."""
        return _Bound(value.l1 << sum(factors.values()),
                      value.tdeg + sum(b * k for (_, b), k in factors.items()))


class QTPacking:
    """(q, t) polynomials as ints at t = 2^W, q = 2^(W T), as _pack_qt.

    Packing is a ring map, so any sum and product of packed values is the
    packed value of the same sum and product of polynomials, in whatever
    order it was built.  If d has every coefficient below 2^(W-1) in
    absolute value (||d|| < 2^(W-1), which W = _width(B) gives for any
    bound B >= ||d||) and every t-degree below T, its coefficient of q^a t^b
    is the balanced W-bit digit at position a T + b alone, so d packs to 0
    exactly when d = 0: packed values compare as their polynomials do.
    """

    def __init__(self, W, T):
        self.W, self.T = W, T

    @classmethod
    def comparing(cls, bounds):
        """The packing at which a == b s compares as the polynomials do for
        every triple (a, b, s) of _Bounds in bounds: d = a - b s has
        ||d|| <= ||a|| + ||b|| ||s|| and t-degree at most that of a or b s,
        and a, b and b s alone fit too, since ||s|| >= 1."""
        return cls(_width(max(a.l1 + b.l1 * s.l1 for a, b, s in bounds)),
                   1 + max(max(a.tdeg, b.tdeg + s.tdeg) for a, b, s in bounds))

    def pack(self, terms):
        return _pack_qt(terms.items(), self.W, self.T)

    def binomial(self, a, b, base):
        return _gauss_at(a, b, self.W * self.T if base == "q" else self.W)

    def times(self, value, factors):
        """Each factor 1 - q^a t^b is a shift and a subtraction."""
        for (a, b), k in factors.items():
            shift = self.W * (a * self.T + b)
            for _ in range(k):
                value -= value << shift
        return value
