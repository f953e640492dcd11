"""Headline assembly: modified Macdonald coefficient tables by three routes,
the Hall-Littlewood specialization, Kostka extraction, duality and the
Cauchy-identity test harness."""

from collections import Counter
from functools import reduce
from itertools import product
from math import factorial
from operator import add, mul, or_, sub

from .combinat import Partition, conjugate, n_stat, partitions_of
from .errors import (ConsistencyError, NegativeCoefficient, TooFewVariables,
                     TruncationTooSmall)
from .exactalg import ExactPolynomial, ONE, T, sym, ZERO
from .lattice import partition_function_coeffs
from .memo import memoized
from .packed import _binom_list, _Bound, _qt_terms, QTBounds, QTPacking
from .qseries import hook_factors, pochhammer
from .symoracle import (basis_convert, _expand_monomial, _jcoef,
                        modified_H_oracle, _W_table)

ROUTES = ("lattice_x", "lattice_dual", "oracle")


class HResult:
    """Monomial coefficient table of a modified Macdonald polynomial."""

    __slots__ = ("shape", "coeffs", "route")

    def __init__(self, shape, coeffs, route):
        self.shape = shape
        self.coeffs = dict(coeffs)
        self.route = route
        for mu, poly in self.coeffs.items():
            if mu.weight() != shape.weight():
                raise ConsistencyError(
                    "table key %r has the wrong weight" % (mu,))
            if not poly.is_nonnegative():
                raise NegativeCoefficient(
                    "coefficient at %r has a negative term" % (mu,))

    def __eq__(self, other):
        if not isinstance(other, HResult):
            return NotImplemented
        return self.shape == other.shape and self.coeffs == other.coeffs


def modified_H(lam, N=None, route="lattice_x"):
    """Coefficient of m_mu in H_lam, for partitions mu of length <= N."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    least = max(len(lam), lam.part(1), 1)
    if N is None:
        N = least
    if N < least:
        raise TooFewVariables(
            "N must be at least max(ell(lambda), ell(lambda')) = %d" % least)
    if route not in ROUTES:
        raise ValueError("route must be one of %s" % (ROUTES,))
    if route == "oracle":
        coeffs = modified_H_oracle(lam, nvars=N).coeffs
    else:
        formula = "x" if route == "lattice_x" else "z"
        coeffs = partition_function_coeffs(lam, N, formula=formula)
    return HResult(lam, coeffs, route)


def modified_HL(lam, N):
    """Kirillov coefficients of the modified Hall-Littlewood polynomial."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if N < len(lam):
        raise TooFewVariables("N must be at least ell(lambda)")
    return partition_function_coeffs(lam, N, formula="hl")


def kostka_qt(lam):
    """Two-parameter Kostka coefficients of H_lam, keyed by Partition."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    sch = basis_convert(modified_H_oracle(lam, nvars=lam.weight()), "schur")
    for nu, poly in sch.coeffs.items():
        if not poly.is_nonnegative():
            raise NegativeCoefficient(
                "Kostka coefficient at %r is not in N[q,t]" % (nu,))
    return sch.coeffs


def duality_check(lam):
    """Coefficientwise transpose duality of the monomial tables."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    conj = conjugate(lam)
    N = max(lam.weight(), 1)
    table = modified_H(lam, N, route="oracle").coeffs
    dual = modified_H(conj, N, route="oracle").coeffs
    pref = ExactPolynomial.monomial({"t": n_stat(lam), "q": n_stat(conj)})
    inv = {"q": ExactPolynomial.monomial({"t": -1}),
           "t": ExactPolynomial.monomial({"q": -1})}
    keys = set(table) | set(dual)
    for mu in keys:
        lhs = table.get(mu, ZERO)
        rhs = pref * dual.get(mu, ZERO).substitute(inv)
        if lhs != rhs:
            return False
    return True


def w_reduction_check(lam, N):
    """All four corner specializations of the two-alphabet W, read from
    W's coefficient table {x exponents + z exponents: (q, t) terms}.

    W is symmetric in x and in z separately: once every entry equals the
    entry at its sorted parts and every orbit is complete, each corner is
    fixed by its coefficient at a partition kappa.  z = 0 and x = 0 keep the
    entries whose other part is empty, z_i = -t x_i sums W[b + c] (-t)^|c|
    and x_i = -q z_i sums W[b + c] (-q)^|b| over the splits b + c = kappa.
    The first two are compared with the lattice H (the paper's formula),
    which shares nothing with W, the last two with J_lam and
    J_{lam'}(t, q)."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    conj = conjugate(lam)
    H = modified_H(lam, N).coeffs
    H_dual = modified_H(conj, N).coeffs
    W = {e: terms for e, terms in _W_table(lam, N).items() if terms}
    orbits = Counter()
    for e, terms in W.items():
        rep = _sorted_parts(e[:N]) + _sorted_parts(e[N:])
        if W.get(rep) != terms:
            return False
        orbits[rep] += 1
    if any(n != _orbit_size(e[:N]) * _orbit_size(e[N:])
           for e, n in orbits.items()):
        return False
    zero = (0,) * N
    for kappa in partitions_of(lam.weight()):
        if len(kappa) > N:
            continue
        k = kappa.padded(N)
        J, J_dual = Counter(), Counter()
        for b in product(*(range(x + 1) for x in k)):
            c = tuple(map(sub, k, b))
            nb, nc = sum(b), sum(c)
            for (i, j), x in W.get(b + c, {}).items():
                J[i, j + nc] += (-1) ** nc * x
                J_dual[i + nb, j] += (-1) ** nb * x
        if (W.get(k + zero, {}) != _qt_terms(H.get(kappa, ZERO))
                or W.get(zero + k, {}) != _swapped(
                    _qt_terms(H_dual.get(kappa, ZERO)))
                or _nonzero(J) != _jcoef(lam, kappa.parts)
                or _nonzero(J_dual) != _swapped(_jcoef(conj, kappa.parts))):
            return False
    return True


def _sorted_parts(e):
    return tuple(sorted(e, reverse=True))


def _orbit_size(e):
    """Number of distinct rearrangements of the exponent tuple e."""
    out = factorial(len(e))
    for n in Counter(e).values():
        out //= factorial(n)
    return out


def _swapped(terms):
    """The (q, t) terms with q and t exchanged."""
    return {(j, i): x for (i, j), x in terms.items()}


def _nonzero(terms):
    return {e: x for e, x in terms.items() if x}


# ---------------------------------------------------------------------------
# Cauchy identities
# ---------------------------------------------------------------------------
#
# Truncated series live in a fixed variable frame: group A = x_1..x_nx,
# z_1..z_nx and group B = y_1..y_ny, w_1..w_ny.  A series is a dict mapping
# exponent tuples (over the frame) to (q, t) numerators over a denominator
# known per group-A degree (see cauchy_check); terms whose group-A or
# group-B degree exceeds the truncation are dropped.  Each numerator is an
# int (packed.QTPacking), or its packed._Bound in a structure pass.

class _Frame:
    def __init__(self, nx, ny, degree):
        self.names = tuple("%s%d" % (a, i) for a, n in (
            ("x", nx), ("z", nx), ("y", ny), ("w", ny))
            for i in range(1, n + 1))
        self.index = {n: i for i, n in enumerate(self.names)}
        self.na = 2 * nx
        self.degree = degree


def _series_mul(frame, a, b, scale):
    """Product of two product-side series: numerators at group-A degrees i
    and j multiply with scale[i, j] = E_{i+j} / (E_i E_j), a product of
    Gaussian binomials.  b's keys are grouped by their group-A and group-B
    degrees, so a pair past the truncation is skipped before its exponent
    tuple is built."""
    out = {}
    na, degree = frame.na, frame.degree
    groups = {}
    for eb, cb in b.items():
        groups.setdefault((sum(eb[:na]), sum(eb[na:])), []).append((eb, cb))
    for ea, ca in a.items():
        da, ga = sum(ea[:na]), sum(ea[na:])
        for (db, gb), entries in groups.items():
            if da + db > degree or ga + gb > degree:
                continue
            cs = ca * scale[da, db]
            for eb, cb in entries:
                e = tuple(map(add, ea, eb))
                c = cs * cb
                got = out.get(e)
                out[e] = c if got is None else got + c
    return out


# factor kind -> the bases b whose (b; b)_m clears its coefficient c_m
_BASES = {"one_plus": "", "pq": "q", "inv_q": "q", "neg_q": "q",
          "inv_t": "t", "neg_t": "t", "inv_qt": "qt", "neg_qt": "qt"}


def _qfactorial(bases, m):
    """prod_{b in bases} (b; b)_m as a multiset of (a, b), each 1 - q^a t^b."""
    return Counter((r, 0) if b == "q" else (0, r)
                   for b in bases for r in range(1, m + 1))


_NUMERATOR_CACHE = {}


@memoized(_NUMERATOR_CACHE)
def _factor_numerators(kind, degree):
    """Numerators n_m of the per-pair factor f(u) = sum c_m u^m, where
    c_m = n_m / prod_{b in _BASES[kind]} (b; b)_m."""
    if kind == "one_plus":
        return [ONE, ONE] + [ZERO] * (degree - 1)
    if kind == "pq":
        # (t u; q)_inf / (u; q)_inf
        return [pochhammer(T, "q", m) for m in range(degree + 1)]
    if kind in ("inv_q", "inv_t"):
        return [ONE] * (degree + 1)
    if kind in ("neg_q", "neg_t"):
        b = sym(_BASES[kind])
        return [b ** (m * (m - 1) // 2) for m in range(degree + 1)]
    if kind in ("inv_qt", "neg_qt"):
        # f(u) = prod_{a,b >= 0} 1 / (1 - u q^a t^b) (inv_qt) or
        # prod (1 + u q^a t^b) (neg_qt) is f(t u) sum_k s_k u^k / (q; q)_k,
        # s_k = 1 or q^(k(k-1)/2); in the numerators n_m that reads
        # n_m = sum_{k=1..m} s_k t^(m-k) [m, k]_q (t^(m-k+1); t)_(k-1) n_(m-k)
        out = [ONE]
        for m in range(1, degree + 1):
            acc = ZERO
            tail = ONE  # (t^(m-k+1); t)_(k-1)
            for k in range(1, m + 1):
                s = k * (k - 1) // 2 if kind == "neg_qt" else 0
                head = ExactPolynomial(("q", "t"), {  # s_k t^(m-k) [m, k]_q
                    (s + i, m - k): c
                    for i, c in enumerate(_binom_list(m, k))})
                acc = acc + head * tail * out[m - k]
                tail = tail * (ONE - ExactPolynomial.monomial({"t": m - k}))
            out.append(acc)
        return out
    raise ValueError("unknown factor kind %r" % (kind,))


def _product_side(frame, factors, bases, qt):
    """The product side as numerators over E_m = prod_{b in bases} (b; b)_m;
    E_{i+j} / (E_i E_j) is a Gaussian binomial in each base.  qt is a
    packed.QTPacking, or packed.QTBounds for the structure pass."""
    degree = frame.degree
    width = len(frame.names)
    one = qt.pack({(0, 0): 1})
    scale = {(i, j): reduce(mul, (qt.binomial(i + j, i, b) for b in bases),
                            one)
             for i in range(degree + 1) for j in range(degree + 1 - i)}
    numerators = {}
    for kind in {kind for _, _, kind in factors}:
        lacks = bases - set(_BASES[kind])
        numerators[kind] = [
            (m, qt.times(qt.pack(_qt_terms(n)), _qfactorial(lacks, m)))
            for m, n in enumerate(_factor_numerators(kind, degree))
            if not n.is_zero()]
    acc = {(0,) * width: one}
    for va, vb, kind in factors:
        fac = {}
        for m, n in numerators[kind]:
            exp = [0] * width
            exp[frame.index[va]] = m
            exp[frame.index[vb]] = m
            fac[tuple(exp)] = n
        acc = _series_mul(frame, acc, fac, scale)
    return acc


# identity -> (left kind, (right kind, alphabet), product-side factors
# (alphabet, alphabet, factor kind)).  The left factor is in x.  Kinds: "J"
# is the integral form J_lam(q, t), "J'" is J_{lam'} with q and t swapped,
# "W" is W_lam (in y, w on the right).  Every sum-side term is the product
# of two of these divided by c_lam c'_lam: J_lam = c_lam P_lam = c'_lam Q_lam
# turns P_lam Q_lam into J J / (c c'), and c_{lam'}(t, q) = c'_lam(q, t)
# turns P_lam P_{lam'}(t, q) into J J' / (c c'), W P_lam / c' into
# W J / (c c') and W P_{lam'}(t, q) / c into W J' / (c c'); the W identity
# divides by c c' itself.
_CAUCHY = {
    "PQ": ("J", ("J", "y"), [("x", "y", "pq")]),
    "dual": ("J", ("J'", "y"), [("x", "y", "one_plus")]),
    "W": ("W", ("W", "y"),
          [("z", "y", "neg_qt"), ("x", "w", "neg_qt"),
           ("x", "y", "inv_qt"), ("z", "w", "inv_qt")]),
    "mixedQ": ("W", ("J", "y"),
               [("z", "y", "neg_q"), ("x", "y", "inv_q")]),
    "mixedP": ("W", ("J'", "w"),
               [("x", "w", "neg_t"), ("z", "w", "inv_t")]),
}


def _admits_shape(kind, lam, n):
    """J needs ell(lam) <= n, J' needs lam_1 <= n; W takes every shape."""
    if kind == "J":
        return len(lam) <= n
    if kind == "J'":
        return lam.part(1) <= n
    return True


def _hooks(lam):
    """Multiset of (a, b) with c_lam c'_lam = prod (1 - q^a t^b); c' has
    (a + 1, l) where c has (a, l + 1)."""
    c = hook_factors(lam)
    return c + Counter({(a + 1, b - 1): k for (a, b), k in c.items()})


_FACTOR_CACHE = {}


@memoized(_FACTOR_CACHE)
def _factor_series(kind, lam, n, second):
    """One sum-side factor as {exponent tuple over its group: terms
    {(q exponent, t exponent): c}}, n letters per alphabet, and a _Bound of
    every entry: W fills both alphabets, J and J' (J_{lam'}, q and t
    swapped) the first, or the second if second is set."""
    if kind == "W":
        series = _W_table(lam, n)
    else:
        pad = (0,) * n
        series = {}
        for mu in partitions_of(lam.weight()):
            if len(mu) > n:
                continue
            c = _jcoef(lam if kind == "J" else conjugate(lam), mu.parts)
            if kind == "J'":
                c = _swapped(c)
            for e in _expand_monomial(mu, n):
                series[pad + e if second else e + pad] = c
    return series, reduce(or_, map(QTBounds.pack, series.values()),
                          _Bound(0, 0))


def _sum_shapes(left, right, second, nx, ny, dens):
    """Per group-A degree m, each shape lam of weight m that both factors
    admit as (A_lam, L_m - hooks(lam), B_lam) from _factor_series, where
    L_m = H_m | dens[m] and H_m is the lcm of those shapes' hook multisets.
    Returns them, the L_m and per m a _Bound of every sum-side numerator:
    sum_lam max||A_lam|| ||prod(L_m - hooks(lam))|| max||B_lam||."""
    groups, lcms, bounds = [], [], []
    for m, den in enumerate(dens):
        hooks = {lam: _hooks(lam) for lam in partitions_of(m)
                 if _admits_shape(left, lam, nx)
                 and _admits_shape(right, lam, ny)}
        lcms.append(reduce(or_, hooks.values(), den))
        groups.append([(_factor_series(left, lam, nx, False), lcms[m] - h,
                        _factor_series(right, lam, ny, second))
                       for lam, h in hooks.items()])
        bounds.append(sum((QTBounds.times(a, h) * b
                           for (_, a), h, (_, b) in groups[m]), _Bound(0, 0)))
    return groups, lcms, bounds


def _sum_side(groups, qt):
    """The sum side as numerators over L_m, sum_lam A_lam prod(L_m -
    hooks(lam)) B_lam, keyed by the group-A exponents then the group-B ones;
    groups from _sum_shapes, qt a packed.QTPacking."""
    series = {}
    for group in groups:
        for (A, _), h, (B, _) in group:
            scale = qt.times(1, h)
            B = [(eb, qt.pack(b)) for eb, b in B.items()]
            for ea, a in A.items():
                a = qt.pack(a) * scale
                for eb, b in B:
                    series[ea + eb] = series.get(ea + eb, 0) + a * b
    return series


def cauchy_check(identity, nx, ny, degree):
    """Verify one of the Cauchy identities at a fixed series truncation.

    Two series compared key by key: at group-A degree m the product side
    holds numerators over E_m = prod_{b in B} (b; b)_m (divided-power form,
    B the bases its factor kinds need) and the sum side over L_m = H_m | E_m
    (_sum_shapes); the former are multiplied by s_m = prod(L_m - E_m).

    Every numerator is an int (packed.QTPacking).  Per m, _Bounds of the
    sum side (_sum_shapes), of the product side (a structure pass through
    the same products) and of s_m come first; QTPacking.comparing picks W
    and T from them, so lhs[e] == rhs[e] s_m holds for the ints exactly
    when it holds for the polynomials, and no digit is decoded.
    """
    if degree < 1:
        raise TruncationTooSmall("degree must be at least 1")
    if nx < 1 or ny < 1:
        raise TooFewVariables("each alphabet needs at least one variable")
    if identity not in _CAUCHY:
        raise ValueError(
            "identity must be one of W, PQ, dual, mixedQ, mixedP")
    frame, lhs, rhs, scale, _ = _cauchy_sides(identity, nx, ny, degree)
    return all(lhs.get(e, 0) == rhs.get(e, 0) * scale[sum(e[:frame.na])]
               for e in set(lhs) | set(rhs))


def _cauchy_sides(identity, nx, ny, degree):
    """The frame, both sides packed, each s_m packed and the packing."""
    frame = _Frame(nx, ny, degree)
    left, (right, alphabet), pairs = _CAUCHY[identity]
    names = {a: [v for v in frame.names if v[0] == a] for a in "xzyw"}
    bases = set("".join(_BASES[kind] for _, _, kind in pairs))
    factors = [(a, b, kind) for pa, pb, kind in pairs
               for a in names[pa] for b in names[pb]]
    dens = [_qfactorial(bases, m) for m in range(degree + 1)]
    groups, lcms, lhs = _sum_shapes(left, right, alphabet == "w", nx, ny,
                                    dens)
    rhs = [_Bound(0, 0)] * (degree + 1)
    for e, b in _product_side(frame, factors, bases, QTBounds).items():
        rhs[sum(e[:frame.na])] |= b
    qt = QTPacking.comparing([(a, b, QTBounds.times(_Bound(1, 0), L - E))
                              for a, b, L, E in zip(lhs, rhs, lcms, dens)])
    return (frame, _sum_side(groups, qt),
            _product_side(frame, factors, bases, qt),
            [qt.times(1, L - E) for L, E in zip(lcms, dens)], qt)
