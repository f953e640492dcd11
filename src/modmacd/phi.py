"""Three routes to the polynomial Phi_{nu|nutilde}(z;t), rotation, Phi', g_m.

Sequences are stored 0-based; the paper-style entry nu^k (k = 1..N) is
seq[k-1], with nu^0 = 0.  All returned polynomials live in the symbols
(z, t); callers substitute other symbols as needed.
"""

from itertools import accumulate, product as iproduct, repeat
from math import comb, prod
from operator import mul, sub

from .combinat import SequencePair, _at
from .errors import (IndexOutOfRange, NegativeDifference, NegativeInput,
                     TruncationResidual)
from .exactalg import _pruned
from .memo import memoized
# _BINOM_LIST_CACHE stays readable as phi._BINOM_LIST_CACHE
from .packed import (_BINOM_LIST_CACHE, _comb, _digits,  # noqa: F401
                     _gauss_table, _rows_times, _width)


def _degree_bound(sp):
    """z-degree of Phi: second-to-last entry of nu (0 for N = 1)."""
    return _at(sp.nu, sp.N - 1)


# The z^d (or v^d) coefficients of a polynomial in (z, t) or (v, t) are
# packed at t = 2^W (see packed) as a sequence indexed by d; W bounds the l1
# norms of the inputs, in phi_series (the largest series coefficient times
# the 2^(top+1) of its prefactor) and in _packed_rows, the kernel of the
# other term-sum routes, which returns (rows, W, l1) with l1 the summed
# norm that chose W.  That triple is also the one cached form of Phi
# (_POSITIVE_ROWS_CACHE per rotation orbit, _AT_ONE_CACHE); _PHI_CACHE
# holds per pair its orbit's triple and the pair's z-shift, no shifted
# copy.  _decode reads rows at a z-shift into the polynomial that the
# public functions return, and each lattice cell is a view on them: the
# rows object itself, W, l1 and the shift.  Both kernels read their
# binomials from the one packed table of their width (packed._gauss_table),
# one subscript per factor.  phi_series takes its norm from the last row
# alone: with c = a - b, C(a + s, b + s) is 0 while b + s < 0 (or c < 0)
# and C(c + b + s, c) after, nondecreasing in s, so the product at s = D is
# the largest.

def _decode(rows, W, name="z", shift=0):
    """The polynomial in (name, t) with rows[d] = its name^(d + shift)
    coefficient at t = 2^W."""
    return _pruned(("t", name), {(i, d): c
                                 for d, value in enumerate(rows, shift)
                                 for i, c in _digits(value, W)})


_FACTOR_ROWS_CACHE = {}


@memoized(_FACTOR_ROWS_CACHE)
def _factor_rows(exponents, W):
    """prod_{x in exponents} (1 - z t^x) as a tuple of z^i rows at t = 2^W,
    each x the factor (a, b) = (1, x) of _rows_times."""
    return tuple(_rows_times([1], zip(repeat(1), exponents), W))


def _packed_rows(terms):
    """Sum of terms (d, e, pairs, exponents), each standing for
    z^d t^e prod_{(a, b) in pairs} [a, b]_t prod_{x in exponents}
    (1 - z t^x), packed at the width W of their summed l1 norms: returns
    (rows, W, l1) with rows[d] the z^d coefficient at t = 2^W and l1 that
    sum, which bounds the l1 norm of the sum; rows is a tuple, since the
    caches hand it to every caller."""
    kept = []
    l1 = size = 0
    for term in terms:
        d, _, pairs, exponents = term
        norm = 1 << len(exponents)
        for a, b in pairs:
            norm *= comb(a, b) if a >= b >= 0 else 0
        if norm:
            kept.append(term)
            l1 += norm
            size = max(size, d + len(exponents) + 1)
    W = _width(l1)
    gauss = _gauss_table(W)
    rows = [0] * size
    for d, e, pairs, exponents in kept:
        scalar = prod(map(gauss.__getitem__, pairs), start=1 << W * e)
        if exponents:
            for i, c in enumerate(_factor_rows(tuple(exponents), W), d):
                rows[i] += c * scalar
        else:
            rows[d] += scalar
    return tuple(rows), W, l1


def phi_series(sp):
    """Truncated-series evaluation of Phi.

    Sums s = 0..D with D = nu^{N-1} + nutilde^N + 2, multiplies by the
    Pochhammer prefactor and asserts that every coefficient above the proven
    degree bound (and inside the trusted window) vanishes.

    The z^s coefficients of the series are packed at t = 2^W, and the
    prefactor (z; t)_{top+1} = prod_{e <= top} (1 - z t^e) is applied as
    top + 1 passes of a shift and a subtraction.  Each z^d coefficient of
    the product is a signed sum of at most 2^(top+1) shifted series
    coefficients, so W = _width(max_s ||series_s|| << (top + 1)) decodes it
    and the check above the degree bound is exact.  Each factor
    ||[a + s, b + s]_t|| = C(a + s, b + s) is nondecreasing in s, so that
    maximum is the norm of the last series coefficient, s = D.
    """
    nu, nut = (0,) + sp.nu, (0,) + sp.nutilde
    bound = _degree_bound(sp)
    top = nut[-1]
    D = bound + top + 2
    # series_s = prod_k [a_k + s, b_k + s]_t: one column over s per k
    base = [(nut[k + 1] - nu[k], nut[k] - nu[k]) for k in range(sp.N)]
    W = _width(prod(comb(a + D, b + D) if a >= b >= -D else 0
                    for a, b in base) << (top + 1))
    gauss = _gauss_table(W)
    columns = [map(gauss.__getitem__,
                   zip(range(a, a + D + 1), range(b, b + D + 1)))
               for a, b in base]
    rows = list(map(prod, zip(*columns)))
    for e in range(top + 1):
        shift = W * e
        for d in range(D, 0, -1):
            rows[d] -= rows[d - 1] << shift
    for d in range(bound + 1, D + 1):
        if rows[d]:
            raise TruncationResidual(
                "nonzero z^%d coefficient above degree bound %d for %r"
                % (d, bound, sp))
    return _decode(rows[:bound + 1], W)


def phi_finite(sp):
    """Finite-sum evaluation of Phi over sub-tuples lambda <= sigma.

    The term of lambda is z^{|lambda|} t^E times Gaussian binomials times
    prod_j (z t^{p_j}; t)_{sigma_j - lambda_j}.
    """
    N = sp.N
    nu, nut = (0,) + sp.nu, (0,) + sp.nutilde
    sigma = [nu[j] - nu[j - 1] for j in range(1, N)]

    def terms():
        for lam in iproduct(*[range(s + 1) for s in sigma]):
            tdeg = 0
            pairs = []
            exponents = []  # e of each factor (1 - z t^e)
            partial = 0  # lambda_{1,j-1}
            for j in range(1, N):
                lj = lam[j - 1]
                power = nu[j - 1] - partial
                tdeg += power * lj
                exponents.extend(range(power, power + sigma[j - 1] - lj))
                partial += lj
                pairs.append((sigma[j - 1], lj))
                pairs.append((nut[j + 1] - nu[j] + partial,
                              nut[j] - nu[j] + partial))
            yield sum(lam), tdeg, pairs, exponents

    rows, W, _ = _packed_rows(terms())
    return _decode(rows, W)


def _positive_terms(nu, nut):
    """The terms of the manifestly positive form of Phi_{nu|nut} (requires
    nu <= nut), for _packed_rows, as one list.

    A term is a choice of nondecreasing chains S_a = (S_a^a, ..., S_a^N)
    with S_a^N = sigma_a; step k reads only columns k and k+1 of them, so
    the chains are chosen one column at a time, by plain recursion that
    appends each finished term.  Step k has col = (S_1^k, ..., S_k^k),
    nxt = (S_1^{k+1}, ..., S_k^{k+1}) and the binomial [top, bot] with
    bot = nutilde^k - sum(col) and top = nutilde^{k+1} - sum(nxt): a branch
    stops once bot < 0, and only the nxt with
    sum(nxt) <= nutilde^{k+1} - bot, which is top >= bot, are tried.  In
    the last column nxt = sigma, so top = nutilde^N - nu^{N-1} is fixed and
    S_k^k runs over the closed range where 0 <= bot <= top; that range is
    empty when sum(head) < nutilde^{N-1} - top - sigma_{N-1}, so one column
    before the last only the nxt with at least that sum are tried.
    """
    if min(map(sub, nut, nu)) < 0:
        raise NegativeDifference(
            "nutilde < nu somewhere; rotate first: %r | %r" % (nu, nut))
    N = len(nu)
    if N == 1:
        return [(0, 0, (), ())]
    nu, nut = (0,) + nu, (0,) + nut
    sigma = tuple(nu[j] - nu[j - 1] for j in range(1, N))
    last_top = nut[N] - nu[N - 1]
    out = []

    def column(k, head, hsum, zdeg, eta, pairs):
        # head = (S_1^k, ..., S_{k-1}^k) with sum hsum; column k adds
        # new = S_k^k.  rest_i = nutilde^k - sum(col[i:]) weighs the step
        # nxt_i - col_i in eta.
        cap = nut[k] - hsum
        if k + 1 == N:
            for new in range(max(0, cap - last_top),
                             min(sigma[k - 1], cap) + 1):
                col = head + (new,)
                bot = cap - new
                rest = [bot + p for p in accumulate(col, initial=0)]
                out.append((zdeg + sigma[k - 1] - new,
                            eta + sum(map(mul, map(sub, sigma, col), rest)),
                            pairs + ((last_top, bot),)
                            + tuple(zip(sigma, col)), ()))
            return
        gap = nut[k + 1] - nut[k]
        floor = nut[N - 1] - last_top - sigma[N - 2] if k + 2 == N else 0
        for new in range(min(sigma[k - 1], cap) + 1):
            col = head + (new,)
            bot = cap - new
            rest = [bot + p for p in accumulate(col, initial=0)]
            base = eta - sum(map(mul, col, rest))
            # sum(nxt) <= nutilde^{k+1} - bot = sum(col) + gap
            limit = hsum + new + gap
            for nxt in iproduct(*[range(c, min(s, c + gap) + 1)
                                  for c, s in zip(col, sigma)]):
                nsum = sum(nxt)
                if floor <= nsum <= limit:
                    column(k + 1, nxt, nsum, zdeg + sigma[k - 1] - new,
                           base + sum(map(mul, nxt, rest)),
                           pairs + ((nut[k + 1] - nsum, bot),)
                           + tuple(zip(nxt, col)))

    column(1, (), 0, 0, 0, ())
    return out


def phi_positive(sp):
    """Manifestly positive evaluation of Phi (requires nu <= nutilde)."""
    rows, W, _ = _packed_rows(_positive_terms(sp.nu, sp.nutilde))
    return _decode(rows, W)


def _rotation(seq, k):
    """The k-fold rotation of one sequence (1 <= k <= N), k one-step
    rotations (nu^2 - nu^1, ..., nu^N - nu^1, nu^N) in one: the entries
    after nu^k less nu^k, then the first k plus nu^N - nu^k."""
    low = seq[k - 1]
    high = seq[-1] - low
    return tuple([v - low for v in seq[k:]] + [v + high for v in seq[:k]])


def rotate(sp, k):
    """k-fold rotation; returns (rotated pair, zshift) with
    Phi_sp(z) = z^zshift * Phi_rotated(z)."""
    if not (1 <= k <= sp.N):
        raise IndexOutOfRange("rotation index must be in 1..N")
    return (SequencePair(_rotation(sp.nu, k), _rotation(sp.nutilde, k)),
            sp.nu[k - 1] - sp.nutilde[k - 1])


_POSITIVE_ROWS_CACHE = {}


@memoized(_POSITIVE_ROWS_CACHE)
def _positive_rows(nu, nut):
    """The positive form of Phi_{nu|nut} (requires nu <= nut) as
    (rows, W, l1), packed by _packed_rows: one entry per rotation orbit,
    keyed by the orbit's representative (see _phi_view)."""
    return _packed_rows(_positive_terms(nu, nut))


_PHI_CACHE = {}


@memoized(_PHI_CACHE)
def _phi_view(nu, nut):
    """Phi_{nu|nut} for any valid pair as (rows, W, l1, zshift): its
    rotation orbit's _POSITIVE_ROWS_CACHE entry, rows[d] the
    z^(d + zshift) coefficient at t = 2^W.  With equal tops the k-fold
    rotation has nu <= nutilde exactly when k is an argmin of
    nutilde - nu, and then zshift = -min(nutilde - nu) >= 0.  The
    representative is the least such rotation; a rotation shifts the steps
    (nu^1, nu^2 - nu^1, ...) cyclically, and sequences compare as their
    steps do, so it is the tied argmin whose shifted steps of nu, then of
    nutilde, are least, and only it is built."""
    diffs = list(map(sub, nut, nu))
    low = min(diffs)
    k, *ties = [k for k, diff in enumerate(diffs, 1) if diff == low]
    if ties:
        steps = [tuple(map(sub, seq, (0,) + seq)) * 2 for seq in (nu, nut)]
        k = min(k, *ties, key=lambda j: [d[j:j + len(nu)] for d in steps])
    rows, W, l1 = _positive_rows(_rotation(nu, k), _rotation(nut, k))
    if low > 0 and any(rows[:low]):
        raise TruncationResidual(
            "rotated evaluation left negative z powers for %r | %r"
            % (nu, nut))
    return rows, W, l1, -low


def phi_normalized(sp):
    """Phi as a (z,t)-polynomial for an arbitrary pair, rotating if needed."""
    rows, W, _, zshift = _phi_view(sp.nu, sp.nutilde)
    return _decode(rows, W, shift=zshift)


def phi_prime(sp):
    """Phi'_{nu|nutilde}(z;t) = z^{nu^1} Phi_{r(nu)|nutilde}(z;t)."""
    rows, W, _, zshift = _phi_view(_rotation(sp.nu, 1), sp.nutilde)
    return _decode(rows, W, shift=sp.nu[0] + zshift)


_AT_ONE_CACHE = {}


@memoized(_AT_ONE_CACHE)
def _at_one_rows(nut):
    """Phi at z = 1, the closed product prod_j [nutilde^{j+1}, nutilde^j]_t,
    which does not read nu, cached as _packed_rows packs it: the x and dual
    diagonal lattice cells are views on these rows, and no third copy."""
    return _packed_rows(
        [(0, 0, [(nut[j], nut[j - 1]) for j in range(1, len(nut))], ())])


def phi_at_one(sp):
    """Phi at z = 1 via the closed product over binomials of nutilde."""
    rows, W, _ = _at_one_rows(sp.nutilde)
    return _decode(rows, W)


def g_poly(m, a, b, form="sum"):
    """Lemma-g polynomial in (v, t); forms 'sum' and 'positive' agree."""
    a = tuple(a)
    b = tuple(b)
    if m < 0 or any(x < 0 for x in a) or any(x < 0 for x in b):
        raise NegativeInput("g_poly needs nonnegative inputs")
    if len(a) != len(b):
        raise NegativeInput("a and b must have equal length")
    if form == "sum":
        # sum_k v^k (v; t)_{m-k} [m, k] prod_i [k + a_i, b_i]
        rows, W, _ = _packed_rows(
            [(k, 0, [(m, k)] + [(k + ai, bi) for ai, bi in zip(a, b)],
              range(m - k)) for k in range(m + 1)])
        return _decode(rows, W, "v")
    if form != "positive":
        raise ValueError("form must be 'sum' or 'positive'")
    n = len(a)
    c = [ai + m - bi for ai, bi in zip(a, b)]

    def leaves(i, prev, pairs, acc_v, acc_t):
        if i > n:
            yield acc_v, acc_t, pairs, ()
            return
        for p in range(prev + 1):
            pair = (a[i - 1] + m - prev, c[i - 1] - p)
            if _comb(*pair):
                yield from leaves(i + 1, p, pairs + [(prev, p), pair],
                                  acc_v + prev - p,
                                  acc_t + (prev - p) * (c[i - 1] - p))

    rows, W, _ = _packed_rows(leaves(1, m, [], 0, 0))
    return _decode(rows, W, "v")
