"""Three routes to the polynomial Phi_{nu|nutilde}(z;t), rotation, Phi', g_m.

Sequences are stored 0-based; the paper-style entry nu^k (k = 1..N) is
seq[k-1], with nu^0 = 0.  All returned polynomials live in the symbols
(z, t); callers substitute other symbols as needed.
"""

from itertools import product as iproduct
from math import comb, prod

from .combinat import SequencePair, _at
from .errors import (IndexOutOfRange, NegativeDifference, NegativeInput,
                     TruncationResidual)
from .exactalg import ExactPolynomial, ONE, ZERO, sym
from .memo import memoized
from .qseries import gauss_binomial, pochhammer

Z = sym("z")


def _zpart(poly, d):
    """Coefficient of z^d as a polynomial in t."""
    return poly.coefficient({"z": d})


def _degree_bound(sp):
    """z-degree of Phi: second-to-last entry of nu (0 for N = 1)."""
    return _at(sp.nu, sp.N - 1)


_BINOM_LIST_CACHE = {}


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


# Packed arithmetic at t = 2^W (Kronecker substitution).  A polynomial in t
# whose coefficients are at most B in absolute value is held as its value at
# t = 2^W with W = B.bit_length() + 1, one balanced W-bit digit per
# coefficient: products of polynomials become products of ints, and a value
# is zero exactly when its polynomial is.  Polynomials in (z, t) or (v, t)
# are lists of such ints indexed by the other degree.  Each route takes B
# from the l1 norms of its own inputs, never from its result:
# ||[a, b]_t|| = C(a, b), ||1 - z t^e|| = 2, ||fg|| <= ||f|| ||g|| and
# ||f + g|| <= ||f|| + ||g||.

def _width(l1):
    """Digit width W that decodes every value of l1 norm at most l1."""
    return l1.bit_length() + 1


def _comb(a, b):
    """l1 norm of [a choose b]_t."""
    return comb(a, b) if a >= b >= 0 else 0


def _gauss_at(a, b, W):
    """[a choose b]_t at t = 2^W; 0 unless a >= b >= 0."""
    value = 0
    for c in reversed(_binom_list(a, b)):
        value = (value << W) + c
    return value


def _pochhammer_at(exponents, W):
    """prod over e of (1 - z t^e) at t = 2^W, as a list indexed by z-degree."""
    poly = [1]
    for e in exponents:
        poly = [c - (p << W * e) for c, p in zip(poly + [0], [0] + poly)]
    return poly


def _unpack(rows, W, name):
    """Balanced-digit decode of rows[d] = f_d(2^W) into sum_d name^d f_d(t)."""
    mask, half = (1 << W) - 1, 1 << (W - 1)
    terms = {}
    for d, value in enumerate(rows):
        # A value of L bits has at most L // W + 1 balanced digits.
        for i in range(value.bit_length() // W + 1):
            c = value & mask
            if c >= half:
                c -= mask + 1
            if c:
                terms[(i, d)] = c
            value = (value - c) >> W
    return ExactPolynomial(("t", name), terms)


def phi_series(sp):
    """Truncated-series evaluation of Phi.

    Sums s = 0..D with D = nu^{N-1} + nutilde^N + 2, multiplies by the
    Pochhammer prefactor and asserts that every coefficient above the proven
    degree bound (and inside the trusted window) vanishes.

    The z^s coefficients of the series and of the prefactor are packed at
    t = 2^W; W bounds every z^d coefficient of the product, so the check
    above the degree bound is exact.
    """
    N = sp.N
    nu, nut = sp.nu, sp.nutilde
    bound = _degree_bound(sp)
    top = nut[-1]
    D = bound + top + 2
    pairs = [[(_at(nut, k + 1) - _at(nu, k) + s, _at(nut, k) - _at(nu, k) + s)
              for k in range(N)] for s in range(D + 1)]
    norms = [prod(_comb(a, b) for a, b in row) for row in pairs]
    l1 = max(sum(comb(top + 1, k) * norms[d - k]
                 for k in range(min(d, top + 1) + 1)) for d in range(D + 1))
    W = _width(l1)
    series = [prod(_gauss_at(a, b, W) for a, b in row) for row in pairs]
    # (z; t)_{top+1} = sum_k (-1)^k t^{k(k-1)/2} [top+1 choose k] z^k.
    poch = [(-1) ** k * (_gauss_at(top + 1, k, W) << W * (k * (k - 1) // 2))
            for k in range(top + 2)]
    rows = []
    for d in range(D + 1):
        acc = sum(poch[k] * series[d - k] for k in range(min(d, top + 1) + 1))
        if d <= bound:
            rows.append(acc)
        elif acc:
            raise TruncationResidual(
                "nonzero z^%d coefficient above degree bound %d for %r"
                % (d, bound, sp))
    return _unpack(rows, W, "z")


def phi_finite(sp):
    """Finite-sum evaluation of Phi over sub-tuples lambda <= sigma.

    The term of lambda is z^{|lambda|} t^E times Gaussian binomials times
    prod_j (z t^{p_j}; t)_{sigma_j - lambda_j}; it is packed at t = 2^W.
    """
    N = sp.N
    nu, nut = sp.nu, sp.nutilde
    sigma = [_at(nu, j) - _at(nu, j - 1) for j in range(1, N)]
    terms = []
    l1 = 0
    for lam in iproduct(*[range(s + 1) for s in sigma]):
        tdeg = 0
        pairs = []
        exponents = []  # e of each factor (1 - z t^e)
        partial = 0  # lambda_{1,j-1}
        for j in range(1, N):
            lj = lam[j - 1]
            power = _at(nu, j - 1) - partial
            tdeg += power * lj
            exponents.extend(range(power, power + sigma[j - 1] - lj))
            partial += lj
            pairs.append((sigma[j - 1], lj))
            pairs.append((_at(nut, j + 1) - _at(nu, j) + partial,
                          _at(nut, j) - _at(nu, j) + partial))
        norm = 2 ** len(exponents) * prod(_comb(a, b) for a, b in pairs)
        if norm:
            terms.append((sum(lam), tdeg, pairs, exponents))
            l1 += norm
    W = _width(l1)
    rows = [0] * (sum(sigma) + 1)
    for zdeg, tdeg, pairs, exponents in terms:
        scalar = prod(_gauss_at(a, b, W) for a, b in pairs) << W * tdeg
        for d, c in enumerate(_pochhammer_at(exponents, W), zdeg):
            rows[d] += c * scalar
    return _unpack(rows, W, "z")


def phi_positive(sp):
    """Manifestly positive evaluation of Phi (requires nu <= nutilde)."""
    N = sp.N
    nu, nut = sp.nu, sp.nutilde
    if sp.min_difference() < 0:
        raise NegativeDifference(
            "nutilde < nu somewhere; rotate first: %r" % (sp,))
    sigma = [_at(nu, j) - _at(nu, j - 1) for j in range(1, N)]
    if N == 1:
        return ONE

    # chains S[a] = (S[a][a], ..., S[a][N]) with S[a][N] = sigma_a,
    # nondecreasing; S[a][b] accessed via dict (a, b).
    def chains(a):
        top = sigma[a - 1]
        length = N - a  # free slots b = a..N-1
        result = []

        def rec(prefix, last):
            if len(prefix) == length:
                result.append(tuple(prefix) + (top,))
                return
            for v in range(last, top + 1):
                rec(prefix + [v], v)

        rec([], 0)
        return result

    # First the (z-degree, t-shift, binomials) of each nonzero term and the
    # sum of their l1 norms, then the packed sum at that width.
    terms = []
    l1 = 0
    all_chains = [chains(a) for a in range(1, N)]
    for combo in iproduct(*all_chains):
        S = {}
        for a in range(1, N):
            for off, v in enumerate(combo[a - 1]):
                S[(a, a + off)] = v  # b = a..N
        pairs = []
        eta = 0
        zdeg = 0
        for k in range(1, N):
            zdeg += sigma[k - 1] - S[(k, k)]
            top = _at(nut, k + 1) - sum(S[(a, k + 1)] for a in range(1, k + 1))
            bot = _at(nut, k) - sum(S[(a, k)] for a in range(1, k + 1))
            pairs.append((top, bot))
            for i in range(1, k + 1):
                pairs.append((S[(i, k + 1)], S[(i, k)]))
                eta += (S[(i, k + 1)] - S[(i, k)]) \
                    * (_at(nut, k) - sum(S[(a, k)] for a in range(i, k + 1)))
        norm = prod(_comb(a, b) for a, b in pairs)
        if norm:
            terms.append((zdeg, eta, pairs))
            l1 += norm
    W = _width(l1)
    rows = [0] * (sum(sigma) + 1)
    for zdeg, eta, pairs in terms:
        rows[zdeg] += prod(_gauss_at(a, b, W) for a, b in pairs) << W * eta
    return _unpack(rows, W, "z")


def rotate(sp, k):
    """k-fold rotation; returns (rotated pair, zshift) with
    Phi_sp(z) = z^zshift * Phi_rotated(z)."""
    if not (1 <= k <= sp.N):
        raise IndexOutOfRange("rotation index must be in 1..N")
    zshift = sp.nu[k - 1] - sp.nutilde[k - 1]
    nu, nut = sp.nu, sp.nutilde
    for _ in range(k):
        nu = _rot_once(nu)
        nut = _rot_once(nut)
    return SequencePair(nu, nut), zshift


def _rot_once(seq):
    first, last = seq[0], seq[-1]
    return tuple(v - first for v in seq[1:]) + (last,)


_PHI_CACHE = {}


@memoized(_PHI_CACHE)
def phi_normalized(sp):
    """Phi as a (z,t)-polynomial for an arbitrary pair, rotating if needed."""
    if sp.min_difference() >= 0:
        return phi_positive(sp)
    diffs = [nt - n for n, nt in zip(sp.nu, sp.nutilde)]
    k = diffs.index(min(diffs)) + 1
    rotated, zshift = rotate(sp, k)
    val = ExactPolynomial.monomial({"z": zshift}) * phi_positive(rotated)
    if val.min_degree("z") < 0:
        raise TruncationResidual(
            "rotated evaluation left negative z powers for %r" % (sp,))
    return val


def phi_prime(sp):
    """Phi'_{nu|nutilde}(z;t) = z^{nu^1} Phi_{r(nu)|nutilde}(z;t)."""
    shifted = _rot_once(sp.nu)
    inner = SequencePair(shifted, sp.nutilde)
    return Z ** sp.nu[0] * phi_normalized(inner)


def phi_prime_series(sp):
    """Direct truncated series for Phi' (test oracle for phi_prime)."""
    N = sp.N
    nu, nut = sp.nu, sp.nutilde
    bound = nu[-1]
    D = bound + nut[-1] + 2
    acc = ZERO
    for s in range(D + 1):
        coef = ONE
        for k in range(1, N + 1):
            coef = coef * gauss_binomial(
                _at(nut, k) - _at(nu, k) + s,
                _at(nut, k - 1) - _at(nu, k) + s)
            if coef.is_zero():
                break
        if not coef.is_zero():
            acc = acc + Z ** s * coef
    acc = acc * pochhammer(Z, "t", nut[-1] + 1)
    out = ZERO
    for d in range(D + 1):
        c = _zpart(acc, d)
        if c.is_zero():
            continue
        if d > bound:
            raise TruncationResidual(
                "nonzero z^%d coefficient above bound %d for Phi' of %r"
                % (d, bound, sp))
        out = out + Z ** d * c
    return out


def phi_at_one(sp):
    """Phi at z = 1 via the closed product over binomials of nutilde."""
    out = ONE
    for j in range(1, sp.N):
        out = out * gauss_binomial(_at(sp.nutilde, j + 1), _at(sp.nutilde, j))
    return out


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
        terms = []
        l1 = 0
        for k in range(m + 1):
            pairs = [(m, k)] + [(k + ai, bi) for ai, bi in zip(a, b)]
            norm = 2 ** (m - k) * prod(_comb(x, y) for x, y in pairs)
            if norm:
                terms.append((k, pairs))
                l1 += norm
        W = _width(l1)
        rows = [0] * (m + 1)
        for k, pairs in terms:
            scalar = prod(_gauss_at(x, y, W) for x, y in pairs)
            for d, c in enumerate(_pochhammer_at(range(m - k), W), k):
                rows[d] += c * scalar
        return _unpack(rows, W, "v")
    if form != "positive":
        raise ValueError("form must be 'sum' or 'positive'")
    # Leaves of the recursion: (v-degree, t-degree, binomials); nonzero only.
    n = len(a)
    c = [ai + m - bi for ai, bi in zip(a, b)]
    leaves = []

    def rec(i, prev, pairs, acc_v, acc_t):
        if i > n:
            leaves.append((acc_v, acc_t, pairs))
            return
        for p in range(prev + 1):
            pair = (a[i - 1] + m - prev, c[i - 1] - p)
            if _comb(*pair):
                rec(i + 1, p, pairs + [(prev, p), pair],
                    acc_v + prev - p,
                    acc_t + (prev - p) * (c[i - 1] - p))

    rec(1, m, [], 0, 0)
    W = _width(sum(prod(_comb(x, y) for x, y in pairs)
                   for _, _, pairs in leaves))
    rows = [0] * (m + 1)
    for acc_v, acc_t, pairs in leaves:
        rows[acc_v] += prod(_gauss_at(x, y, W) for x, y in pairs) << W * acc_t
    return _unpack(rows, W, "v")
