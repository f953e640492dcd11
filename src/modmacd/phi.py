"""Three routes to the polynomial Phi_{nu|nutilde}(z;t), rotation, Phi', g_m.

Sequences are stored 0-based; the paper-style entry nu^k (k = 1..N) is
seq[k-1], with nu^0 = 0.  All returned polynomials live in the symbols
(z, t); callers substitute other symbols as needed.
"""

from itertools import product as iproduct

from .combinat import SequencePair, _at
from .errors import (IndexOutOfRange, NegativeDifference, NegativeInput,
                     TruncationResidual)
from .exactalg import ExactPolynomial, ONE, P, T, ZERO, sym
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


def _conv(u, v):
    if not u or not v:
        return []
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    out[i + j] += a * b
    return out


def phi_series(sp):
    """Truncated-series evaluation of Phi.

    Sums s = 0..D with D = nu^{N-1} + nutilde^N + 2, multiplies by the
    Pochhammer prefactor and asserts that every coefficient above the proven
    degree bound (and inside the trusted window) vanishes.

    Coefficients are handled as integer lists in t (one list per z-degree);
    the sparse-polynomial form is assembled only at the end.
    """
    N = sp.N
    nu, nut = sp.nu, sp.nutilde
    bound = _degree_bound(sp)
    top = nut[-1]
    D = bound + top + 2
    series = []
    for s in range(D + 1):
        coef = [1]
        for k in range(N):
            coef = _conv(coef, _binom_list(
                _at(nut, k + 1) - _at(nu, k) + s,
                _at(nut, k) - _at(nu, k) + s))
            if not coef:
                break
        series.append(coef)
    # (z; t)_{top+1} = sum_k (-1)^k t^{k(k-1)/2} [top+1 choose k] z^k.
    poch = []
    for k in range(top + 2):
        shift = k * (k - 1) // 2
        base = _binom_list(top + 1, k)
        poch.append([0] * shift + [(-1) ** k * c for c in base])
    out = ZERO
    for d in range(D + 1):
        acc = []
        for k in range(min(d, top + 1) + 1):
            part = _conv(poch[k], series[d - k])
            if len(part) > len(acc):
                acc.extend([0] * (len(part) - len(acc)))
            for i, c in enumerate(part):
                acc[i] += c
        if not any(acc):
            continue
        if d > bound:
            raise TruncationResidual(
                "nonzero z^%d coefficient above degree bound %d for %r"
                % (d, bound, sp))
        term = {(d, i): c for i, c in enumerate(acc) if c}
        out = out + ExactPolynomial(("z", "t"), term)
    return out


def phi_finite(sp):
    """Finite-sum evaluation of Phi over sub-tuples lambda <= sigma."""
    N = sp.N
    nu, nut = sp.nu, sp.nutilde
    sigma = [_at(nu, j) - _at(nu, j - 1) for j in range(1, N)]
    out = ZERO
    for lam in iproduct(*[range(s + 1) for s in sigma]):
        term = ONE
        partial = 0  # lambda_{1,j-1}
        for j in range(1, N):
            lj = lam[j - 1]
            power = _at(nu, j - 1) - partial
            w = Z * T ** power
            term = term * w ** lj \
                * pochhammer(w, "t", sigma[j - 1] - lj) \
                * gauss_binomial(sigma[j - 1], lj)
            partial += lj
            term = term * gauss_binomial(
                _at(nut, j + 1) - _at(nu, j) + partial,
                _at(nut, j) - _at(nu, j) + partial)
            if term.is_zero():
                break
        out = out + term
    return out


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

    out = ZERO
    all_chains = [chains(a) for a in range(1, N)]
    for combo in iproduct(*all_chains):
        S = {}
        for a in range(1, N):
            for off, v in enumerate(combo[a - 1]):
                S[(a, a + off)] = v  # b = a..N
        term = ONE
        eta = 0
        zdeg = 0
        for k in range(1, N):
            zdeg += sigma[k - 1] - S[(k, k)]
            top = _at(nut, k + 1) - sum(S[(a, k + 1)] for a in range(1, k + 1))
            bot = _at(nut, k) - sum(S[(a, k)] for a in range(1, k + 1))
            term = term * gauss_binomial(top, bot)
            if term.is_zero():
                break
            for i in range(1, k + 1):
                term = term * gauss_binomial(S[(i, k + 1)], S[(i, k)])
                if term.is_zero():
                    break
                eta += (S[(i, k + 1)] - S[(i, k)]) \
                    * (_at(nut, k) - sum(S[(a, k)] for a in range(i, k + 1)))
            if term.is_zero():
                break
        if term.is_zero():
            continue
        out = out + Z ** zdeg * T ** eta * term
    return out


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
    n = len(a)
    v = sym("v")
    if form == "sum":
        out = ZERO
        for k in range(m + 1):
            term = v ** k * pochhammer(v, "t", m - k) * gauss_binomial(m, k)
            for ai, bi in zip(a, b):
                term = term * gauss_binomial(k + ai, bi)
                if term.is_zero():
                    break
            out = out + term
        return out
    if form != "positive":
        raise ValueError("form must be 'sum' or 'positive'")
    c = [ai + m - bi for ai, bi in zip(a, b)]
    out = ZERO

    def rec(i, prev, acc_term, acc_v, acc_t):
        nonlocal out
        if i > n:
            out = out + v ** acc_v * T ** acc_t * acc_term
            return
        for p in range(prev + 1):
            term = acc_term * gauss_binomial(prev, p) \
                * gauss_binomial(a[i - 1] + m - prev, c[i - 1] - p)
            if term.is_zero():
                continue
            rec(i + 1, p, term,
                acc_v + prev - p,
                acc_t + (prev - p) * (c[i - 1] - p))

    rec(1, m, ONE, 0, 0)
    return out
