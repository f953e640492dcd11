"""Exact references that the tests hold the library against: face weights
of the vertex model, hook products, polynomial helpers, the explicit
monomial expansion and the W reductions on W expanded in full.  They use
none of the library's packed arithmetic, so agreement with them is
evidence; nothing under src/ calls them."""

from collections import Counter
from itertools import accumulate, product as iproduct

from modmacd import symoracle
from modmacd.combinat import Partition, SequencePair, _at, conjugate
from modmacd.errors import (NonPolynomialCoefficient, TooFewVariables,
                            TruncationResidual)
from modmacd.exactalg import (ExactPolynomial, ONE, P, Q, RationalFunction,
                              T, ZERO, sym)
from modmacd.lattice import _as_poly
from modmacd.modmac import modified_H
from modmacd.packed import _qt_terms
from modmacd.phi import phi_positive
from modmacd.qseries import gauss_binomial, pochhammer

Z = sym("z")


class FaceState:
    """Colour occupation counts on the four edges of a face."""

    __slots__ = ("sigma", "sigmatilde", "rho", "rhotilde")

    def __init__(self, sigma, sigmatilde, rho, rhotilde):
        self.sigma = tuple(sigma)
        self.sigmatilde = tuple(sigmatilde)
        self.rho = tuple(rho)
        self.rhotilde = tuple(rhotilde)
        n = len(self.sigma)
        if not (len(self.sigmatilde) == len(self.rho)
                == len(self.rhotilde) == n):
            raise ValueError("edge compositions must share a length")

    def conserves(self):
        return all(s + r == st + rt for s, st, r, rt in
                   zip(self.sigma, self.sigmatilde, self.rho, self.rhotilde))


def weight_hl(sigma, sigmatilde, rho, rhotilde, x="x"):
    """Rank-one face weight of the modified Hall-Littlewood lattice."""
    if sigma + rho != sigmatilde + rhotilde:
        return ZERO
    x = _as_poly(x)
    return T ** (sigmatilde * (sigmatilde - 1) // 2) \
        * gauss_binomial(rhotilde + sigmatilde, rhotilde) \
        * x ** sigmatilde


def weight_fused(f, x="x", z="z"):
    """Fused face weight: polynomial in (x, z, t) via the kappa-sum."""
    if not f.conserves():
        return ZERO
    x = _as_poly(x)
    z = _as_poly(z)
    n = len(f.sigma)
    st, rt, rho, sig = f.sigmatilde, f.rhotilde, f.rho, f.sigma
    out = ZERO
    for kappa in iproduct(*[range(v + 1) for v in st]):
        coef = ONE
        for j in range(n):
            coef = coef * gauss_binomial(rt[j] + kappa[j], kappa[j]) \
                * gauss_binomial(rho[j], st[j] - kappa[j])
            if coef.is_zero():
                break
        if coef.is_zero():
            continue
        expo = sum(k * k - k for k in kappa) // 2
        for l in range(n):
            for j in range(l + 1, n):
                expo += st[l] * (rt[j] + kappa[j]) \
                    - (st[l] - kappa[l]) * sig[j]
        term = coef * x ** sum(kappa) * z ** (sum(st) - sum(kappa))
        if expo >= 0:
            term = term * T ** expo
        else:
            term = term * ExactPolynomial.monomial({"t": expo})
        out = out + term
    return out


def weight_fused_x(f, x="x"):
    """Closed form of the fused weight at z = 0."""
    if not f.conserves():
        return ZERO
    x = _as_poly(x)
    n = len(f.sigma)
    st, rt = f.sigmatilde, f.rhotilde
    tot = sum(st)
    expo = (tot * tot - tot) // 2
    for l in range(n):
        for j in range(l + 1, n):
            expo += st[l] * rt[j]
    coef = ONE
    for j in range(n):
        coef = coef * gauss_binomial(st[j] + rt[j], st[j])
    return T ** expo * coef * x ** tot


def weight_fused_z(f, z="z"):
    """Closed form of the fused weight at x = 0."""
    if not f.conserves():
        return ZERO
    z = _as_poly(z)
    n = len(f.sigma)
    st, rt, rho, sig = f.sigmatilde, f.rhotilde, f.rho, f.sigma
    expo = 0
    for l in range(n):
        for j in range(l + 1, n):
            expo += st[l] * (rt[j] - sig[j])
    coef = ONE
    for j in range(n):
        coef = coef * gauss_binomial(rho[j], st[j])
    if coef.is_zero():
        return ZERO
    term = coef * z ** sum(st)
    if expo >= 0:
        return T ** expo * term
    return ExactPolynomial.monomial({"t": expo}) * term


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
        c = acc.coefficient({"z": d})
        if c.is_zero():
            continue
        if d > bound:
            raise TruncationResidual(
                "nonzero z^%d coefficient above bound %d for Phi' of %r"
                % (d, bound, sp))
        out = out + Z ** d * c
    return out


def phi_by_argmin_rotation(sp):
    """Phi of any valid pair as the positive form of its rotation at the
    first argmin of nutilde - nu, times z^shift: the rotation taken one
    step (nu^2 - nu^1, ..., nu^N - nu^1, nu^N) at a time, and the positive
    form read by phi_positive, which reads no cache."""
    nu, nut = sp.nu, sp.nutilde
    diffs = [b - a for a, b in zip(nu, nut)]
    k = diffs.index(min(diffs)) + 1
    shift = nu[k - 1] - nut[k - 1]
    for _ in range(k):
        nu = tuple(v - nu[0] for v in nu[1:]) + (nu[-1],)
        nut = tuple(v - nut[0] for v in nut[1:]) + (nut[-1],)
    return ExactPolynomial.monomial({"z": shift}) \
        * phi_positive(SequencePair(nu, nut))


def weight_hl_factorization_check(f, x="x"):
    """Fused weight at z=0 vs prefactor times product of rank-one weights."""
    lhs = weight_fused(f, x=x, z=P(0))
    n = len(f.sigma)
    expo = 0
    for l in range(n):
        for j in range(l + 1, n):
            expo += f.sigmatilde[l] * (f.rhotilde[j] + f.sigmatilde[j])
    rhs = T ** expo
    for j in range(n):
        rhs = rhs * weight_hl(f.sigma[j], f.sigmatilde[j],
                              f.rho[j], f.rhotilde[j], x=x)
    return lhs == rhs


def multiplicity(lam, k):
    """Number of parts equal to k (k >= 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    return sum(1 for p in lam.parts if p == k)


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


def factor_product(factors):
    """prod (1 - q^a t^b) over a multiset of (a, b)."""
    out = ONE
    for a, b in factors.elements():
        out = out * (ONE - ExactPolynomial.monomial({"q": a, "t": b}))
    return out


def unpack_rows(rows, W, name="z"):
    """The polynomial in (name, t) with rows[d] = its name^d coefficient at
    t = 2^W, read one balanced digit in [-2^(W-1), 2^(W-1)) at a time."""
    base, half = 1 << W, 1 << (W - 1)
    terms = {}
    for d, value in enumerate(rows):
        i = 0
        while value:
            c = (value + half) % base - half
            if c:
                terms[(d, i)] = c
            value = (value - c) // base
            i += 1
    return ExactPolynomial((name, "t"), terms)


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


def monomial_expand(e, nvars):
    """Explicit polynomial over x_1..x_nvars; every coefficient must be a
    polynomial in q and t over the trivial denominator."""
    e = symoracle.basis_convert(e, "monomial")
    terms = {}
    for mu, c in e.coeffs.items():
        if len(mu) > nvars:
            raise TooFewVariables("partition %r needs more variables" % (mu,))
        if e.width is not None or e.den != (1, Counter()):
            raise NonPolynomialCoefficient(
                "coefficient at %r has a denominator" % (mu,))
        qt = _qt_terms(c)
        for exp in symoracle._expand_monomial(mu, nvars):
            for e_qt, x in qt.items():
                terms[e_qt + exp] = x
    # q, t first keeps the symbols sorted (for nvars < 10)
    return ExactPolynomial(
        ("q", "t") + tuple("x%d" % i for i in range(1, nvars + 1)), terms)


def w_reduction_reference(lam, N):
    """The four corners of W by substitution into W expanded over every
    exponent, compared with J, J' and the lattice H expanded in full."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    conj = conjugate(lam)
    W = symoracle.W_oracle(lam, N)
    xs = ["x%d" % i for i in range(1, N + 1)]
    zs = ["z%d" % i for i in range(1, N + 1)]
    swap_rename = {"q": T, "t": Q}
    swap_rename.update({x: sym(z) for x, z in zip(xs, zs)})

    def lattice_H(shape):
        return monomial_expand(symoracle.SymmetricExpr(
            "monomial", modified_H(shape, N).coeffs), N)

    # z_i = -t x_i  ->  c_lam(q, t) P_lam(x; q, t)
    spec = W.substitute({z: P(-1) * T * sym(x) for x, z in zip(xs, zs)})
    if spec != monomial_expand(symoracle.integral_J(lam, N), N):
        return False
    # x_i = -q z_i  ->  c_{lam'}(t, q) P_{lam'}(z; t, q)
    spec = W.substitute({x: P(-1) * Q * sym(z) for x, z in zip(xs, zs)})
    dual_J = monomial_expand(symoracle.integral_J(conj, N), N).substitute(
        swap_rename)
    if spec != dual_J:
        return False
    # z = 0  ->  H_lam(x; q, t) and x = 0  ->  H_{lam'}(z; t, q)
    if W.substitute({z: P(0) for z in zs}) != lattice_H(lam):
        return False
    spec = W.substitute({x: P(0) for x in xs})
    return spec == lattice_H(conj).substitute(swap_rename)
