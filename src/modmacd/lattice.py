"""Lattice-model ingredients: face weights, L/R matrices, fusion, columns,
and the partition-function coefficient extractors.

Each formula's weight (x, dual, Hall-Littlewood) is a product of column
weights, and column_weight is that factor for one column.
partition_function_coeffs multiplies the same per-column pieces: an
exponent (chi_column, chi_prime_column, or the one from _hl_column) and one
factor per cell, or per Gaussian binomial for Hall-Littlewood.  The x and
dual routes sum by a transfer sweep over columns n, ..., 1 (_column_sweep):
its state is the current column's chains, each with a map from partial
composition to polynomial, and each step multiplies in one column weight,
which reads only that column and the one before it.  The Hall-Littlewood
route sums over flags.  The formulas stay independent, each with its own
exponent (x and dual share only the sweep driver and the cached Phi
evaluation), because their agreement is the evidence that each is right."""

from itertools import permutations, product as iproduct
from operator import add

from .combinat import (Partition, SequencePair, _at, _chains, conjugate,
                       enumerate_flags, inversion_number, multiplicity)
from .errors import (ConsistencyError, InfeasibleMultiplicities,
                     InsufficientVariables, TopMismatch)
from .exactalg import (ExactPolynomial, ONE, P, RationalFunction, T,
                       poly_divexact, sym, ZERO)
from .memo import memoized
from .phi import phi_at_one, phi_normalized, phi_prime
from .qseries import fusion_normalizer, gauss_binomial, pochhammer


def _as_poly(x):
    return sym(x) if isinstance(x, str) else x


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


def fundamental_L(j, i, I, K, x="x"):
    """Rank-n bosonic L-matrix element with colour indices j (in), i (out)."""
    I = tuple(I)
    K = tuple(K)
    n = len(I)
    bal = list(I)
    if j >= 1:
        bal[j - 1] += 1
    out = list(K)
    if i >= 1:
        out[i - 1] += 1
    if bal != out:
        return ZERO
    x = _as_poly(x)
    if i == 0:
        return ONE
    tail = sum(I[i:])
    if i == j:
        return x * T ** tail
    if i > j or j == 0:
        return x * (ONE - T ** I[i - 1]) * T ** tail
    return ZERO


def r_matrix(i_a, j_a, i_b, j_b, z="u"):
    """Fundamental R-matrix component as a rational function of (z, t)."""
    if i_a + i_b != j_a + j_b:
        return RationalFunction(ZERO)
    z = _as_poly(z)
    num = T ** int(j_a < i_b) * z ** int(j_a < i_a) \
        * (ONE - T ** int(j_a == i_b) * z ** int(j_a == i_a))
    return RationalFunction(num, ONE - T * z)


def _rcheck_num(i_a, j_a, i_b, j_b, y_over_x_num, x):
    """Numerator of the braided R at argument y/x, cleared by x^2(1-ty/x)."""
    # Rcheck^{i1 j1}_{i2 j2} = R^{i2 j1}_{i1 j2}
    ia, ja, ib, jb = i_b, j_a, i_a, j_b
    if ia + ib != ja + jb:
        return ZERO
    y = y_over_x_num
    num = T ** int(ja < ib)
    num = num * (y if ja < ia else x)
    inner = x if not (ja == ia) else y
    if ja == ib:
        inner = T * inner
    return num * (x - inner)


def rll_check(n, levels, report=None):
    """Verify the RLL exchange relation symbolically in (x, y, t)."""
    x, y = sym("x"), sym("y")
    cache = {}

    def L(j, i, I, K, spec):
        key = (j, i, I, K, spec)
        if key not in cache:
            cache[key] = fundamental_L(j, i, I, K, x=spec)
        return cache[key]

    def shift(I, add, sub):
        out = list(I)
        if add:
            out[add - 1] += 1
        if sub:
            out[sub - 1] -= 1
        if any(v < 0 for v in out):
            return None
        return tuple(out)

    states = list(iproduct(*[range(levels + 1)] * n))
    ok = True
    for I in states:
        for i1, i2, l1, l2 in iproduct(range(n + 1), repeat=4):
            # external out-state fixed by total conservation
            tot = list(I)
            for a in (i1, i2):
                if a:
                    tot[a - 1] += 1
            for b in (l1, l2):
                if b:
                    tot[b - 1] -= 1
            if any(v < 0 for v in tot):
                continue
            Ipp = tuple(tot)
            lhs = ZERO
            rhs = ZERO
            # internal state is summed: it is fixed per term by conservation
            for j1 in range(n + 1):
                for j2 in range(n + 1):
                    r = _rcheck_num(i1, j1, i2, j2, y, x)
                    if not r.is_zero():
                        Ip = shift(I, j1, l1)
                        if Ip is not None:
                            lhs = lhs + r * L(j1, l1, I, Ip, x) \
                                * L(j2, l2, Ip, Ipp, y)
                    r = _rcheck_num(j1, l1, j2, l2, y, x)
                    if not r.is_zero():
                        Ip = shift(I, i1, j1)
                        if Ip is not None:
                            rhs = rhs + L(i1, j1, I, Ip, y) \
                                * L(i2, j2, Ip, Ipp, x) * r
            if lhs != rhs:
                ok = False
                if report is not None:
                    report.append((I, i1, i2, l1, l2))
                else:
                    return False
    return ok


def _words(length, mult, n):
    """All words over 0..n of given length and colour multiplicities."""
    if sum(mult) > length:
        return []
    letters = []
    for c, m in enumerate(mult, start=1):
        letters.extend([c] * m)
    letters.extend([0] * (length - sum(mult)))
    return sorted(set(permutations(letters)))


def fused_vertex_bruteforce(J, lam, mu, lamp, mup, x="x"):
    """Fused vertex from the word sum over fundamental L products."""
    lam, mu = tuple(lam), tuple(mu)
    lamp, mup = tuple(lamp), tuple(mup)
    n = len(lam)
    if sum(lam) > J or sum(mu) > J:
        raise InfeasibleMultiplicities(
            "multiplicities exceed the fusion level")
    x = _as_poly(x)
    total = ZERO
    for jw in _words(J, lam, n):
        winv = inversion_number(tuple(reversed(jw)))
        for lw in _words(J, mu, n):
            state = lamp
            term = ONE
            for k in range(J):
                nxt = list(state)
                if jw[k]:
                    nxt[jw[k] - 1] += 1
                if lw[k]:
                    nxt[lw[k] - 1] -= 1
                if any(v < 0 for v in nxt):
                    term = ZERO
                    break
                term = term * fundamental_L(jw[k], lw[k], state, tuple(nxt),
                                            x=T ** k * x)
                if term.is_zero():
                    break
                state = tuple(nxt)
            if term.is_zero() or state != mup:
                continue
            if winv:
                term = term * ExactPolynomial.monomial({"t": -winv})
            total = total + term
    try:
        return poly_divexact(total, fusion_normalizer(J, lam))
    except ValueError:
        raise ConsistencyError(
            "fused vertex sum not divisible by the normalizer") from None


def fused_L_recurrence(lam, mu, lamp, mup, x="x", z="z"):
    """Fused weight via the colour-peeling recurrence."""
    lam, mu = tuple(lam), tuple(mu)
    lamp, mup = tuple(lamp), tuple(mup)
    if any(a + b != c + d for a, b, c, d in zip(lam, lamp, mu, mup)):
        return ZERO
    x = _as_poly(x)
    z = _as_poly(z)
    n = len(lam)
    if n == 0:
        return ONE
    w = sum(mu)
    out = _b_coef(lam[-1], mu[-1], lamp[-1], mup[-1], x, z, w)
    if out.is_zero():
        return ZERO
    return out * fused_L_recurrence(lam[:-1], mu[:-1], lamp[:-1], mup[:-1],
                                    x=T ** lam[-1] * x, z=z)


def _b_coef(ln, mn, lpn, mpn, x, z, w):
    out = ZERO
    for k in range(mn + 1):
        coef = gauss_binomial(mpn + k, k) * gauss_binomial(lpn, mn - k)
        if coef.is_zero():
            continue
        expo = (k * k - k) // 2 + (w - mn) * (mpn + k - ln)
        term = coef * x ** k * z ** (mn - k)
        out = out + term * ExactPolynomial.monomial({"t": expo})
    return out


# ---------------------------------------------------------------------------
# column weights and coefficient extraction
# ---------------------------------------------------------------------------

_PHI_EVAL_CACHE = {}


@memoized(_PHI_EVAL_CACHE)
def _phi_eval(nu, nut, qexp, texp, dual):
    """Phi (or Phi') evaluated at the monomial argument, in (q, t).

    At argument 1 (qexp == texp == 0, the diagonal cell) the value depends
    on nutilde only and is the closed product phi_at_one, in base q when
    dual.
    """
    if qexp == texp == 0:
        poly = phi_at_one(SequencePair(nut, nut))
        return poly.substitute({"t": sym("q")}) if dual else poly
    sp = SequencePair(nu, nut)
    if dual:
        poly = phi_prime(sp)
        bindings = {"z": ExactPolynomial.monomial({"t": qexp, "q": texp}),
                    "t": sym("q")}
    else:
        poly = phi_normalized(sp)
        bindings = {"z": ExactPolynomial.monomial({"q": qexp, "t": texp})}
    return poly.substitute(bindings)


def _cell_factor(i, j, nu, nut, shape, dual=False):
    """Phi (Phi' when dual) of cell (i, j) at q^(j-i) t^(shape_i - shape_j).

    The diagonal cell has argument 1, where _phi_eval reads nutilde only.
    """
    return _phi_eval(nu, nut, j - i, shape.part(i) - shape.part(j), dual)


def chi_column(i, pairs):
    """Single-column exponent chi(nu, nutilde) for column i.

    pairs: mapping j -> (nu_j, nutilde_j) for j = i..n.
    """
    total = 0
    js = sorted(pairs)
    N = len(pairs[js[0]][0])
    for k in range(1, N + 1):
        for j in js:
            nuj, nutj = pairs[j]
            d = _at(nutj, k) - _at(nutj, k - 1)
            total += d * (d - 1) // 2
            for l in js:
                if l > j:
                    nul, nutl = pairs[l]
                    total += d * (_at(nutl, k) - _at(nul, k - 1))
    return total


def chi_prime_column(i, pairs):
    """Single-column exponent chi'(nu, nutilde) of the dual formula."""
    total = 0
    js = sorted(pairs)
    N = len(pairs[js[0]][0])
    for k in range(1, N + 1):
        for j in js:
            nuj, nutj = pairs[j]
            d = _at(nutj, k) - _at(nutj, k - 1)
            if not d:
                continue
            for l in js:
                if l > j:
                    nul, nutl = pairs[l]
                    total += d * (_at(nutl, k - 1) - _at(nul, k))
    return total


def chi(columns, dual=False):
    """Exponent of a whole family: the sum of its column exponents,
    chi_column (chi_prime_column when dual); columns[i - 1] maps
    j -> (nu_{i+1,j}, nu_{i,j}) for column i.

    The flat reference: partition_function_coeffs takes chi_column per
    column instead; this is kept for the tests and the benchmark tracer."""
    column_chi = chi_prime_column if dual else chi_column
    return sum(column_chi(i, pairs)
               for i, pairs in enumerate(columns, start=1))


def _hl_column(nu, nut):
    """t-exponent and Gaussian binomial factors of one Hall-Littlewood
    column: sum of d(d-1)/2 over the increments d of nutilde, and
    [nutilde_{k+1} - nu_k, nutilde_k - nu_k] for k < N."""
    N = len(nut)
    expo = 0
    for k in range(1, N + 1):
        d = nut[k - 1] - _at(nut, k - 1)
        expo += d * (d - 1) // 2
    binoms = [gauss_binomial(nut[k] - nu[k - 1], nut[k - 1] - nu[k - 1])
              for k in range(1, N)]
    return expo, binoms


def column_weight(i, lam, pairs, variant="x"):
    """Weight of column i as a RationalFunction: the factor column i
    contributes to the partition function of formula 'x' or 'hl', times its
    x-monomial.

    variant 'x': pairs maps j -> (nu_j, nutilde_j) for j = i..n with tops
    equal to the multiplicity of j in lambda, and the weight is over the
    column's normalizer, unreduced (the diagonal factor j = i is read from
    nutilde_i alone); variant 'hl': pairs is a single (nu, nutilde) tuple
    for the column itself.
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    conj = conjugate(lam)
    if variant == "hl":
        nu, nut = pairs
        N = len(nu)
        if nut[-1] != conj.part(i) or nu[-1] != conj.part(i + 1):
            raise TopMismatch(
                "column tops must be the conjugate parts at i, i+1")
        expo, binoms = _hl_column(nu, nut)
        out = T ** expo
        for b in binoms:
            out = out * b
        xs = ExactPolynomial.monomial(
            {"x%d" % k: nut[k - 1] - _at(nut, k - 1)
             for k in range(1, N + 1)})
        return RationalFunction(out * xs)
    if variant != "x":
        raise ValueError("variant must be 'x' or 'hl'")
    n = lam.part(1)
    js = sorted(pairs)
    N = len(pairs[js[0]][0])
    for j in js:
        nu, nut = pairs[j]
        if nu[-1] != multiplicity(lam, j) or nut[-1] != multiplicity(lam, j):
            raise TopMismatch("tops must equal the multiplicity of %d" % j)
    acc = ExactPolynomial.monomial({"t": chi_column(i, pairs)})
    for j in js:
        nu, nut = pairs[j]
        acc = acc * _cell_factor(i, j, tuple(nu), tuple(nut), conj)
    xs = ExactPolynomial.monomial(
        {"x%d" % k: sum(pairs[j][1][k - 1] - _at(pairs[j][1], k - 1)
                        for j in js)
         for k in range(1, N + 1)})
    normalizer = ONE
    for j in range(i + 1, n + 1):
        w = ExactPolynomial.monomial({"q": j - i,
                                      "t": conj.part(i) - conj.part(j)})
        normalizer = normalizer * pochhammer(
            w, "t", conj.part(j) - conj.part(j + 1) + 1)
    return RationalFunction(acc * xs, normalizer)


def partition_function_coeffs(lam, N, formula="x"):
    """Monomial coefficients of the partition function, keyed by Partition.

    formula 'x': t-exponent chi with Phi factors; 'z': dual route with Phi'
    in base q; 'hl': Kirillov flag sum (polynomials in t).  Each term is the
    product over columns of the pieces column_weight is made of.  The x and
    dual sums run as a column sweep (_column_sweep): the state after column
    i maps each tuple of column-i chains nu_{i,j}, j = i..n, to its partial
    compositions and their polynomials; the step to column i multiplies by
    base^chi_column(i) times column i's cell factors, drops transitions
    with a zero factor, and adds column i's increments to the composition.
    Sums resolved by composition are checked for permutation invariance
    before collapsing onto partitions.
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if N < len(lam):
        raise InsufficientVariables("N must be at least ell(lambda)")
    if formula == "hl":
        by_comp = {}
        n = lam.part(1)
        for flag in enumerate_flags(lam, N):
            expo = 0
            factors = []
            for i in range(1, n + 1):
                e, binoms = _hl_column(tuple(f.part(i + 1) for f in flag[1:]),
                                       tuple(f.part(i) for f in flag[1:]))
                expo += e
                factors += binoms
            if any(f.is_zero() for f in factors):
                continue
            coef = T ** expo
            for f in factors:
                coef = coef * f
            mu = tuple(flag[k].weight() - flag[k - 1].weight()
                       for k in range(1, N + 1))
            by_comp[mu] = by_comp.get(mu, ZERO) + coef
    elif formula in ("x", "z"):
        dual = (formula == "z")
        by_comp = _column_sweep(lam if dual else conjugate(lam), N, dual)
    else:
        raise ValueError("formula must be 'x', 'z' or 'hl'")
    return _collapse_compositions(by_comp)


def _column_sweep(shape, N, dual):
    """The x (dual: z) route's sum keyed by composition, column by column
    as partition_function_coeffs describes.

    shape is lambda' (dual: lambda) and n = len(shape).  The chains nu_{i,j}
    have length N and end at shape_j - shape_{j+1}; nu_{i+1,i} is the zero
    chain.
    """
    column_chi = chi_prime_column if dual else chi_column
    base = "q" if dual else "t"
    n = len(shape)
    zero = (0,) * N
    states = {(): {zero: ONE}}
    for i in range(n, 0, -1):
        js = range(i, n + 1)
        choices = list(iproduct(*(_chains(shape.part(j) - shape.part(j + 1),
                                          N) for j in js)))
        sums = {}
        for below, partial in states.items():
            below = (zero,) + below
            for cur in choices:
                pairs = dict(zip(js, zip(below, cur)))
                factors = [_cell_factor(i, j, nu, nut, shape, dual)
                           for j, (nu, nut) in pairs.items()]
                if any(f.is_zero() for f in factors):
                    continue
                weight = ExactPolynomial.monomial(
                    {base: column_chi(i, pairs)})
                for f in factors:
                    weight = weight * f
                acc = sums.setdefault(cur, {})
                for comp, poly in partial.items():
                    acc[comp] = acc.get(comp, ZERO) + poly * weight
        states = {}
        for cur, acc in sums.items():
            inc = [sum(chain[k] - _at(chain, k) for chain in cur)
                   for k in range(N)]
            states[cur] = {tuple(map(add, comp, inc)): poly
                           for comp, poly in acc.items()}
    by_comp = {}
    for partial in states.values():
        for comp, poly in partial.items():
            by_comp[comp] = by_comp.get(comp, ZERO) + poly
    return by_comp


def _collapse_compositions(by_comp):
    """Assert permutation invariance and key results by partitions."""
    out = {}
    for comp, val in by_comp.items():
        key = Partition(tuple(sorted(comp, reverse=True)))
        if key in out:
            if out[key] != val:
                raise ConsistencyError(
                    "composition-resolved coefficients differ at %r" % (comp,))
        else:
            out[key] = val
    return out
