"""Ground-truth symmetric-function computations in explicit variables.

Integral form J by the branching rule over hook-factor multisets (one exact
division per coefficient), Macdonald P = J / c, plethystic evaluations, and
basis conversions (monomial / power-sum / Schur).

Every expression the oracle builds is homogeneous, so a SymmetricExpr holds
numerators over one known denominator, an integer k times a multiset D of
factors 1 - q^a t^b.  Every step between bases is one integer matrix
(_transitions: power sums and Schur functions to and from monomials) that
_combine applies to the numerators, the matrix's k multiplied into k; the
plethysm adds its factors 1 - t^r to D, so no sum ever cross-multiplies.

Numerators are ExactPolynomials, or QRows in a packed expression: each
q-coefficient a t-polynomial at t = 2^W (packed._width, packed._digits and
packed._rows_times are all of packed that the oracle shares with Phi and
the lattice; tests/test_sharing.py lists every shared function).
The H table and W are one pipeline (_plethysm_table): J packed straight
from its coefficient terms at a W taken from an l1 bound carried through
every step, the plethysm, one matrix to the final basis (monomials for H,
the x and z alphabets for W), and _cleared, which divides a numerator by
its denominator with one integer divmod per q-row and raises when the
coefficient is not a polynomial.
"""

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import comb, lcm
from operator import or_

from .combinat import Partition, partitions_of
from .errors import (NegativeCoefficient, NonPolynomialCoefficient,
                     TooFewVariables)
from .exactalg import ExactPolynomial
from .memo import memoized
from .packed import _digits, _rows_times, _width
from .qseries import hook_factors


_PSI_CACHE = {}


@memoized(_PSI_CACHE)
def _psi_factors(lam, mu):
    """psi_{lam/mu} on a horizontal strip as cancelled multisets (num, den)
    of (a, b), each 1 - q^a t^b: each ratio f(q^a t^m) / f(q^b t^m) gives
    prod_{a <= k < b} (1 - q^k t^(m+1)) / (1 - q^(k+1) t^m), inverted if a > b.
    """
    num, den = Counter(), Counter()
    for j in range(1, len(mu) + 1):
        for i in range(1, j + 1):
            m = j - i
            for a, b in ((mu.part(i) - mu.part(j), lam.part(i) - mu.part(j)),
                         (lam.part(i) - lam.part(j + 1),
                          mu.part(i) - lam.part(j + 1))):
                up, down = (num, den) if a <= b else (den, num)
                for k in range(min(a, b), max(a, b)):
                    up[(k, m + 1)] += 1
                    down[(k + 1, m)] += 1
    return num - den, den - num


def _strips_removing(lam, d):
    """Horizontal strips mu <= lam with |lam| - |mu| = d."""
    n = len(lam)
    out = []

    def rec(i, prefix, removed):
        if i > n:
            if removed == d:
                out.append(Partition(prefix))
            return
        lo = lam.part(i + 1)
        hi = lam.part(i)
        for v in range(lo, hi + 1):
            if removed + (hi - v) <= d:
                rec(i + 1, prefix + [v], removed + (hi - v))

    rec(1, [], 0)
    return out


_PCOEF_CACHE = {}


@memoized(_PCOEF_CACHE)
def _jcoef(lam, mu):
    """Coefficient of x^mu in J_lam(x_1..x_len(mu)) as terms
    {(q exponent, t exponent): c}; mu a partition's parts.

    J_lam = sum_kappa x_n^|lam/kappa| J_kappa c_lam psi_{lam/kappa} / c_kappa,
    each factor a pair of cancelled multisets; the terms are summed over the
    lcm L of their denominators on packed integers, and _cleared divides
    the sum by prod(L).  W fits the sum's l1 bound f times C(D + m, m) 2^m,
    D the quotient's total degree and m = |L|: the coefficients of
    prod 1 / (1 - q^a t^b) count compositions, so g and g prod(L) fit too.
    """
    if not mu:
        return {} if lam.parts else {(0, 0): 1}
    if sum(mu) != lam.weight() or len(lam) > len(mu):
        return {}
    hooks = hook_factors(lam)
    terms = []
    lcm = Counter()
    for kappa in _strips_removing(lam, mu[-1]):
        sub = _jcoef(kappa, mu[:-1])
        if sub:
            num, den = _psi_factors(lam, kappa)
            num, den = num + hooks, den + hook_factors(kappa)
            terms.append((sub, num - den, den - num))
            lcm |= den - num
    terms = [(sub, num + (lcm - den)) for sub, num, den in terms]
    f = D = 0
    for sub, extra in terms:
        f += sum(map(abs, sub.values())) << sum(extra.values())
        D = max(D, max(map(sum, sub)) + sum(map(sum, extra.elements()))
                - sum(map(sum, lcm.elements())))
    m = sum(lcm.values())
    W = _width(f * comb(D + m, m) << m)
    total = QRows([0])
    for sub, extra in terms:
        total = total + QRows(_rows_times(_rows(sub, W), extra.elements(), W))
    return _cleared(total, (1, lcm), W,
                    "J_%r coefficient at %r" % (lam, mu))


_KOSTKA_CACHE = {}


@memoized(_KOSTKA_CACHE)
def kostka_number(lam, mu):
    """Number of semistandard tableaux of shape lam and content mu."""
    if not mu:
        return 1 if not lam.parts else 0
    if sum(mu) != lam.weight() or len(lam) > len(mu):
        return 0
    return sum(kostka_number(kappa, mu[:-1])
               for kappa in _strips_removing(lam, mu[-1]))


class QRows:
    """A (q, t) polynomial as its q-coefficients, each a t-polynomial at
    t = 2^W (the SymmetricExpr holding it keeps W)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows

    def __add__(self, other):
        a, b = sorted((self.rows, other.rows), key=len)
        return QRows([x + y for x, y in zip(a, b)] + b[len(a):])

    def __mul__(self, k):
        """Times an integer or a t-polynomial packed at the same W."""
        return QRows([x * k for x in self.rows])

    def is_zero(self):
        return not any(self.rows)


BASES = ("monomial", "powersum", "schur")


class SymmetricExpr:
    """Finite homogeneous combination of basis elements: coeffs maps
    partitions to numerators over k prod_D (1 - q^a t^b), den = (k, D).
    The numerators are ExactPolynomials when width is None, else QRows at
    t = 2^width."""

    __slots__ = ("basis", "coeffs", "den", "width")

    def __init__(self, basis, coeffs, den=(1, Counter()), width=None):
        if basis not in BASES:
            raise ValueError("unknown basis %r" % (basis,))
        self.basis = basis
        self.coeffs = {k if isinstance(k, Partition) else Partition(k): v
                       for k, v in coeffs.items() if not v.is_zero()}
        self.den = den
        self.width = width


def integral_J(lam, nvars):
    """Integral form J_lam in the monomial basis (polynomial coefficients)."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if nvars < len(lam):
        raise TooFewVariables("need at least ell(lambda) variables")
    coeffs = {mu: ExactPolynomial(("q", "t"), _jcoef(lam, mu.parts))
              for mu in partitions_of(lam.weight()) if len(mu) <= nvars}
    return SymmetricExpr("monomial", coeffs)


def macdonald_P(lam, nvars):
    """Macdonald polynomial P_lam = J_lam / c_lam in the monomial basis."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    return SymmetricExpr("monomial", integral_J(lam, nvars).coeffs,
                         (1, hook_factors(lam)))


# ---------------------------------------------------------------------------
# explicit expansion and basis transitions
# ---------------------------------------------------------------------------

def _expand_monomial(mu, nvars):
    """m_mu as an integer dict exponent-tuple -> 1 over x_1..x_nvars."""
    padded = mu.padded(nvars)
    return {e: 1 for e in set(permutations(padded))}


def _expand_powersum(lam, n):
    """p_lam with each p_r replaced by p_r(x) + (-1)^(r+1) p_r(z), as an
    integer dict exponent-tuple -> coefficient over x_1..x_n, z_1..z_n."""
    acc = {(0,) * (2 * n): 1}
    for r in lam.parts:
        sign = 1 if r % 2 else -1
        new = {}
        for e, c in acc.items():
            for i in range(2 * n):
                key = e[:i] + (e[i] + r,) + e[i + 1:]
                new[key] = new.get(key, 0) + (c if i < n else sign * c)
        acc = new
    return {e: c for e, c in acc.items() if c}


def _fillings(lam, mu):
    """Coefficient of m_mu in p_lam: the maps from the parts of lam to the
    parts of mu that fill each part of mu exactly."""
    states = {mu.parts: 1}
    for r in lam.parts:
        new = {}
        for rest, c in states.items():
            for j, x in enumerate(rest):
                if x >= r:
                    key = rest[:j] + (x - r,) + rest[j + 1:]
                    new[key] = new.get(key, 0) + c
        states = new
    return states.get((0,) * len(mu), 0)


def _inverse(matrix, order):
    """(k M^-1, k) for M = matrix {a: {b: n}}, k the lcm of the denominators
    of M^-1, by forward substitution along order, in which every b != a of
    M[a] comes before a: b_a = sum_c M[a][c] c_c gives
    c_a = (b_a - sum_{c != a} M[a][c] c_c) / M[a][a]."""
    inv = {}
    for a in order:
        row = {a: Fraction(1)}
        for b, n in matrix[a].items():
            if b != a:
                for c, x in inv[b].items():
                    row[c] = row.get(c, 0) - n * x
        inv[a] = {c: x / matrix[a][a] for c, x in row.items() if x}
    k = lcm(*(x.denominator for row in inv.values() for x in row.values()))
    return {a: {c: int(x * k) for c, x in row.items()}
            for a, row in inv.items()}, k


_TRANSITION_CACHE = {}


@memoized(_TRANSITION_CACHE)
def _transitions(d):
    """The transition matrices at degree d (Macdonald, ch. I §6), keyed
    (source basis, target basis): (M, k) with b_a = sum_c M[a][c] c_c / k
    for b the source basis and c the target basis.

    p_lam = sum_mu _fillings(lam, mu) m_mu, every mu != lam shorter than
    lam; s_lam = sum_mu K(lam, mu) m_mu (Kostka), every mu != lam below lam
    in lexicographic order, so its inverse has k = 1.
    """
    plist = partitions_of(d)
    p_in_m = {lam: {mu: c for mu in plist if (c := _fillings(lam, mu))}
              for lam in plist}
    s_in_m = {lam: {mu: c for mu in plist
                    if (c := kostka_number(lam, mu.parts))} for lam in plist}
    return {("powersum", "monomial"): (p_in_m, 1),
            ("monomial", "powersum"): _inverse(p_in_m,
                                               sorted(plist, key=len)),
            ("schur", "monomial"): (s_in_m, 1),
            ("monomial", "schur"): _inverse(
                s_in_m, sorted(plist, key=lambda p: p.parts))}


def _combine(coeffs, matrix):
    """The integer combination {c: sum_a coeffs[a] matrix[a][c]} of the
    numerators coeffs (ExactPolynomials or QRows)."""
    out = {}
    for a, f in coeffs.items():
        for c, n in matrix[a].items():
            got = out.get(c)
            out[c] = f * n if got is None else got + f * n
    return out


def basis_convert(e, target):
    """Exact change of basis between monomial, powersum and schur, through
    the monomials when neither end is: the numerators (ExactPolynomials or
    QRows) combined by the transition matrix, whose k multiplies into the
    denominator."""
    if target not in BASES:
        raise ValueError("unknown basis %r" % (target,))
    if e.basis == target:
        return e
    if not e.coeffs:  # zero in every basis
        return SymmetricExpr(target, {}, e.den, e.width)
    if "monomial" not in (e.basis, target):
        e = basis_convert(e, "monomial")
    d = next(iter(e.coeffs)).weight()  # e is homogeneous
    matrix, k = _transitions(d)[e.basis, target]
    k_e, factors = e.den
    return SymmetricExpr(target, _combine(e.coeffs, matrix),
                         (k_e * k, factors), e.width)


# ---------------------------------------------------------------------------
# packed numerators and plethystic evaluations
# ---------------------------------------------------------------------------

def _rows(terms, W):
    """The q-rows at t = 2^W of the terms {(q exponent, t exponent): c}."""
    rows = [0] * (max((i for i, _ in terms), default=0) + 1)
    for (i, j), c in terms.items():
        rows[i] += c << W * j
    return rows


def _spread(matrix):
    """The l1 growth of the integer combination {source: {target: n}}."""
    out = Counter()
    for row in matrix.values():
        out.update({key: abs(n) for key, n in row.items()})
    return max(out.values())


def _packed_J(lam, spread):
    """J_lam in the monomial basis, its coefficients _jcoef packed at a W
    where every quotient the oracle takes decodes; spread is the l1 growth
    (_spread) of the matrix that follows the plethysm.

    A final numerator has ||f|| <= B, the largest ||J_mu|| times each
    step's growth (to power sums; 2^m for the m factors 1 - t^r of the
    largest lcm at degree d; spread).  Its quotient g by h = k prod
    (1 - t^r) has at most J's t-degree T and |g_j| <= ||f|| C(T + m, m) / k
    (prod 1 / (1 - t^r) counts compositions), and ||h|| <= k 2^m: at
    W = width(B C(T + m, m) 2^m), f and g h pack faithfully (_cleared).
    """
    d = lam.weight()
    J = {mu: c for mu in partitions_of(d) if (c := _jcoef(lam, mu.parts))}
    m = sum(d // r for r in range(1, d + 1))
    B = max(sum(map(abs, c.values())) for c in J.values()) \
        * _spread(_transitions(d)["monomial", "powersum"][0]) * spread << m
    T = max(t for c in J.values() for _, t in c)
    W = _width(B * comb(T + m, m) << m)
    return SymmetricExpr("monomial", {mu: QRows(_rows(c, W))
                                      for mu, c in J.items()}, width=W)


def _plethysm_factors(lam):
    """p_lam[X / (1 - t)] = p_lam / prod (1 - q^a t^b) over these (a, b)."""
    return Counter((0, r) for r in lam.parts)


def _plethysm_lcm(ps):
    """The lcm multiset of _plethysm_factors over ps."""
    return reduce(or_, map(_plethysm_factors, ps.coeffs), Counter())


def _cleared(num, den, W, what):
    """num / (k prod (1 - q^a t^b)) for QRows num at t = 2^W and
    den = (k, multiset of (a, b)), as terms keyed (q exponent, t exponent).

    A factor with a > 0 is divided out by the row recurrence
    g_i = f_i + t^b g_{i-a}, whose last a rows must vanish; the rest,
    k prod (1 - t^b), by one integer divmod per row.  A nonzero row or
    remainder, or a quotient digit c with |c| ||h|| >= 2^(W-1), raises.
    Otherwise g h and num agree row by row as integers and both pack
    faithfully (num at a width that fits it), so g h = num.
    """
    k, factors = den
    rows = list(num.rows)
    for a, b in factors.elements():
        if a:
            for i in range(a, len(rows)):
                rows[i] += rows[i - a] << W * b
            top = max(len(rows) - a, 0)
            if any(rows[top:]):
                raise NonPolynomialCoefficient("%s not polynomial" % what)
            del rows[top:]
    h, = _rows_times([k], (f for f in factors.elements() if not f[0]), W)
    h_l1 = abs(k) << sum(factors.values())
    out = {}
    for i, value in enumerate(rows):
        g, r = divmod(value, h)
        row = {(i, j): c for j, c in _digits(g, W)}
        if r or any(abs(c) * h_l1 >> W - 1 for c in row.values()):
            raise NonPolynomialCoefficient("%s not polynomial" % what)
        out.update(row)
    return out


def plethysm_eval(e):
    """p_r -> p_r / (1 - t^r) on a packed expression, in the power-sum
    basis: D gains the lcm L of the plethysm factors of the terms, and the
    numerator of p_lam is multiplied by the packed factors of L that p_lam
    lacks."""
    if e.width is None:
        raise ValueError("plethysm_eval takes a packed expression")
    ps = basis_convert(e, "powersum")
    lcm = _plethysm_lcm(ps)
    k, own = ps.den
    return SymmetricExpr("powersum", {
        lam: QRows(_rows_times(
            c.rows, (lcm - _plethysm_factors(lam)).elements(), e.width))
        for lam, c in ps.coeffs.items()}, (k, own + lcm), e.width)


def _plethysm_table(lam, after, what):
    """J_lam packed, p_r -> p_r / (1 - t^r), combined by the matrix after
    (rows keyed by the power sums) and cleared: each key of after's rows
    mapped to its terms {(q exponent, t exponent): c}, all positive."""
    J = _packed_J(lam, _spread(after))
    pleth = plethysm_eval(J)
    table = {}
    for key, c in _combine(pleth.coeffs, after).items():
        where = "%s coefficient at %r" % (what, key)
        table[key] = terms = _cleared(c, pleth.den, J.width, where)
        if any(x < 0 for x in terms.values()):
            raise NegativeCoefficient(where + " has a negative term")
    return table


_H_TABLE_CACHE = {}


@memoized(_H_TABLE_CACHE)
def _oracle_table(lam):
    """Every monomial coefficient of H_lam, by plethysm on J_lam."""
    p_in_m, _ = _transitions(lam.weight())["powersum", "monomial"]
    return {mu: ExactPolynomial(("q", "t"), terms)
            for mu, terms in _plethysm_table(lam, p_in_m, "H").items()}


def modified_H_oracle(lam, nvars=None):
    """Modified Macdonald polynomial via plethysm on the integral form:
    the table at |lambda| variables restricted to ell(mu) <= nvars."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if nvars is None:
        nvars = lam.weight()
    if nvars < len(lam):
        raise TooFewVariables("need nvars >= ell(lambda)")
    table = _oracle_table(lam)
    return SymmetricExpr("monomial", {mu: c for mu, c in table.items()
                                      if len(mu) <= nvars})


def _W_table(lam, N):
    """W_lam's coefficients: each exponent tuple over x_1..x_N, z_1..z_N
    mapped to its terms {(q exponent, t exponent): c}, all positive; after
    the plethysm each p_r becomes p_r(x) + (-1)^(r+1) p_r(z)."""
    return _plethysm_table(lam, {nu: _expand_powersum(nu, N)
                                 for nu in partitions_of(lam.weight())}, "W")


def W_oracle(lam, N):
    """W polynomial over x_1..x_N, z_1..z_N, q, t with positive coefficients."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    # q, t first keeps the symbols sorted (for N < 10)
    names = tuple(["q", "t"] + ["x%d" % i for i in range(1, N + 1)]
                  + ["z%d" % i for i in range(1, N + 1)])
    return ExactPolynomial(names, {qt + exp: x for exp, terms
                                   in _W_table(lam, N).items()
                                   for qt, x in terms.items()})
