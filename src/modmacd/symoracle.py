"""Ground-truth symmetric-function computations in explicit variables.

Integral form J by the branching rule over hook-factor multisets (one exact
division per coefficient), Macdonald P = J / c, plethystic evaluations, and
triangular basis conversions (monomial / power-sum / Schur).  Integer linear
algebra uses fractions.Fraction.

A SymmetricExpr holds polynomial numerators and one known denominator per
degree d, an integer k_d times a multiset D_d of factors 1 - q^a t^b.  A
basis conversion acts on the numerators only (from monomials to power sums
it multiplies an integer into k_d), and a plethysm adds its factors 1 - t^r
to D_d, so no sum ever cross-multiplies.  _cleared divides a numerator by
its denominator exactly (qseries.divide_factors) and raises when the
coefficient is not a polynomial; every oracle result goes through it.
"""

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import lcm

from .combinat import Partition, partitions_of
from .errors import (NegativeCoefficient, NonPolynomialCoefficient,
                     SingularConversion, TooFewVariables)
from .exactalg import (ExactPolynomial, ONE, P, poly_divexact,
                       RationalFunction, RF_ZERO, ZERO)
from .memo import memoized
from .qseries import divide_factors, factor_product, hook_factors


def horizontal_strip(lam, mu):
    """mu <= lam interlacing: lam_1 >= mu_1 >= lam_2 >= mu_2 >= ..."""
    n = max(len(lam), len(mu))
    for i in range(1, n + 1):
        if not (lam.part(i) >= mu.part(i) >= lam.part(i + 1)):
            return False
    return True


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


def psi_coefficient(lam, mu):
    """Branching coefficient psi_{lam/mu}(q,t); 0 off horizontal strips."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if not isinstance(mu, Partition):
        mu = Partition(mu)
    if not horizontal_strip(lam, mu):
        return RF_ZERO
    num, den = _psi_factors(lam, mu)
    return RationalFunction(factor_product(num), factor_product(den))


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
    """Coefficient of x^mu in J_lam(x_1..x_len(mu)); mu a partition's parts.

    J_lam = sum_kappa x_n^|lam/kappa| J_kappa c_lam psi_{lam/kappa} / c_kappa,
    each factor a pair of cancelled multisets; the terms are summed over the
    lcm L of their denominators, and prod(L) divides the sum exactly.
    """
    if not mu:
        return ZERO if lam.parts else ONE
    if sum(mu) != lam.weight() or len(lam) > len(mu):
        return ZERO
    hooks = hook_factors(lam)
    terms = []
    lcm = Counter()
    for kappa in _strips_removing(lam, mu[-1]):
        sub = _jcoef(kappa, mu[:-1])
        if not sub.is_zero():
            num, den = _psi_factors(lam, kappa)
            num, den = num + hooks, den + hook_factors(kappa)
            terms.append((sub, num - den, den - num))
            lcm |= den - num
    total = ZERO
    for sub, num, den in terms:
        total = total + sub * factor_product(num + (lcm - den))
    try:
        return divide_factors(total, lcm)
    except ValueError:
        raise NonPolynomialCoefficient(
            "J_%r coefficient at %r did not clear" % (lam, mu)) from None


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


class SymmetricExpr:
    """Finite combination of basis elements: coeffs maps partitions to
    numerators over k_d prod_{D_d} (1 - q^a t^b) per degree d, where dens
    maps d to (k_d, D_d); a missing degree means (1, Counter())."""

    __slots__ = ("basis", "coeffs", "nvars", "dens")

    def __init__(self, basis, coeffs, nvars, dens=None):
        if basis not in ("monomial", "powersum", "schur"):
            raise ValueError("unknown basis %r" % (basis,))
        self.basis = basis
        self.coeffs = {k if isinstance(k, Partition) else Partition(k): v
                       for k, v in coeffs.items() if not v.is_zero()}
        self.nvars = nvars
        self.dens = dict(dens or {})

    def den(self, d):
        """(k_d, D_d) of degree d."""
        return self.dens.get(d, (1, Counter()))

    def degree_parts(self):
        out = {}
        for lam, c in self.coeffs.items():
            out.setdefault(lam.weight(), {})[lam] = c
        return out


def integral_J(lam, nvars):
    """Integral form J_lam in the monomial basis (polynomial coefficients)."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if nvars < len(lam):
        raise TooFewVariables("need at least ell(lambda) variables")
    coeffs = {mu: _jcoef(lam, mu.parts)
              for mu in partitions_of(lam.weight()) if len(mu) <= nvars}
    return SymmetricExpr("monomial", coeffs, nvars)


def macdonald_P(lam, nvars):
    """Macdonald polynomial P_lam = J_lam / c_lam in the monomial basis."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    return SymmetricExpr("monomial", integral_J(lam, nvars).coeffs, nvars,
                         {lam.weight(): (1, hook_factors(lam))})


# ---------------------------------------------------------------------------
# explicit expansion and basis transitions
# ---------------------------------------------------------------------------

def _expand_monomial(mu, nvars):
    """m_mu as an integer dict exponent-tuple -> 1 over x_1..x_nvars."""
    padded = mu.padded(nvars)
    return {e: 1 for e in set(permutations(padded))}


def _expand_powersum(lam, nvars, nz=0):
    """p_lam as an integer dict exponent-tuple -> coefficient over
    x_1..x_nvars, followed by z_1..z_nz where p_r(z) enters with sign
    (-1)^(r+1): each p_r becomes p_r(x) + (-1)^(r+1) p_r(z)."""
    acc = {(0,) * (nvars + nz): 1}
    for r in lam.parts:
        sign = 1 if r % 2 else -1
        new = {}
        for e, c in acc.items():
            for i in range(nvars + nz):
                key = e[:i] + (e[i] + r,) + e[i + 1:]
                new[key] = new.get(key, 0) + (c if i < nvars else sign * c)
        acc = new
    return {e: c for e, c in acc.items() if c}


_TRANSITION_CACHE = {}


@memoized(_TRANSITION_CACHE)
def _transitions(d):
    """Power-sum <-> monomial transition data at degree d.

    Returns (plist, p_in_m, m_in_p): p_in_m[lam][mu] integer coefficient of
    m_mu in p_lam; m_in_p[mu][lam] Fraction coefficient of p_lam in m_mu.
    """
    plist = partitions_of(d)
    p_in_m = {}
    for lam in plist:
        expansion = _expand_powersum(lam, d)
        row = {}
        for mu in plist:
            key = mu.padded(d)
            if key in expansion:
                row[mu] = expansion[key]
        p_in_m[lam] = row
    # invert over the rationals by Gaussian elimination
    idx = {lam: i for i, lam in enumerate(plist)}
    n = len(plist)
    mat = [[Fraction(p_in_m[plist[i]].get(plist[j], 0)) for j in range(n)]
           for i in range(n)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col]), None)
        if piv is None:
            raise SingularConversion("transition matrix singular")
        mat[col], mat[piv] = mat[piv], mat[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        f = mat[col][col]
        mat[col] = [x / f for x in mat[col]]
        inv[col] = [x / f for x in inv[col]]
        for r in range(n):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    # p_in_m as matrix A with A[i][j] = coeff of m_j in p_i; m_mu = sum_lam
    # (A^{-1})[j][i] ... m-vector = A^T p-vector relation handled below.
    m_in_p = {}
    for mu in plist:
        j = idx[mu]
        m_in_p[mu] = {plist[i]: inv[j][i] for i in range(n) if inv[j][i]}
    return plist, p_in_m, m_in_p


def monomial_expand(e, nvars):
    """Explicit polynomial over x_1..x_nvars (polynomial coefficients only)."""
    e = basis_convert(e, "monomial")
    names = tuple("x%d" % i for i in range(1, nvars + 1))
    out = ZERO
    for mu, c in e.coeffs.items():
        if len(mu) > nvars:
            raise TooFewVariables("partition %r needs more variables" % (mu,))
        poly = _cleared(c, e.den(mu.weight()), "coefficient at %r" % (mu,))
        for exp in _expand_monomial(mu, nvars):
            out = out + poly * ExactPolynomial.monomial(
                dict(zip(names, exp)))
    return out


def basis_convert(e, target):
    """Exact change of basis between monomial, powersum and schur; only the
    numerators change, and k_d when monomials become power sums."""
    if e.basis == target:
        return e
    if e.basis == "powersum" and target in ("monomial", "schur"):
        coeffs = {}
        for d, part in e.degree_parts().items():
            _, p_in_m, _ = _transitions(d)
            for lam, c in part.items():
                for mu, k in p_in_m[lam].items():
                    coeffs[mu] = coeffs.get(mu, ZERO) + c * k
        mono = SymmetricExpr("monomial", coeffs, e.nvars, e.dens)
        return mono if target == "monomial" else basis_convert(mono, "schur")
    if e.basis == "monomial" and target == "powersum":
        coeffs = {}
        dens = dict(e.dens)
        for d, part in e.degree_parts().items():
            _, _, m_in_p = _transitions(d)
            # the lcm k of the transition denominators joins k_d
            k = lcm(*(f.denominator for row in m_in_p.values()
                      for f in row.values()))
            k_d, factors = e.den(d)
            dens[d] = (k_d * k, factors)
            for mu, c in part.items():
                for lam, frac in m_in_p[mu].items():
                    coeffs[lam] = coeffs.get(lam, ZERO) + c * (
                        frac.numerator * (k // frac.denominator))
        return SymmetricExpr("powersum", coeffs, e.nvars, dens)
    if e.basis == "monomial" and target == "schur":
        coeffs = {}
        for d, part in e.degree_parts().items():
            remaining = dict(part)
            for nu in sorted(partitions_of(d), key=lambda p: p.parts,
                             reverse=True):
                c = remaining.get(nu, ZERO)
                if c.is_zero():
                    continue
                coeffs[nu] = c
                for mu in partitions_of(d):
                    k = kostka_number(nu, mu.parts)
                    if k:
                        remaining[mu] = remaining.get(mu, ZERO) - c * k
        return SymmetricExpr("schur", coeffs, e.nvars, e.dens)
    if e.basis == "schur":
        coeffs = {}
        for nu, c in e.coeffs.items():
            d = nu.weight()
            for mu in partitions_of(d):
                k = kostka_number(nu, mu.parts)
                if k:
                    coeffs[mu] = coeffs.get(mu, ZERO) + c * k
        mono = SymmetricExpr("monomial", coeffs, e.nvars, e.dens)
        return mono if target == "monomial" \
            else basis_convert(mono, "powersum")
    raise ValueError("unsupported conversion %s -> %s" % (e.basis, target))


def schur_expand(e):
    return basis_convert(e, "schur")


# ---------------------------------------------------------------------------
# plethystic evaluations
# ---------------------------------------------------------------------------

def _plethysm_factors(lam):
    """p_lam[X / (1 - t)] = p_lam / prod (1 - q^a t^b) over these (a, b)."""
    return Counter((0, r) for r in lam.parts)


def _plethysm_lcm(ps):
    """Per degree d, the lcm multiset of _plethysm_factors over ps."""
    out = {}
    for lam in ps.coeffs:
        out[lam.weight()] = out.get(lam.weight(), Counter()) \
            | _plethysm_factors(lam)
    return out


def _cleared(num, den, what):
    """num / (k_d prod_{D_d} (1 - q^a t^b)) for den = (k_d, D_d), which
    must be a polynomial."""
    k, factors = den
    try:
        return poly_divexact(divide_factors(num, factors), P(k))
    except ValueError:
        raise NonPolynomialCoefficient("%s not polynomial" % what) from None


def plethysm_eval(e, rule, nvars=None):
    """Apply a power-sum substitution rule.

    rule='modified': p_r -> p_r / (1 - t^r); returns a powersum-basis expr.
    rule='double': p_r -> (p_r(x-alphabet) + (-1)^{r+1} p_r(z-alphabet))
    / (1 - t^r); returns (table, dens): table maps exponent tuples over
    x_1..x_N, z_1..z_N (N = nvars) to numerators, and dens maps each total
    degree d to its denominator (k_d, D_d).

    D_d gains the lcm L_d of the plethysm factors of the degree-d terms, and
    the numerator of p_lam is scaled by the factors of L_d that p_lam lacks.
    """
    if rule not in ("modified", "double"):
        raise ValueError("unknown rule %r" % (rule,))
    if rule == "double" and nvars is None:
        raise TooFewVariables("rule='double' needs nvars")
    ps = basis_convert(e, "powersum")
    lcms = _plethysm_lcm(ps)
    dens = dict(ps.dens)
    for d, factors in lcms.items():
        k, own = ps.den(d)
        dens[d] = (k, own + factors)
    coeffs = {}
    for lam, c in ps.coeffs.items():
        num = c * factor_product(lcms[lam.weight()] - _plethysm_factors(lam))
        if rule == "modified":
            coeffs[lam] = num
            continue
        for key, m in _expand_powersum(lam, nvars, nvars).items():
            coeffs[key] = coeffs.get(key, ZERO) + num * m
    if rule == "modified":
        return SymmetricExpr("powersum", coeffs, ps.nvars, dens)
    return coeffs, dens


_H_TABLE_CACHE = {}


@memoized(_H_TABLE_CACHE)
def _oracle_table(lam):
    """Every monomial coefficient of H_lam, by plethysm on J_lam."""
    mono = basis_convert(plethysm_eval(
        integral_J(lam, max(lam.weight(), 1)), "modified"), "monomial")
    table = {}
    for mu, c in mono.coeffs.items():
        poly = _cleared(c, mono.den(mu.weight()),
                        "H coefficient at %r" % (mu,))
        if not poly.is_nonnegative():
            raise NegativeCoefficient(
                "H coefficient at %r has a negative term" % (mu,))
        table[mu] = poly
    return table


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
                                      if len(mu) <= nvars}, nvars)


def W_oracle(lam, N):
    """W polynomial over x_1..x_N, z_1..z_N, q, t with positive coefficients."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    table, dens = plethysm_eval(
        integral_J(lam, max(lam.weight(), len(lam), 1)), "double", nvars=N)
    names = tuple(["x%d" % i for i in range(1, N + 1)]
                  + ["z%d" % i for i in range(1, N + 1)])
    out = ZERO
    for exp, c in table.items():
        poly = _cleared(c, dens[sum(exp)], "W coefficient")
        if not poly.is_nonnegative():
            raise NegativeCoefficient("W coefficient has a negative term")
        out = out + poly * ExactPolynomial.monomial(dict(zip(names, exp)))
    return out


def schur_function(lam, nvars):
    """Schur polynomial via the Kostka expansion (branching with psi = 1)."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    coeffs = {}
    for mu in partitions_of(lam.weight()):
        if len(mu) > nvars:
            continue
        k = kostka_number(lam, mu.parts)
        if k:
            coeffs[mu] = P(k)
    return SymmetricExpr("monomial", coeffs, nvars)
