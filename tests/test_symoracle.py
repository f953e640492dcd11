"""Independent symmetric-function oracles: P, J, H, W, Schur, Kostka."""

import ast
import glob
import os
from collections import Counter
from functools import lru_cache, reduce
from math import comb
from operator import or_

import pytest
from hypothesis import example, given, settings, strategies as st

import modmacd
from modmacd import clear_caches, modmac, qseries, symoracle
from modmacd.combinat import Partition, partitions_of
from modmacd.errors import NonPolynomialCoefficient, TooFewVariables
from modmacd.exactalg import (ExactPolynomial, P as PC, RationalFunction,
                              ZERO, poly_divexact, ratfun_normalize, sym)
from modmacd.packed import _qt_terms, _width
from modmacd.symoracle import (SymmetricExpr, W_oracle, basis_convert,
                               integral_J, kostka_number, macdonald_P,
                               modified_H_oracle, plethysm_eval)

from reference import (c_functions, divide_factors, factor_product,
                       monomial_expand)

Q = sym("q")
T = sym("t")
ONE = PC(1)
RF_ZERO = RationalFunction(ZERO)
RF_ONE = RationalFunction(ONE)


def _packed(e, W):
    """e with every numerator, a polynomial in q and t, as QRows at
    t = 2^W."""
    return SymmetricExpr(
        e.basis, {mu: symoracle.QRows(symoracle._rows(_qt_terms(c), W))
                  for mu, c in e.coeffs.items()}, e.den, W)


def _value(e, mu):
    """Coefficient of mu in e as numerator over its denominator; a packed
    numerator is decoded first."""
    k, factors = e.den
    num = e.coeffs.get(mu, ZERO)
    if e.width is not None and mu in e.coeffs:
        num = ExactPolynomial(("q", "t"), symoracle._cleared(
            num, (1, Counter()), e.width, "numerator"))
    return RationalFunction(num, factor_product(factors) * k)


def _values(e):
    return {mu: _value(e, mu) for mu in e.coeffs}


def test_symmetric_expr_rejects_unknown_basis():
    with pytest.raises(ValueError):
        SymmetricExpr("elementary", {})
    with pytest.raises(ValueError):
        basis_convert(integral_J(Partition((2, 1)), 3), "elementary")


def horizontal_strip(lam, mu):
    """mu <= lam interlacing: lam_1 >= mu_1 >= lam_2 >= mu_2 >= ..."""
    n = max(len(lam), len(mu))
    for i in range(1, n + 1):
        if not (lam.part(i) >= mu.part(i) >= lam.part(i + 1)):
            return False
    return True


def test_horizontal_strip_predicate():
    assert horizontal_strip(Partition((2,)), Partition((1,)))
    assert horizontal_strip(Partition((2, 1)), Partition((1, 1)))
    assert not horizontal_strip(Partition((2, 2)), Partition((1,)))
    assert not horizontal_strip(Partition((1,)), Partition((2,)))


def psi_coefficient(lam, mu):
    """Branching coefficient psi_{lam/mu}(q,t) as a RationalFunction of the
    factor products of _psi_factors; 0 off horizontal strips."""
    if not horizontal_strip(lam, mu):
        return RF_ZERO
    num, den = symoracle._psi_factors(lam, mu)
    return RationalFunction(factor_product(num), factor_product(den))


def test_branching_coefficient_single_row():
    got = psi_coefficient(Partition((2,)), Partition((1,)))
    want = RationalFunction((ONE - T) * (ONE + Q), ONE - Q * T)
    assert got == want


def test_branching_coefficient_trivial_cases():
    lam = Partition((2, 1))
    assert psi_coefficient(lam, lam) == RationalFunction(ONE)


def test_macdonald_P_two_boxes():
    e = macdonald_P(Partition((2,)), 2)
    assert e.basis == "monomial"
    assert _value(e, Partition((2,))) == RF_ONE
    assert _value(e, Partition((1, 1))) == RationalFunction(
        (ONE - T) * (ONE + Q), ONE - Q * T)
    # P_(1,1) is the elementary symmetric polynomial.
    e11 = macdonald_P(Partition((1, 1)), 2)
    assert _values(e11) == {Partition((1, 1)): RF_ONE}


def _ref_psi(lam, mu):
    """psi_{lam/mu} as a product of ExactPolynomial factors f(q^a t^m) /
    f(q^b t^m), reduced by the general gcd."""
    num = den = ONE
    for j in range(1, len(mu) + 1):
        for i in range(1, j + 1):
            m = j - i
            for a, b in ((mu.part(i) - mu.part(j), lam.part(i) - mu.part(j)),
                         (lam.part(i) - lam.part(j + 1),
                          mu.part(i) - lam.part(j + 1))):
                for k in range(min(a, b), max(a, b)):
                    up = ONE - ExactPolynomial.monomial({"q": k, "t": m + 1})
                    down = ONE - ExactPolynomial.monomial({"q": k + 1, "t": m})
                    if a > b:
                        up, down = down, up
                    num, den = num * up, den * down
    return ratfun_normalize(RationalFunction(num, den))


@lru_cache(maxsize=None)
def _ref_pcoef(lam, mu):
    """Coefficient of x^mu in P_lam by the branching rule on P itself, with
    every sum reduced by the general gcd."""
    if not mu:
        return RF_ONE if not lam.parts else RF_ZERO
    if sum(mu) != lam.weight() or len(lam) > len(mu):
        return RF_ZERO
    val = RF_ZERO
    for kappa in partitions_of(lam.weight() - mu[-1]):
        if horizontal_strip(lam, kappa):
            val = val + _ref_psi(lam, kappa) * _ref_pcoef(kappa, mu[:-1])
    return ratfun_normalize(val)


def test_P_and_J_match_the_gcd_reduced_branching_rule():
    for w in range(1, 6):
        for lam in partitions_of(w):
            P_ = macdonald_P(lam, w)
            J = integral_J(lam, w)
            c = c_functions(lam)["c"]
            assert J.den == (1, Counter()), lam
            for mu in partitions_of(w):
                ref = _ref_pcoef(lam, mu.parts)
                assert _value(P_, mu) == ref, (lam, mu)
                assert _value(J, mu) == ref * c, (lam, mu)


def test_integral_J_rejects_a_wrong_branching_denominator(monkeypatch):
    psi = symoracle._psi_factors

    def wrong(lam, mu):
        num, den = psi(lam, mu)
        return num, den + Counter({(1, 0): 1})

    clear_caches()
    monkeypatch.setattr(symoracle, "_psi_factors", wrong)
    try:
        for w in range(1, 5):
            for lam in partitions_of(w):
                with pytest.raises(NonPolynomialCoefficient):
                    integral_J(lam, w)
    finally:
        clear_caches()


def test_plethysm_coefficients_share_one_denominator_per_degree():
    # The plethysm gives the homogeneous expression of degree d the one
    # denominator k prod_D (1 - t^r): k the power-sum expression's integer,
    # D the lcm multiset of the factors (0, r) of its terms; the basis
    # conversion after it keeps that denominator, and each term's value is
    # divided by its own factors.
    for w in range(1, 5):
        for lam in partitions_of(w):
            ps = basis_convert(integral_J(lam, w), "powersum")
            k, own = ps.den
            assert own == Counter() and {nu.weight() for nu in ps.coeffs} \
                == {w}
            factors = reduce(or_, (Counter((0, r) for r in nu.parts)
                                   for nu in ps.coeffs))
            den = (k, factors)
            # the values here stay far below 2^63, so W = 64 decodes them
            packed = _packed(ps, 64)
            pleth = plethysm_eval(packed)
            assert pleth.den == den
            for nu, c in ps.coeffs.items():
                assert _value(pleth, nu) == RationalFunction(
                    c, factor_product(Counter((0, r) for r in nu.parts)) * k)
            mono = basis_convert(pleth, "monomial")
            assert mono.den == den
            # W's step after the plethysm: p_r(x) + (-1)^(r+1) p_r(z) over
            # two letters each, every exponent tuple of degree w
            double = symoracle._combine(pleth.coeffs, {
                nu: symoracle._expand_powersum(nu, 2)
                for nu in partitions_of(w)})
            assert double and all(sum(e) == w for e in double)


@pytest.mark.parametrize("missing", ["smallest", "largest"])
def test_oracles_reject_a_plethysm_denominator_missing_a_factor(monkeypatch,
                                                                missing):
    plethysm_lcm = symoracle._plethysm_lcm

    def wrong(ps):
        factors = plethysm_lcm(ps)
        pick = min if missing == "smallest" else max
        return factors - Counter({pick(factors): 1})

    clear_caches()
    monkeypatch.setattr(symoracle, "_plethysm_lcm", wrong)
    try:
        for w in range(2, 5):
            for lam in partitions_of(w):
                with pytest.raises(NonPolynomialCoefficient):
                    modified_H_oracle(lam)
                with pytest.raises(NonPolynomialCoefficient):
                    W_oracle(lam, 2)
    finally:
        clear_caches()


def test_macdonald_P_at_q_equals_t_is_schur():
    for lam in partitions_of(3):
        e = macdonald_P(lam, 3)
        at_qt = {mu: c.substitute({"q": T}) for mu, c in e.coeffs.items()}
        k, factors = e.den
        den = (k, Counter({(0, a + b): m for (a, b), m in factors.items()}))
        target = basis_convert(basis_convert(
            type(e)("monomial", at_qt, den), "monomial"), "schur")
        assert _values(target) == {lam: RF_ONE}


def test_macdonald_P_needs_enough_variables():
    with pytest.raises(TooFewVariables):
        macdonald_P(Partition((1, 1, 1)), 2)


def test_integral_form_clears_denominators():
    for lam in partitions_of(3):
        e = integral_J(lam, 3)
        assert e.den == (1, Counter())
        for c in e.coeffs.values():
            assert isinstance(c, ExactPolynomial)


def test_modified_H_oracle_known_tables():
    h2 = modified_H_oracle(Partition((2,))).coeffs
    assert h2[Partition((2,))] == ONE
    assert h2[Partition((1, 1))] == ONE + Q
    h11 = modified_H_oracle(Partition((1, 1))).coeffs
    assert h11[Partition((2,))] == T
    assert h11[Partition((1, 1))] == ONE + T


def test_modified_H_oracle_needs_ell_lambda_variables():
    lam = Partition((2, 1))
    with pytest.raises(TooFewVariables):
        modified_H_oracle(lam, 1)
    # fewer variables than |lambda| restrict the full table
    full = modified_H_oracle(lam).coeffs
    assert modified_H_oracle(lam, 2).coeffs == {
        mu: c for mu, c in full.items() if len(mu) <= 2}


def test_oracle_table_is_computed_once_per_shape(monkeypatch):
    # the spy sits on the packed plethysm, the step every oracle table takes
    calls = []
    pleth = symoracle.plethysm_eval

    def counted(e):
        assert isinstance(e.width, int)
        calls.append(e.basis)
        return pleth(e)

    clear_caches()
    monkeypatch.setattr(symoracle, "plethysm_eval", counted)
    try:
        lam = Partition((2, 1))
        modified_H_oracle(lam, 2)
        modified_H_oracle(lam, 3)
        modmac.kostka_qt(lam)
        modmac.modified_H(lam, route="oracle")
        assert calls == ["monomial"]
        clear_caches()
        modified_H_oracle(lam)
        assert calls == ["monomial"] * 2
    finally:
        clear_caches()


def test_modified_H_oracle_specializations():
    # q = t = 1 turns H into (x_1 + ... + x_N)^{|lambda|}: the coefficient of
    # m_mu is the number of distinct rearrangements counted by multinomials.
    h = modified_H_oracle(Partition((2, 1))).coeffs
    vals = {mu: c.substitute({"q": ONE, "t": ONE}) for mu, c in h.items()}
    assert vals[Partition((3,))] == ONE
    assert vals[Partition((2, 1))] == PC(3)
    assert vals[Partition((1, 1, 1))] == PC(6)


def test_kostka_numbers():
    assert kostka_number(Partition((2, 1)), Partition((1, 1, 1))) == 2
    assert kostka_number(Partition((2, 1)), Partition((2, 1))) == 1
    assert kostka_number(Partition((2, 1)), Partition((3,))) == 0
    assert kostka_number(Partition((3,)), Partition((1, 1, 1))) == 1


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
            coeffs[mu] = PC(k)
    return SymmetricExpr("monomial", coeffs)


def test_schur_function_matches_bialternant_examples():
    x1, x2 = sym("x1"), sym("x2")
    def expand(lam):
        return monomial_expand(schur_function(Partition(lam), 2), 2)
    assert expand((1,)) == x1 + x2
    assert expand((2,)) == x1 ** 2 + x1 * x2 + x2 ** 2
    assert expand((1, 1)) == x1 * x2
    assert expand((2, 1)) == x1 ** 2 * x2 + x1 * x2 ** 2


def test_basis_conversion_keeps_the_zero_expression():
    # with no coefficient there is no degree to read: the zero expression
    # keeps its denominator in every basis
    den = (3, Counter({(0, 1): 1}))
    for source in ("monomial", "powersum", "schur"):
        for target in ("monomial", "powersum", "schur"):
            got = basis_convert(SymmetricExpr(source, {}, den), target)
            assert (got.basis, got.coeffs, got.den) == (target, {}, den)


def _product(a, b):
    """The matrix product of integer matrices {row: {column: n}}."""
    out = {}
    for i, row in a.items():
        acc = Counter()
        for j, x in row.items():
            for k, y in b[j].items():
                acc[k] += x * y
        out[i] = {k: n for k, n in acc.items() if n}
    return out


def test_transition_matrices_invert_each_other():
    # M(p, m) M(m, p) = k I and M(m, p) M(p, m) = k I; the Kostka matrix
    # M(s, m) and its integer inverse M(m, s) multiply to I both ways.
    for d in range(1, 9):
        table = symoracle._transitions(d)
        for source, target in (("powersum", "monomial"),
                               ("schur", "monomial")):
            there, k_there = table[source, target]
            back, k = table[target, source]
            assert k_there == 1
            assert k == 1 or source == "powersum"
            scalar = {lam: {lam: k} for lam in partitions_of(d)}
            assert _product(there, back) == scalar, (d, source)
            assert _product(back, there) == scalar, (d, source)
        kostka = table["schur", "monomial"][0]
        assert kostka == {
            nu: {mu: n for mu in partitions_of(d)
                 if (n := kostka_number(nu, mu.parts))}
            for nu in partitions_of(d)}


_BASIS_PAIRS = [(a, b) for a in symoracle.BASES for b in symoracle.BASES
                if a != b]


@given(st.integers(1, 6).flatmap(lambda d: st.dictionaries(
           st.sampled_from(partitions_of(d)),
           st.integers(-50, 50).filter(bool), min_size=1)),
       st.sampled_from(_BASIS_PAIRS), st.integers(1, 6))
@example({Partition((2, 1, 1)): 1}, ("monomial", "powersum"), 1)
@example({Partition((3, 3)): -7, Partition((1,) * 6): 2},
         ("schur", "powersum"), 4)
@settings(max_examples=120, deadline=None)
def test_basis_convert_round_trips_in_every_direction(coeffs, pair, k):
    # integer numerators over k, in each of the six directions and back
    source, target = pair
    d = next(iter(coeffs)).weight()
    e = SymmetricExpr(source, {mu: PC(c) for mu, c in coeffs.items()},
                      (k, Counter()))
    there = basis_convert(e, target)
    assert there.basis == target
    assert all(nu.weight() == d for nu in there.coeffs)
    assert there.coeffs and there.den[1] == Counter()
    back = basis_convert(there, source)
    assert back.basis == source
    assert _values(back) == _values(e)


def test_basis_conversion_round_trip():
    for lam in partitions_of(4):
        e = macdonald_P(lam, 4)
        back = basis_convert(basis_convert(e, "powersum"), "monomial")
        assert _values(back) == _values(e)
        back2 = basis_convert(basis_convert(e, "schur"), "monomial")
        assert _values(back2) == _values(e)


def test_monomial_expand_gives_symmetric_polynomials():
    for lam in partitions_of(3):
        if len(lam) > 2:
            continue
        p = monomial_expand(integral_J(lam, 2), 2)
        swapped = p.substitute({"x1": sym("x2"), "x2": sym("x1")})
        assert swapped == p


def test_W_one_variable_closed_form():
    # In a single variable, W factors over the cells of the shape:
    # W = prod_{i, j} (x t^{i-1} + z q^j), 1 <= i <= l, 0 <= j < lambda_i.
    x1, z1 = sym("x1"), sym("z1")
    for lam in partitions_of(4):
        got = W_oracle(lam, 1)
        want = ONE
        for i, row in enumerate(lam.parts, start=1):
            for j in range(row):
                want = want * (x1 * T ** (i - 1) + z1 * Q ** j)
        assert got == want


def test_W_positivity_and_symmetry():
    w = W_oracle(Partition((2, 1)), 2)
    assert w.is_nonnegative()
    swapped = w.substitute({"x1": sym("x2"), "x2": sym("x1"),
                            "z1": sym("z2"), "z2": sym("z1")})
    assert swapped == w


# -- packed clearing -------------------------------------------------------

def _reference_cleared(num, den):
    """The former ExactPolynomial clearing: num / (k prod (1 - q^a t^b))
    by line sums and an integer division; ValueError unless exact."""
    k, factors = den
    return poly_divexact(divide_factors(num, factors), PC(k))


def _packed_cleared(num, den, W):
    """_cleared on num packed at t = 2^W, as an ExactPolynomial."""
    e = _packed(SymmetricExpr("monomial", {(1,): num}), W)
    rows = e.coeffs.get(Partition((1,)), symoracle.QRows([0]))
    return ExactPolynomial(("q", "t"), symoracle._cleared(rows, den, W, "f"))


def _l1(p):
    return sum(abs(c) for c in p.terms.values())


def _oracle_width(f, m):
    """The width the oracle's bounds give a numerator f over m factors: its
    quotient has at most f's total degree D, so C(D + m, m) bounds it."""
    D = max((sum(e) for e in f.terms), default=0)
    return _width(_l1(f) * comb(D + m, m) << m)


qt_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 5)), st.integers(-9, 9),
    max_size=6).map(lambda d: ExactPolynomial(("q", "t"), d))
# mostly the plethysm's 1 - t^r; some 1 - q^a t^b as in J's branching rule
t_factors = st.lists(
    st.tuples(st.sampled_from((0, 0, 0, 1, 2)), st.integers(0, 4)).filter(
        any), max_size=4).map(Counter)
units = st.builds(lambda a, b, s: ExactPolynomial.monomial({"q": a, "t": b}, s),
                  st.integers(0, 4), st.integers(0, 6), st.sampled_from((1, -1)))


def _agree(num, den, W):
    """The packed clearing raises exactly when the reference does, and
    otherwise returns the same polynomial."""
    try:
        want = _reference_cleared(num, den)
    except ValueError:
        with pytest.raises(NonPolynomialCoefficient):
            _packed_cleared(num, den, W)
        return None
    got = _packed_cleared(num, den, W)
    assert got == want
    return got


@given(qt_polys, t_factors, st.integers(-6, 6).filter(bool), units)
@example(ONE - T, Counter({(0, 1): 2}), 1, ONE)
@example(ExactPolynomial(("q", "t"), {(2, 3): 9}), Counter({(0, 4): 1}), -6,
         T ** 6)
@settings(max_examples=150, deadline=None)
def test_packed_clearing_matches_exact_division(g, factors, k, unit):
    f = g * factor_product(factors) * k
    m = sum(factors.values())
    assert _agree(f, (k, factors), _oracle_width(f, m)) == g
    # a unit monomial more, or one factor 1 - q^a t^b fewer in the numerator,
    # leaves a coefficient that is not a polynomial (unless h is a unit, or
    # g happens to hold the factor dropped)
    if m or abs(k) > 1:
        bad = f + unit
        assert _agree(bad, (k, factors), _oracle_width(bad, m)) is None
    for r in factors:
        bad = g * factor_product(factors - Counter({r: 1})) * k
        got = _agree(bad, (k, factors), _oracle_width(bad, m))
        assert got is None or got * factor_product(Counter({r: 1})) == g


@given(qt_polys, t_factors, st.integers(-6, 6).filter(bool), qt_polys)
@settings(max_examples=150, deadline=None)
def test_packed_clearing_never_returns_a_wrong_quotient(g, factors, k, noise):
    # At the narrowest width that still packs the numerator, the quotient may
    # not fit: the digit check must then raise, never return a wrong answer.
    for f in (g * factor_product(factors) * k,
              g * factor_product(factors) * k + noise):
        W = _width(max(map(abs, f.terms.values()), default=0))
        try:
            got = _packed_cleared(f, (k, factors), W)
        except NonPolynomialCoefficient:
            continue
        assert got * factor_product(factors) * k == f


def test_oracles_reach_no_generic_division():
    # J, the H table, Kostka and W run on packed numerators alone: the
    # line-sum division and the factor product live only in the tests'
    # reference module, and no modmacd module defines, imports or names
    # either of them.  The oracles then run from cold caches.
    forbidden = {"divide_factors", "factor_product"}
    for path in glob.glob(os.path.join(modmacd.__path__[0], "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.alias):
                names.update((node.name.rpartition(".")[2], node.asname))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert not names & forbidden, path
    clear_caches()
    try:
        for parts in ((3, 2, 1), (2, 2), (3, 1), (1, 1, 1)):
            lam = Partition(parts)
            modmac.modified_H(lam, route="oracle")
            modmac.kostka_qt(lam)
            W_oracle(lam, 2)
    finally:
        clear_caches()


@lru_cache(maxsize=None)
def _reference_jcoef(lam, mu):
    """The former ExactPolynomial J coefficient: the branching terms summed
    over the lcm L of their denominators by polynomial products, then
    divided by prod(L) along lines."""
    if not mu:
        return ZERO if lam.parts else ONE
    if sum(mu) != lam.weight() or len(lam) > len(mu):
        return ZERO
    hooks = qseries.hook_factors(lam)
    terms = []
    lcm = Counter()
    for kappa in symoracle._strips_removing(lam, mu[-1]):
        sub = _reference_jcoef(kappa, mu[:-1])
        if not sub.is_zero():
            num, den = symoracle._psi_factors(lam, kappa)
            num, den = num + hooks, den + qseries.hook_factors(kappa)
            terms.append((sub, num - den, den - num))
            lcm |= den - num
    total = ZERO
    for sub, num, den in terms:
        total = total + sub * factor_product(num + (lcm - den))
    return divide_factors(total, lcm)


def test_packed_J_matches_the_exact_polynomial_branching_rule():
    for w in range(8):
        for lam in partitions_of(w):
            J = integral_J(lam, max(w, 1))
            for mu in partitions_of(w):
                assert J.coeffs.get(mu, ZERO) == \
                    _reference_jcoef(lam, mu.parts), (lam, mu)
