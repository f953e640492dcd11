"""Headline results: H tables by three routes, Hall-Littlewood collapse,
Kostka extraction, duality, W reductions, Cauchy identities."""

import sys
from collections import Counter
from functools import reduce
from operator import or_

import pytest

import reference
from modmacd import clear_caches, cli, exactalg, modmac, symoracle
from modmacd.combinat import (Partition, SequencePair, conjugate,
                              partitions_of)
from modmacd.errors import (ConsistencyError, NegativeCoefficient,
                            TooFewVariables, TruncationTooSmall)
from modmacd.exactalg import (ExactPolynomial, ONE, P, RationalFunction,
                              ZERO, sym)
from modmacd.modmac import (cauchy_check, duality_check, kostka_qt,
                            modified_H, modified_HL, w_reduction_check)
from modmacd.packed import _Bound, _unpack_qt, QTPacking
from modmacd.qseries import gauss_binomial, pochhammer

from reference import (c_functions, factor_product, monomial_expand,
                       w_reduction_reference)

Q = sym("q")
T = sym("t")


def test_known_tables_two_boxes():
    h2 = modified_H((2,)).coeffs
    assert h2 == {Partition((2,)): P(1), Partition((1, 1)): P(1) + Q}
    h11 = modified_H((1, 1)).coeffs
    assert h11 == {Partition((2,)): T, Partition((1, 1)): P(1) + T}


def test_known_table_hook_in_two_variables():
    res = modified_H((2, 1), N=2).coeffs
    assert res == {Partition((2, 1)): P(1) + T + Q * T,
                   Partition((3,)): T}


def test_routes_agree_small():
    for w in range(1, 5):
        for lam in partitions_of(w):
            a = modified_H(lam, route="lattice_x")
            b = modified_H(lam, route="lattice_dual")
            c = modified_H(lam, route="oracle")
            assert a.coeffs == b.coeffs == c.coeffs
            for poly in a.coeffs.values():
                assert poly.is_nonnegative()


def test_specialization_at_one():
    # At q = t = 1 the table must reproduce multinomial coefficients.
    res = modified_H((2, 1), N=3).coeffs
    ones = {"q": P(1), "t": P(1)}
    assert res[Partition((3,))].substitute(ones) == P(1)
    assert res[Partition((2, 1))].substitute(ones) == P(3)
    assert res[Partition((1, 1, 1))].substitute(ones) == P(6)


def test_variable_count_guard():
    with pytest.raises(TooFewVariables):
        modified_H((2, 1), N=1)
    with pytest.raises(ValueError):
        modified_H((2,), route="bogus")


def test_default_variable_count():
    # Default N covers both the length and the width of the shape.
    res = modified_H((3, 1))
    assert max(len(mu) for mu in res.coeffs) <= 3
    assert Partition((1, 1, 1, 1)) not in res.coeffs


def test_hall_littlewood_collapse():
    for w in range(1, 5):
        for lam in partitions_of(w):
            N = max(len(lam), lam.part(1), 1)
            full = modified_H(lam, N=N).coeffs
            at0 = {mu: p.substitute({"q": P(0)}) for mu, p in full.items()}
            at0 = {mu: p for mu, p in at0.items() if not p.is_zero()}
            assert at0 == modified_HL(lam, N)


def test_kostka_known_tables():
    k11 = kostka_qt((1, 1))
    assert k11 == {Partition((2,)): T, Partition((1, 1)): P(1)}
    k2 = kostka_qt((2,))
    assert k2 == {Partition((2,)): P(1), Partition((1, 1)): Q}
    k21 = kostka_qt((2, 1))
    assert k21 == {Partition((3,)): T,
                   Partition((2, 1)): P(1) + Q * T,
                   Partition((1, 1, 1)): Q}


def test_kostka_positivity_and_triangularity():
    for w in range(1, 5):
        for lam in partitions_of(w):
            table = kostka_qt(lam)
            zeros = {"q": P(0), "t": P(0)}
            for nu, poly in table.items():
                assert poly.is_nonnegative()
                val = poly.substitute(zeros)
                if nu == lam:
                    assert val == P(1)
                else:
                    assert val.is_zero() or val == P(1)
            # The (0,0) specialization keeps only the diagonal entry.
            diag = [nu for nu, poly in table.items()
                    if not poly.substitute(zeros).is_zero()]
            assert diag == [lam]


def test_kostka_hooks_match_the_cell_product():
    # Macdonald, Symmetric Functions and Hall Polynomials, VI (8): the hook
    # entries of a Kostka table are the coefficients of u^r in
    # prod over the cells (i, j) != (1, 1) of mu of (t^(i-1) + q^(j-1) u).
    U = sym("u")
    for w in range(1, 9):
        for mu in partitions_of(w):
            product = ONE
            for i, row in enumerate(mu.parts, start=1):
                for j in range(1, row + 1):
                    if (i, j) != (1, 1):
                        product = product * (T ** (i - 1) + Q ** (j - 1) * U)
            table = kostka_qt(mu)
            for r in range(w):
                hook = Partition((w - r,) + (1,) * r)
                assert table.get(hook, ZERO) \
                    == product.coefficient({"u": r}), (mu, r)


@pytest.mark.parametrize("route", ["lattice_x", "lattice_dual"])
def test_lattice_schur_expansion_is_the_oracle_kostka_table(route):
    # kostka_qt reads only the oracle H; the Schur expansion of a lattice
    # table, which shares nothing with the oracle but basis_convert, must
    # give the same table, with every entry in N[q, t].
    for w in range(1, 6):
        for lam in partitions_of(w):
            table = modified_H(lam, N=w, route=route).coeffs
            schur = symoracle.basis_convert(
                symoracle.SymmetricExpr("monomial", table), "schur")
            assert schur.den == (1, Counter()), (route, lam)
            assert schur.coeffs == kostka_qt(lam), (route, lam)
            assert all(poly.is_nonnegative()
                       for poly in schur.coeffs.values()), (route, lam)


@pytest.mark.parametrize("route", ["lattice_x", "lattice_dual"])
def test_lattice_tables_factor_at_q_or_t_one(route):
    # H_mu(x; 1, t) = prod_j H_(1^mu'_j)(x; t) over the columns of mu and
    # H_mu(x; q, 1) = prod_i H_(mu_i)(x; q) over its rows, each product
    # taken in the explicit variables x_1..x_N, N = |mu|.
    for w in range(1, 6):
        def expanded(shape):
            table = modified_H(shape, N=w, route=route).coeffs
            return monomial_expand(symoracle.SymmetricExpr("monomial", table),
                                   w)

        for mu in partitions_of(w):
            H = expanded(mu)
            columns = ONE
            for height in conjugate(mu).parts:
                columns = columns * expanded(Partition((1,) * height))
            rows = ONE
            for length in mu.parts:
                rows = rows * expanded(Partition((length,)))
            assert H.substitute({"q": P(1)}) == columns, (route, mu)
            assert H.substitute({"t": P(1)}) == rows, (route, mu)


def test_duality_small():
    for w in range(1, 5):
        for lam in partitions_of(w):
            assert duality_check(lam)


def test_w_reductions_small():
    for w in range(1, 4):
        for lam in partitions_of(w):
            assert w_reduction_check(lam, w)


_W_TABLE = symoracle._W_table


def _doubled_entry(alphabet, sort):
    """A _W_table that doubles its first entry whose other alphabet's part
    is empty and whose own part is a partition (sort) or is not."""
    def wrong(lam, N):
        table = dict(_W_TABLE(lam, N))
        own, other = slice(0, N), slice(N, 2 * N)
        if alphabet == "z":
            own, other = other, own
        e = min(e for e in table if not any(e[other])
                and (list(e[own]) == sorted(e[own], reverse=True)) == sort)
        table[e] = {qt: 2 * x for qt, x in table[e].items()}
        return table

    return wrong


@pytest.mark.parametrize("alphabet", ["x", "z"])
def test_w_reduction_check_compares_W_with_the_lattice(monkeypatch,
                                                        alphabet):
    # The z = 0 and x = 0 corners read the lattice H, not the oracle's: a
    # doubled coefficient at a partition in x alone (or z alone) is caught
    # there, one at an unsorted exponent by the symmetry check, and the
    # oracle H table is never read.
    def forbidden(*args, **kwargs):
        raise AssertionError("oracle H table read")

    lam = Partition((2, 1))
    monkeypatch.setattr(modmac, "modified_H_oracle", forbidden)
    assert w_reduction_check(lam, 3)
    for sort in (True, False):
        monkeypatch.setattr(modmac, "_W_table", _doubled_entry(alphabet, sort))
        assert not w_reduction_check(lam, 3), sort


def test_w_reduction_check_builds_no_full_polynomial(monkeypatch):
    # Every corner reads W's coefficient table at partition exponents: W is
    # never expanded into a polynomial over its letters, and nothing
    # substitutes.
    def forbidden(name):
        def reached(*args, **kwargs):
            raise AssertionError(name + " reached")
        return reached

    monkeypatch.setattr(symoracle, "W_oracle", forbidden("W_oracle"))
    monkeypatch.setattr(ExactPolynomial, "substitute",
                        forbidden("ExactPolynomial.substitute"))
    for w in range(1, 4):
        for lam in partitions_of(w):
            assert w_reduction_check(lam, w), lam


@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("parts", [lam.parts for w in range(1, 5)
                                   for lam in partitions_of(w)],
                         ids=lambda parts: ",".join(map(str, parts)))
def test_w_reduction_check_agrees_with_the_full_expansion(parts, extra):
    # at N = |lam| and |lam| + 1, on every shape of weight <= 4
    lam = Partition(parts)
    N = lam.weight() + extra
    assert w_reduction_check(lam, N) is True
    assert w_reduction_reference(lam, N) is True


def _doubled_orbit(lam, N):
    """A _W_table, still symmetric, with every entry of one orbit whose x-
    and z-parts are both nonempty doubled: only the J corners see it."""
    table = dict(_W_TABLE(lam, N))

    def rep(e):
        return (tuple(sorted(e[:N])), tuple(sorted(e[N:])))

    first = rep(min(e for e in table if any(e[:N]) and any(e[N:])))
    return {e: {qt: 2 * x for qt, x in terms.items()} if rep(e) == first
            else terms for e, terms in table.items()}


@pytest.mark.parametrize("wrong", [
    _doubled_entry("x", True), _doubled_entry("x", False),
    _doubled_entry("z", True), _doubled_entry("z", False), _doubled_orbit],
    ids=["x-partition", "x-unsorted", "z-partition", "z-unsorted", "orbit"])
def test_w_reduction_check_and_the_full_expansion_reject_a_wrong_table(
        monkeypatch, wrong):
    monkeypatch.setattr(modmac, "_W_table", wrong)
    monkeypatch.setattr(symoracle, "_W_table", wrong)
    lam = Partition((2, 1))
    assert w_reduction_check(lam, 3) is False
    assert w_reduction_reference(lam, 3) is False


def test_cauchy_identities():
    assert cauchy_check("PQ", 1, 1, 3)
    assert cauchy_check("dual", 2, 2, 3)
    assert cauchy_check("W", 1, 1, 2)
    assert cauchy_check("mixedQ", 1, 1, 2)
    assert cauchy_check("mixedP", 1, 1, 2)


@pytest.mark.parametrize("nx, ny", [(1, 2), (2, 1)])
@pytest.mark.parametrize("identity", ["PQ", "dual", "W", "mixedQ", "mixedP"])
def test_cauchy_identities_unequal_alphabets(identity, nx, ny):
    assert cauchy_check(identity, nx, ny, 2)


def test_cauchy_rejects_trivial_truncation():
    with pytest.raises(TruncationTooSmall):
        cauchy_check("PQ", 1, 1, 0)
    with pytest.raises(ValueError):
        cauchy_check("bogus", 1, 1, 2)


@pytest.mark.parametrize("nx, ny", [(0, 1), (1, 0), (-2, -2)])
def test_cauchy_rejects_empty_alphabet(nx, ny):
    with pytest.raises(TooFewVariables):
        cauchy_check("PQ", nx, ny, 2)


def test_hook_multiset_multiplies_to_c_cprime():
    for w in range(7):
        for lam in partitions_of(w):
            cf = c_functions(lam)
            assert factor_product(modmac._hooks(lam)) == \
                cf["c"] * cf["cprime"]


def test_runtime_reaches_no_gcd(monkeypatch):
    # Every oracle, Kostka, reduction, duality and Cauchy result is built by
    # exact division of polynomials over known denominators; none of them
    # may fall back to the general gcd or build a RationalFunction.
    def reached(*args):
        raise AssertionError("gcd or RationalFunction reached")

    monkeypatch.setattr(exactalg, "poly_gcd", reached)
    monkeypatch.setattr(RationalFunction, "__init__", reached)
    clear_caches()
    try:
        modified_H((3, 2, 1), route="oracle")
        kostka_qt((3, 1))
        assert w_reduction_check(Partition((2, 1)), 3)
        assert duality_check(Partition((2, 1)))
        for identity in ("PQ", "dual", "W", "mixedQ", "mixedP"):
            assert cauchy_check(identity, 1, 1, 2)
            assert cauchy_check(identity, 1, 2, 3)
    finally:
        clear_caches()


def test_lattice_routes_reach_no_substitute(monkeypatch):
    # All three lattice sums run as one column sweep: x and dual read their
    # cell factors off Phi's cached term tuples by exponent arithmetic and
    # Hall-Littlewood packs Gaussian binomials, so none substitutes into a
    # polynomial, builds a SequencePair or calls the public Phi functions
    # (which wrap the terms in an ExactPolynomial); and each walks its chains
    # column by column, so none enumerates flags or nu-families (those stay
    # as the tests' flat references).
    def forbidden(name):
        def reached(*args, **kwargs):
            raise AssertionError(name + " reached")
        return reached

    monkeypatch.setattr(ExactPolynomial, "substitute",
                        forbidden("ExactPolynomial.substitute"))
    monkeypatch.setattr(SequencePair, "__init__",
                        forbidden("SequencePair.__init__"))
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").partition(".")[0] == "modmacd":
            for name in ("enumerate_flags", "enumerate_nu_families",
                         "phi_normalized", "phi_prime", "phi_at_one"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden(name))
    clear_caches()
    try:
        for w in range(6):
            for lam in partitions_of(w):
                modified_H(lam, route="lattice_x")
                modified_H(lam, route="lattice_dual")
                modified_HL(lam, max(len(lam), lam.part(1), 1))
    finally:
        clear_caches()


def _ref_factor_coeffs(kind, degree):
    """Coefficients c_m of the per-pair factor f(u) = sum c_m u^m, as
    RationalFunction values (the product side's former arithmetic)."""
    one = RationalFunction(ONE)
    if kind == "one_plus":
        return [one, one] + [RationalFunction(ZERO)] * max(0, degree - 1)
    out = [one]
    if kind == "pq":
        # (t u; q)_inf / (u; q)_inf
        num, den = ONE, ONE
        for m in range(1, degree + 1):
            num = num * (ONE - T * Q ** (m - 1))
            den = den * (ONE - Q ** m)
            out.append(RationalFunction(num, den))
        return out
    if kind in ("inv_q", "inv_t"):
        base = "q" if kind == "inv_q" else "t"
        for m in range(1, degree + 1):
            out.append(RationalFunction(ONE, pochhammer(base, base, m)))
        return out
    if kind in ("neg_q", "neg_t"):
        base = "q" if kind == "neg_q" else "t"
        b = sym(base)
        for m in range(1, degree + 1):
            out.append(RationalFunction(b ** (m * (m - 1) // 2),
                                        pochhammer(base, base, m)))
        return out
    # complete homogeneous / elementary functions of {q^a t^b: a,b >= 0}
    p = [None]
    for r in range(1, degree + 1):
        p.append(RationalFunction(ONE, (ONE - Q ** r) * (ONE - T ** r)))
    sign = 1 if kind == "inv_qt" else -1
    for m in range(1, degree + 1):
        acc = RationalFunction(ZERO)
        s = 1
        for r in range(1, m + 1):
            acc = acc + p[r] * out[m - r] * s
            s *= sign
        out.append(acc / m)
    return out


def test_consistency_failure_inside_cauchy_check_exits_1(monkeypatch):
    # A check that fails inside cauchy_check (here on the product side's
    # numerators) is an internal failure: exit code 1 from the cauchy
    # command, not the usage code 2.
    def inconsistent(kind, degree):
        raise ConsistencyError("%s numerators do not clear" % kind)

    monkeypatch.setattr(modmac, "_factor_numerators", inconsistent)
    assert cli.main(["cauchy", "--form", "W", "--vars", "1",
                     "--max-weight", "2"]) == 1


@pytest.mark.parametrize("kind", sorted(modmac._BASES))
def test_factor_numerators_over_q_factorials_match_the_coefficients(kind):
    nums = modmac._factor_numerators(kind, 6)
    ref = _ref_factor_coeffs(kind, 6)
    assert len(nums) == len(ref) == 7
    for m, (n, c) in enumerate(zip(nums, ref)):
        den = factor_product(modmac._qfactorial(modmac._BASES[kind], m))
        assert RationalFunction(n, den) == c, (kind, m)


# Each factor kind mapped to one whose series differs by degree 2.
_WRONG_KIND = {"pq": "inv_q", "one_plus": "inv_q",
               "inv_q": "neg_q", "neg_q": "inv_q",
               "inv_t": "neg_t", "neg_t": "inv_t",
               "inv_qt": "neg_qt", "neg_qt": "inv_qt"}


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 2)])
@pytest.mark.parametrize("identity", ["PQ", "dual", "W", "mixedQ", "mixedP"])
def test_cauchy_check_fails_on_a_wrong_product_side(monkeypatch, identity,
                                                    nx, ny):
    left, right, pairs = modmac._CAUCHY[identity]
    for i, (a, b, kind) in enumerate(pairs):
        wrong = pairs[:i] + [(a, b, _WRONG_KIND[kind])] + pairs[i + 1:]
        monkeypatch.setitem(modmac._CAUCHY, identity, (left, right, wrong))
        assert not cauchy_check(identity, nx, ny, 2), (a, b, kind)


# A left or right factor kind swapped for one that differs by degree 2:
# J <-> J', W -> J, or the right J factor moved to the group's other alphabet.
_WRONG_FACTOR = {"J": "J'", "J'": "J", "W": "J"}


def _wrong_sum_sides(left, right):
    kind, alphabet = right
    yield _WRONG_FACTOR[left], right
    yield left, (_WRONG_FACTOR[kind], alphabet)
    if kind != "W":  # W fills both alphabets of its group
        yield left, (kind, "w" if alphabet == "y" else "y")


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 2)])
@pytest.mark.parametrize("identity", ["PQ", "dual", "W", "mixedQ", "mixedP"])
def test_cauchy_check_fails_on_a_wrong_sum_side(monkeypatch, identity,
                                                nx, ny):
    left, right, pairs = modmac._CAUCHY[identity]
    for wrong_left, wrong_right in _wrong_sum_sides(left, right):
        monkeypatch.setitem(modmac._CAUCHY, identity,
                            (wrong_left, wrong_right, pairs))
        assert not cauchy_check(identity, nx, ny, 2), (wrong_left,
                                                        wrong_right)


def _ref_integral_form(kind, lam, alphabet, n):
    """One sum-side factor as a polynomial in the first n letters of the
    alphabet (W's second alphabet is z beside x and w beside y)."""
    if kind == "W":
        poly = symoracle.W_oracle(lam, n)
    else:
        poly = monomial_expand(symoracle.integral_J(
            lam if kind == "J" else conjugate(lam), n), n)
    rename = {"q": "t", "t": "q"} if kind == "J'" else {}
    if alphabet != "x":
        for i in range(1, n + 1):
            rename["x%d" % i] = "%s%d" % (alphabet, i)
            rename["z%d" % i] = "w%d" % i
    return ExactPolynomial([rename.get(v, v) for v in poly.vars], poly.terms)


def _admits(frame, exp):
    """Whether neither group's degree of exp passes the frame's truncation."""
    return (sum(exp[:frame.na]) <= frame.degree
            and sum(exp[frame.na:]) <= frame.degree)


def _ref_series_from_poly(frame, poly):
    """Split a polynomial over frame symbols plus (q, t) into a dict mapping
    each admitted frame exponent tuple to its (q, t) polynomial."""
    qt = [v for v in poly.vars if v not in frame.index]
    width = len(frame.names)
    out = {}
    for exp, coef in poly.terms.items():
        frame_exp = [0] * width
        qt_exp = []
        for name, e in zip(poly.vars, exp):
            if name in frame.index:
                frame_exp[frame.index[name]] = e
            else:
                qt_exp.append(e)
        fe = tuple(frame_exp)
        if _admits(frame, fe):
            out.setdefault(fe, {})[tuple(qt_exp)] = coef
    return {fe: ExactPolynomial(qt, terms) for fe, terms in out.items()}


def _ref_sum_side(identity, nx, ny, degree):
    """The sum side as one polynomial in every frame symbol plus q and t,
    over the lcm D_m of the hook multisets at each degree m, split into a
    series (the former cauchy_check arithmetic); returns it and the D_m."""
    left, (right, alphabet), _ = modmac._CAUCHY[identity]
    lhs = ONE
    dens = [Counter()]
    for m in range(1, degree + 1):
        hooks = {lam: modmac._hooks(lam) for lam in partitions_of(m)
                 if modmac._admits_shape(left, lam, nx)
                 and modmac._admits_shape(right, lam, ny)}
        lcm = reduce(or_, hooks.values(), Counter())
        dens.append(lcm)
        for lam, h in hooks.items():
            lhs = lhs + (_ref_integral_form(left, lam, "x", nx)
                         * factor_product(lcm - h)
                         * _ref_integral_form(right, lam, alphabet, ny))
    return _ref_series_from_poly(modmac._Frame(nx, ny, degree), lhs), dens


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("identity", ["PQ", "dual", "W", "mixedQ", "mixedP"])
def test_sum_side_series_matches_the_expanded_polynomial(identity, nx, ny,
                                                         degree):
    # packed at the W and T that the sum side's own bounds pick, every
    # numerator decodes to the reference's
    left, (right, alphabet), _ = modmac._CAUCHY[identity]
    groups, lcms, bounds = modmac._sum_shapes(
        left, right, alphabet == "w", nx, ny, [Counter()] * (degree + 1))
    qt = QTPacking.comparing([(b, _Bound(0, 0), _Bound(1, 0))
                              for b in bounds])
    series = modmac._sum_side(groups, qt)
    ref, dens = _ref_sum_side(identity, nx, ny, degree)
    assert lcms == dens
    for e in set(series) | set(ref):
        got = _unpack_qt(series.get(e, 0), qt.W, qt.T)
        assert got == ref.get(e, ZERO), e


def _ref_series_mul(frame, a, b, scale):
    """Product of two product-side series of ExactPolynomial numerators at
    group-A degrees i and j, times scale[i, j] = E_{i+j} / (E_i E_j)."""
    out = {}
    na = frame.na
    for ea, ca in a.items():
        da = sum(ea[:na])
        for eb, cb in b.items():
            e = tuple(u + v for u, v in zip(ea, eb))
            if not _admits(frame, e):
                continue
            c = ca * cb * scale[da, sum(eb[:na])]
            got = out.get(e)
            tot = c if got is None else got + c
            if tot.is_zero():
                out.pop(e, None)
            else:
                out[e] = tot
    return out


def _ref_product_side(identity, frame):
    """The product side as ExactPolynomial numerators over
    E_m = prod_{b in bases} (b; b)_m (the former cauchy_check arithmetic)."""
    pairs = modmac._CAUCHY[identity][2]
    bases = set("".join(modmac._BASES[kind] for _, _, kind in pairs))
    names = {a: [v for v in frame.names if v[0] == a] for a in "xzyw"}
    factors = [(a, b, kind) for pa, pb, kind in pairs
               for a in names[pa] for b in names[pb]]
    degree = frame.degree
    width = len(frame.names)
    scale = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            g = gauss_binomial(i + j, i)  # in t; renamed to each base
            scale[i, j] = ONE
            for b in bases:
                scale[i, j] = scale[i, j] * ExactPolynomial(
                    (b,) * len(g.vars), g.terms)
    numerators = {}
    for kind in {kind for _, _, kind in factors}:
        lacks = bases - set(modmac._BASES[kind])
        numerators[kind] = [n * factor_product(modmac._qfactorial(lacks, m))
                            for m, n in enumerate(
                                modmac._factor_numerators(kind, degree))]
    acc = {(0,) * width: ONE}
    for va, vb, kind in factors:
        fac = {}
        for m, n in enumerate(numerators[kind]):
            if n.is_zero():
                continue
            exp = [0] * width
            exp[frame.index[va]] = m
            exp[frame.index[vb]] = m
            fac[tuple(exp)] = n
        acc = _ref_series_mul(frame, acc, fac, scale)
    return acc


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("identity", ["PQ", "dual", "W", "mixedQ", "mixedP"])
def test_packed_product_side_matches_the_exact_series(identity, nx, ny,
                                                      degree):
    frame, _, rhs, _, qt = modmac._cauchy_sides(identity, nx, ny, degree)
    ref = _ref_product_side(identity, frame)
    for e in set(rhs) | set(ref):
        assert _unpack_qt(rhs.get(e, 0), qt.W, qt.T) == ref.get(e, ZERO), e


def test_cauchy_check_builds_no_full_frame_polynomial(monkeypatch):
    # Both sides are series keyed by frame exponent: no factor is expanded
    # into a polynomial over its letters and q, t, and nothing substitutes.
    def forbidden(name):
        def reached(*args, **kwargs):
            raise AssertionError(name + " reached")
        return reached

    monkeypatch.setattr(reference, "monomial_expand",
                        forbidden("monomial_expand"))
    monkeypatch.setattr(symoracle, "W_oracle", forbidden("W_oracle"))
    monkeypatch.setattr(symoracle, "integral_J", forbidden("integral_J"))
    monkeypatch.setattr(ExactPolynomial, "substitute",
                        forbidden("ExactPolynomial.substitute"))
    for identity in ("PQ", "dual", "W", "mixedQ", "mixedP"):
        assert cauchy_check(identity, 1, 2, 3), identity


def test_table_key_of_the_wrong_weight_is_a_consistency_failure():
    with pytest.raises(ConsistencyError) as info:
        modmac.HResult(Partition((2,)), {Partition((1,)): ONE}, "oracle")
    assert type(info.value) is ConsistencyError


def test_table_with_a_negative_term_is_a_negative_coefficient():
    with pytest.raises(NegativeCoefficient) as info:
        modmac.HResult(Partition((2,)), {Partition((2,)): ONE - Q}, "oracle")
    assert type(info.value) is NegativeCoefficient
