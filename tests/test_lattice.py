"""Lattice vertex weights: rank-one, fused, R-matrix, exchange relation,
column weights and the partition function."""

import functools
import importlib.util
import itertools
import math
import os
import sys
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from modmacd import lattice, phi
from modmacd.combinat import (Partition, SequencePair, _at, _chains,
                              conjugate, enumerate_flags,
                              enumerate_nu_families, partitions_of)
from modmacd.errors import (ConsistencyError, InfeasibleMultiplicities,
                            MismatchedTops)
from modmacd.exactalg import (ExactPolynomial, ONE, P, RationalFunction,
                              poly_divexact, sym, ZERO)
from modmacd.lattice import (_PHI_EVAL_CACHE, _as_poly, _cell, _phi_eval,
                             _BINOM_CELL_CACHE, _collapse_compositions,
                             _column_moves, _composition_index, _hl_moves,
                             chi, fundamental_L, fused_L_recurrence,
                             fused_vertex_bruteforce,
                             partition_function_coeffs, rll_check)
from modmacd.memo import clear_caches
from modmacd.packed import _digits, _pack_qt, _unpack_qt, _width
from modmacd.phi import phi_at_one, phi_normalized, phi_prime
from modmacd.qseries import gauss_binomial, pochhammer

import reference
from reference import (FaceState, hl_column, move_increment, multiplicity,
                       weight_fused, weight_fused_x, weight_fused_z,
                       weight_hl, weight_hl_factorization_check)

Q = sym("q")
T = sym("t")
X = sym("x")
Z = sym("z")


def small_faces(n, occ):
    rng = range(occ + 1)
    for sig in itertools.product(rng, repeat=n):
        for st in itertools.product(rng, repeat=n):
            for rho in itertools.product(rng, repeat=n):
                rt = tuple(s + r - t_ for s, t_, r in zip(sig, st, rho))
                if any(v < 0 or v > occ for v in rt):
                    continue
                yield FaceState(sig, st, rho, rt)


def test_face_state_conservation():
    f = FaceState((1, 0), (0, 1), (0, 1), (1, 0))
    assert f.conserves()
    g = FaceState((1, 0), (0, 0), (0, 0), (0, 0))
    assert not g.conserves()
    with pytest.raises(ValueError):
        FaceState((1,), (1, 0), (1,), (1,))


def test_rank_one_weight_values():
    assert weight_hl(0, 1, 1, 0) == X
    assert weight_hl(1, 2, 1, 0) == T * X ** 2
    assert weight_hl(0, 0, 2, 2) == P(1)
    assert weight_hl(1, 1, 1, 1) == (P(1) + T) * X
    assert weight_hl(1, 0, 0, 0).is_zero()


def test_fused_weight_specializations():
    for f in small_faces(2, 2):
        full = weight_fused(f)
        assert full.substitute({"z": P(0)}) == weight_fused_x(f)
        assert full.substitute({"x": P(0)}) == weight_fused_z(f)


def test_fused_weight_factorizes_into_rank_one():
    for f in small_faces(2, 2):
        assert weight_hl_factorization_check(f)


def test_fundamental_L_values():
    # Conservation I + e_j = K + e_i; elements depend on the incoming state.
    I = (2, 1)
    assert fundamental_L(0, 0, I, I) == P(1)
    assert fundamental_L(2, 0, I, (2, 2)) == P(1)
    # Diagonal: x times t to the occupation above the colour.
    assert fundamental_L(1, 1, I, I) == X * T
    assert fundamental_L(2, 2, I, I) == X
    # Strictly increasing colour or entry from colour 0.
    assert fundamental_L(0, 1, I, (1, 1)) == X * (P(1) - T ** 2) * T
    assert fundamental_L(1, 2, (2, 1), (3, 0)) == X * (P(1) - T)
    # Colour cannot decrease across the vertex.
    assert fundamental_L(2, 1, (2, 2), (1, 3)).is_zero()
    # Violating conservation gives zero.
    assert fundamental_L(1, 1, I, (2, 2)).is_zero()


def r_matrix(i_a, j_a, i_b, j_b, z="u"):
    """Fundamental R-matrix component as a rational function of (z, t)."""
    if i_a + i_b != j_a + j_b:
        return RationalFunction(ZERO)
    z = _as_poly(z)
    num = T ** int(j_a < i_b) * z ** int(j_a < i_a) \
        * (ONE - T ** int(j_a == i_b) * z ** int(j_a == i_a))
    return RationalFunction(num, ONE - T * z)


def test_r_matrix_row_sums_are_one():
    # Summing over outgoing labels at fixed incoming labels gives one.
    one = RationalFunction(P(1))
    for n in (1, 2):
        for ia in range(n + 1):
            for ib in range(n + 1):
                acc = RationalFunction(P(0))
                for ja in range(n + 1):
                    for jb in range(n + 1):
                        if ja + jb != ia + ib and {ja, jb} != {ia, ib}:
                            continue
                        if sorted((ja, jb)) != sorted((ia, ib)):
                            continue
                        acc = acc + r_matrix(ia, ja, ib, jb)
                assert acc == one


def test_exchange_relation():
    assert rll_check(1, 2)
    assert rll_check(2, 2)


def test_fused_vertex_matches_recurrence_at_fusion_point():
    minus = ExactPolynomial.constant(-1)
    for J in (1, 2):
        for lam in itertools.product(range(2), repeat=2):
            if sum(lam) > J:
                continue
            for mu in itertools.product(range(2), repeat=2):
                if sum(mu) > J:
                    continue
                for lamp in itertools.product(range(2), repeat=2):
                    mup = tuple(a + b - c
                                for a, b, c in zip(lam, lamp, mu))
                    if any(v < 0 for v in mup):
                        continue
                    spec = fused_L_recurrence(lam, mu, lamp, mup).substitute(
                        {"z": minus * T ** J * X})
                    brute = fused_vertex_bruteforce(J, lam, mu, lamp, mup)
                    assert spec == brute


@pytest.mark.parametrize("lam, mu", [((2, 1), (1, 0)), ((0, 1), (3, 0))])
def test_fused_vertex_rejects_multiplicities_above_the_level(lam, mu):
    # sum(lam) or sum(mu) > J: no word of length J carries those colours
    with pytest.raises(InfeasibleMultiplicities) as info:
        fused_vertex_bruteforce(2, lam, mu, (0, 0), (0, 0))
    assert type(info.value) is InfeasibleMultiplicities


def test_fused_recurrence_matches_kappa_sum():
    for f in small_faces(2, 2):
        if not f.conserves():
            continue
        got = fused_L_recurrence(f.sigma, f.sigmatilde, f.rho, f.rhotilde)
        assert got == weight_fused(
            FaceState(f.sigma, f.sigmatilde, f.rho, f.rhotilde))


def column_weight(i, lam, pairs, variant="x"):
    """Weight of column i as a RationalFunction: the factor column i
    contributes to the partition function of formula 'x' or 'hl', times its
    x-monomial.

    variant 'x': pairs maps j -> (nu_j, nutilde_j) for j = i..n with tops
    equal to the multiplicity of j in lambda, and the weight is over the
    column's normalizer, unreduced (the diagonal factor j = i, at argument
    1, is read from nutilde_i alone); variant 'hl': pairs is a single
    (nu, nutilde) tuple for the column itself.
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    conj = conjugate(lam)
    if variant == "hl":
        nu, nut = pairs
        N = len(nu)
        if nut[-1] != conj.part(i) or nu[-1] != conj.part(i + 1):
            raise MismatchedTops(
                "column tops must be the conjugate parts at i, i+1")
        expo, binoms = hl_column(nu, nut)
        out = T ** expo
        for a, b in binoms:
            out = out * gauss_binomial(a, b)
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
            raise MismatchedTops("tops must equal the multiplicity of %d" % j)
    acc = ExactPolynomial.monomial({"t": chi([pairs])})
    for j in js:
        nu, nut = pairs[j]
        acc = acc * _cell_poly(_phi_eval(tuple(nu), tuple(nut), j - i,
                                         conj.part(i) - conj.part(j), False))
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


def test_column_weight_hl_variant():
    lam = Partition((2, 2, 1))
    conj = conjugate(lam)
    # Column 1 of lambda = (2,2,1): tops are lambda'_1 = 3 and lambda'_2 = 2.
    nu = (0, 2)
    nut = (1, 3)
    w = column_weight(1, lam, (nu, nut), variant="hl")
    d1, d2 = 1, 2
    expect = T ** (d1 * (d1 - 1) // 2 + d2 * (d2 - 1) // 2) \
        * gauss_binomial(nut[1] - nu[0], nut[0] - nu[0]) \
        * sym("x1") ** 1 * sym("x2") ** 2
    assert w == RationalFunction(expect)
    with pytest.raises(MismatchedTops):
        column_weight(1, lam, ((0, 1), (1, 2)), variant="hl")


def test_column_weight_single_column_shape():
    # For a single-column lambda the normalizer is trivial and the only
    # factor is the diagonal one, evaluated at argument one.
    lam = Partition((1, 1))
    nu = (0, 2)
    nut = (1, 2)
    sp = SequencePair(nu, nut)
    w = column_weight(1, lam, {1: (nu, nut)}, variant="x")
    expo = chi([{1: (nu, nut)}])
    expect = T ** expo * phi_at_one(sp) \
        * sym("x1") ** 1 * sym("x2") ** 1
    assert w == RationalFunction(expect)
    with pytest.raises(MismatchedTops):
        column_weight(1, lam, {1: ((0, 1), (1, 1))}, variant="x")


def test_partition_function_routes_agree():
    for w in range(1, 4):
        for lam in partitions_of(w):
            N = max(len(lam), lam.part(1), 1)
            a = partition_function_coeffs(lam, N, formula="x")
            b = partition_function_coeffs(lam, N, formula="z")
            assert a == b


def test_partition_function_hl_matches_q_zero():
    for lam in (Partition((2,)), Partition((1, 1)), Partition((2, 1))):
        N = max(len(lam), lam.part(1), 1)
        full = partition_function_coeffs(lam, N, formula="x")
        at0 = {mu: p.substitute({"q": P(0)}) for mu, p in full.items()}
        at0 = {mu: p for mu, p in at0.items() if not p.is_zero()}
        assert at0 == partition_function_coeffs(lam, N, formula="hl")


def test_partition_function_known_tables():
    got = partition_function_coeffs(Partition((2,)), 2, formula="x")
    assert got == {Partition((2,)): P(1), Partition((1, 1)): P(1) + Q}
    got = partition_function_coeffs(Partition((1, 1)), 2, formula="x")
    assert got == {Partition((2,)): T, Partition((1, 1)): P(1) + T}


@functools.lru_cache(maxsize=None)
def _cell_by_substitution(nu, nut, qexp, texp, dual):
    """Phi (Phi' in base q when dual) of a cell, substituted directly."""
    sp = SequencePair(nu, nut)
    if dual:
        return phi_prime(sp).substitute(
            {"z": ExactPolynomial.monomial({"t": qexp, "q": texp}), "t": Q})
    return phi_normalized(sp).substitute(
        {"z": ExactPolynomial.monomial({"q": qexp, "t": texp})})


@functools.lru_cache(maxsize=None)
def _flat_partition_function(lam, N, formula):
    """Reference for partition_function_coeffs(lam, N, 'x' | 'z'): the flat
    sum over every nu-family of base^chi times one factor per cell (i, j) at
    q^(j-i) t^(shape_i - shape_j); the diagonal cell, at argument 1, is
    evaluated at nu := nutilde."""
    dual = (formula == "z")
    shape = lam if dual else conjugate(lam)
    n = len(shape)
    by_comp = {}
    for fam in enumerate_nu_families(lam, N, dual=dual):
        columns = [{j: (fam.column(i + 1, j), fam.column(i, j))
                    for j in range(i, n + 1)} for i in range(1, n + 1)]
        coef = ExactPolynomial.monomial({"q" if dual else "t":
                                         chi(columns, dual)})
        for i, pairs in enumerate(columns, start=1):
            for j, (nu, nut) in pairs.items():
                coef = coef * _cell_by_substitution(
                    nut if i == j else nu, nut, j - i,
                    shape.part(i) - shape.part(j), dual)
        if not coef.is_zero():
            mu = fam.mu()
            by_comp[mu] = by_comp.get(mu, ZERO) + coef
    out = {}
    for comp, val in by_comp.items():
        key = Partition(sorted(comp, reverse=True))
        assert out.setdefault(key, val) == val, comp
    return out


def _with_n(lam):
    """(lam, N) for N from max(ell(lam), lam_1) to two more."""
    least = max(len(lam), lam.part(1))
    return st.tuples(st.just(lam), st.integers(least, least + 2))


@given(st.sampled_from([lam for w in range(6) for lam in partitions_of(w)])
       .flatmap(_with_n), st.sampled_from("xz"))
@example((Partition(()), 0), "x")
@example((Partition(()), 1), "z")
@example((Partition(()), 2), "x")
@example((Partition((4,)), 4), "x")
@example((Partition((4,)), 4), "z")
@example((Partition((1, 1, 1, 1)), 4), "x")
@example((Partition((1, 1, 1, 1)), 4), "z")
@settings(max_examples=100, deadline=None)
def test_column_sweep_matches_flat_family_sum(case, formula):
    lam, N = case
    assert partition_function_coeffs(lam, N, formula) \
        == _flat_partition_function(lam, N, formula)


def _table_moves(moves, state, belows):
    """The moves of one column from _column_moves' or _hl_moves' tables,
    each as (below chains, cur chains, increment, exponent, cell ids in
    order), with each move's carried l1 and t-degree checked against its
    cells."""
    out = []
    for below, prefix, options in moves:
        for option in options:
            sid, expo, inc, deg = (prefix[k] + option[k] for k in (0, 1, 2, 4))
            l1, cells = prefix[3] * option[3], prefix[5] + option[5]
            assert l1 == math.prod(cell[0] for cell in cells)
            assert deg == sum(cell[1] for cell in cells)
            a, cur = state(sid)
            out.append((belows[below], cur, inc, expo + a,
                        tuple(sorted(map(id, cells)))))
    return sorted(out)


@given(st.sampled_from([lam for w in range(7) for lam in partitions_of(w)])
       .flatmap(_with_n), st.sampled_from(["x", "z", "hl"]))
@example((Partition((3, 2, 1)), 5), "x")
@example((Partition((2, 2, 1, 1)), 6), "z")
@example((Partition((1, 1, 1, 1, 1, 1)), 8), "hl")
@settings(max_examples=60, deadline=None)
def test_move_tables_yield_the_reference_moves(case, formula):
    # Every column, from every below state (not only the live ones), yields
    # the same multiset of moves as the reference generators.
    lam, N = case
    dual = formula == "z"
    shape = lam if dual else conjugate(lam)
    n = len(shape)
    B = sum(shape) + 1
    powers = [B ** k for k in range(N)]
    if formula == "hl":
        column = _hl_moves(shape, N, powers)
        sets = [[(nut,) for nut in _chains(shape.part(j), N)]
                for j in range(2, n + 2)]
    else:
        column = _column_moves(shape, N, dual, powers)
        sets = [list(itertools.product(*(
            _chains(shape.part(j) - shape.part(j + 1), N)
            for j in range(i + 1, n + 1)))) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        tuples = sets[i - 1] if i < n else [()]
        belows = dict(enumerate(tuples))
        got = _table_moves(*column(i, belows), belows)
        if formula == "hl":
            ref = reference.hl_moves(shape, N, i, tuples)
        else:
            ref = reference.column_moves(shape, N, dual, i, tuples)
        assert got == sorted(
            (below, cur, move_increment(cur, powers), expo,
             tuple(sorted(map(id, cells))))
            for below, cur, expo, cells in ref), (i, formula)


def _chi_by_pairs_of_chains(pairs, dual):
    """Reference for one column's term of chi (chi' when dual): the sum over
    k, j and l > j of each pair's term, with nu^0 = nutilde^0 = 0."""
    def at(seq, k):
        return seq[k - 1] if k >= 1 else 0

    total = 0
    js = sorted(pairs)
    for k in range(1, len(pairs[js[0]][0]) + 1):
        for j in js:
            nutj = pairs[j][1]
            d = at(nutj, k) - at(nutj, k - 1)
            if not dual:
                total += d * (d - 1) // 2
            for l in js:
                if l > j:
                    nul, nutl = pairs[l]
                    total += d * (at(nutl, k - 1) - at(nul, k) if dual
                                  else at(nutl, k) - at(nul, k - 1))
    return total


def _nondecreasing_chains(length):
    return st.lists(st.integers(0, 3), min_size=length, max_size=length) \
        .map(lambda steps: tuple(itertools.accumulate(steps)))


@given(st.integers(1, 4).flatmap(lambda N: st.lists(
    st.tuples(_nondecreasing_chains(N), _nondecreasing_chains(N)),
    min_size=1, max_size=4)), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_column_exponents_match_the_pairwise_sum(chains, i):
    pairs = {j: pair for j, pair in enumerate(chains, start=i)}
    assert chi([pairs], False) == _chi_by_pairs_of_chains(pairs, False)
    assert chi([pairs], True) == _chi_by_pairs_of_chains(pairs, True)


def _cell_terms(cell):
    """The terms ((q exponent, t exponent), c) of a cell record, decoded
    from its rows by its exponent map: the digit i of row z is the
    coefficient of q^(z zq) t^(z zt + i), or when dual of
    q^(z zq + i) t^(z zt)."""
    _, _, rows, W, first, zq, zt, dual = cell
    out = {}
    for z, value in enumerate(rows, first):
        for i, c in _digits(value, W):
            key = (z * zq + i, z * zt) if dual else (z * zq, z * zt + i)
            out[key] = out.get(key, 0) + c
    return tuple((key, c) for key, c in out.items() if c)


def _cell_poly(cell):
    """The ExactPolynomial of a cell record's terms ((q exponent, t
    exponent), c)."""
    return ExactPolynomial(("q", "t"), dict(_cell_terms(cell)))


def _bounds_of(terms):
    """(l1 norm, t-degree) of cell terms, recomputed from the terms."""
    return sum(abs(c) for _, c in terms), max(t for (_, t), _ in terms)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=5).map(sorted)
       .map(tuple))
@settings(max_examples=60, deadline=None)
def test_diagonal_cell_is_phi_at_one(nut):
    # argument 1 is q^0 t^0; the dual route reads Phi' with t -> q
    sp = SequencePair(nut, nut)
    assert _cell_poly(_phi_eval(nut, nut, 0, 0, False)) \
        == phi_normalized(sp).substitute({"z": P(1)})
    assert _cell_poly(_phi_eval(nut, nut, 0, 0, True)) \
        == phi_prime(sp).substitute({"z": P(1), "t": Q})


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
                max_size=4), st.integers(1, 3), st.integers(0, 3),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_cell_tuple_is_phi_at_the_cell_argument(steps, qexp, texp, dual):
    # nu and nutilde grow by the drawn steps and share their last entry
    nu = tuple(itertools.accumulate(a for a, _ in steps))
    nut = tuple(itertools.accumulate(b for _, b in steps))
    nut = nut[:-1] + (nu[-1],)
    assume(all(x <= y for x, y in zip(nut, nut[1:])))
    cell = _phi_eval(nu, nut, qexp, texp, dual)
    terms = _cell_terms(cell)
    assert all(c for _, c in terms)
    assert cell[:2] == _bounds_of(terms)
    assert _cell_poly(cell) == _cell_by_substitution(nu, nut, qexp, texp,
                                                     dual)


@given(st.integers(2, 8).flatmap(lambda W: st.tuples(
    st.just(W), st.lists(st.lists(
        st.integers(1 - (1 << W - 1), (1 << W - 1) - 1), max_size=12),
        min_size=1, max_size=4))),
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.booleans())
@example((3, [[-1, 0, 1]]), 1, 0, 0, False)  # 2^(2W) - 1: bit_length 2W
@example((3, [[-1, 0, 1]]), 0, 0, 0, True)
@example((4, [[3], [-7, 0, 0, 2]]), 2, 1, 1, True)
@settings(max_examples=80, deadline=None)
def test_cell_bounds_hold_for_signed_rows(rows, qexp, texp, first, dual):
    # The carried bounds read the rows, not the sign of Phi: over rows with
    # signed digits, the l1 bound is the rows' summed norm and the t-degree
    # is the top digit's, whatever digits lie below it.  As in a sweep, an
    # off-diagonal cell has qexp >= 1, and the diagonal one (argument 1)
    # reads one row.
    W, digits = rows
    if qexp == 0:
        texp, digits = 0, digits[:1]
    packed = tuple(sum(c << W * i for i, c in enumerate(row))
                   for row in digits)
    l1 = sum(abs(c) for row in digits for c in row)
    # the rows stand at z^first: the pair's z-shift, nu^1 = 0 for Phi'
    nu, nut = (0, 1), (1, 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_phi_view", lambda *_: (packed, W, l1, first))
        mp.setattr(lattice, "_at_one_rows", lambda *_: (packed, W, l1))
        cell = _phi_eval.__wrapped__(nu, nut, qexp, texp, dual)
    terms = _cell_terms(cell) if cell else ()
    assume(terms)
    assert cell[0] == l1
    assert cell[1] == max(t for (_, t), _ in terms)


_spec = importlib.util.spec_from_file_location(
    "bench_workloads", os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench", "workloads.py"))
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def test_every_h_lattice_cell_is_a_positive_phi():
    # Each cell the x and dual sweeps cache for the h_lattice items (weights
    # 4-6, 2,722 cells) is Phi or Phi' of a valid pair, or on the diagonal
    # the closed product: nonzero, with nonnegative coefficients, and at
    # q = t = 1 it is prod_j C(nutilde^{j+1}, nutilde^j), phi_at_one at
    # t = 1.  So _column_moves' nonzero filter drops no valid chain.  The
    # record's carried l1 norm is that product, and its carried bounds are
    # the ones its terms give.
    clear_caches()
    for lam, N in workloads.h_items(workloads.H_WEIGHTS,
                                    workloads.H_FAMILY_CAP):
        for formula in ("x", "z"):
            partition_function_coeffs(Partition(lam), N, formula)
    assert _PHI_EVAL_CACHE
    for (_, nut, _, _, _), cell in _PHI_EVAL_CACHE.items():
        assert cell
        norm, terms = cell[0], _cell_terms(cell)
        assert all(c > 0 for _, c in terms)
        assert sum(c for _, c in terms) \
            == math.prod(map(math.comb, nut[1:], nut[:-1]))
        assert norm == math.prod(map(math.comb, nut[1:], nut[:-1]))
        assert cell[:2] == _bounds_of(terms)


_LAURENT_QT = st.dictionaries(
    st.tuples(st.integers(-3, 4), st.integers(-3, 4)), st.integers(-40, 40),
    max_size=6)


@given(_LAURENT_QT, _LAURENT_QT, _LAURENT_QT)
@example({}, {}, {})
@example({(0, 0): -1}, {(-3, 4): 40}, {(-6, 8): -40})
@settings(max_examples=120, deadline=None)
def test_packed_qt_matches_exact_products_and_sums(f, g, h):
    # f g + h for Laurent f, g, h with signed coefficients: f and g are
    # packed times q^-sq t^-st, h times their square, so that every exponent
    # is >= 0; W and T come from the l1 norms and degrees of the inputs.
    sq = min([q for q, _ in (*f, *g, *h)] + [0])
    st_ = min([t for _, t in (*f, *g, *h)] + [0])

    def shifted(p, k):
        return {(q - k * sq, t - k * st_): c for (q, t), c in p.items()}

    def l1(p):
        return sum(abs(c) for c in p.values())

    def tdeg(p):
        return max([t for _, t in p] + [0])

    fs, gs, hs = shifted(f, 1), shifted(g, 1), shifted(h, 2)
    W = _width(l1(f) * l1(g) + l1(h))
    T = max(tdeg(fs) + tdeg(gs), tdeg(hs)) + 1
    value = _pack_qt(fs.items(), W, T) * _pack_qt(gs.items(), W, T) \
        + _pack_qt(hs.items(), W, T)
    expect = ExactPolynomial(("q", "t"), f) * ExactPolynomial(("q", "t"), g) \
        + ExactPolynomial(("q", "t"), h)
    assert _unpack_qt(value, W, T, 2 * sq, 2 * st_) == expect


def _hl_flag_loop(lam, N):
    """Reference for partition_function_coeffs(lam, N, 'hl'): the flag sum
    in ExactPolynomial arithmetic.  Column i of a flag contributes t to the
    sum of d(d-1)/2 over the increments d of nutilde and the binomials
    [nutilde_{k+1} - nu_k, nutilde_k - nu_k] for k < N."""
    by_comp = {}
    for flag in enumerate_flags(lam, N):
        coef = ONE
        for i in range(1, lam.part(1) + 1):
            nu = tuple(f.part(i + 1) for f in flag[1:])
            nut = tuple(f.part(i) for f in flag[1:])
            for d in (b - a for a, b in zip((0,) + nut, nut)):
                coef = coef * T ** (d * (d - 1) // 2)
            for k in range(1, N):
                coef = coef * gauss_binomial(nut[k] - nu[k - 1],
                                             nut[k - 1] - nu[k - 1])
        if not coef.is_zero():
            mu = tuple(flag[k].weight() - flag[k - 1].weight()
                       for k in range(1, N + 1))
            by_comp[mu] = by_comp.get(mu, ZERO) + coef
    out = {}
    for comp, val in by_comp.items():
        key = Partition(sorted(comp, reverse=True))
        assert out.setdefault(key, val) == val, comp
    return out


@given(st.sampled_from([lam for w in range(7) for lam in partitions_of(w)])
       .flatmap(lambda lam: st.tuples(st.just(lam),
                                      st.integers(len(lam), len(lam) + 2))))
@example((Partition(()), 0))
@example((Partition((3, 3)), 2))
@example((Partition((1, 1, 1, 1, 1, 1)), 6))
@settings(max_examples=80, deadline=None)
def test_packed_hl_matches_exact_flag_loop(case):
    lam, N = case
    assert partition_function_coeffs(lam, N, "hl") == _hl_flag_loop(lam, N)


def test_sweep_checks_the_multinomials(monkeypatch):
    # Every composition's value at q = t = 1 is a multinomial; one cell
    # factor with a coefficient raised by 1 breaks that, and the sweep
    # refuses before anything is decoded.
    lam = Partition((2, 1))
    clear_caches()
    try:
        partition_function_coeffs(lam, 3, "x")
        key = next(k for k in _PHI_EVAL_CACHE if k[2] == 1)
        (exp, c), *rest = _cell_terms(_PHI_EVAL_CACHE[key])
        monkeypatch.setitem(_PHI_EVAL_CACHE, key,
                            _cell(((exp, c + 1), *rest)))
        with pytest.raises(ConsistencyError, match="multinomial"):
            partition_function_coeffs(lam, 3, "x")
    finally:
        clear_caches()


def _sweep_values(values):
    """{composition key: packed value} of {composition: packed value}, the
    keys as _column_sweep makes them: sum_k c_k B^k with B = n + 1."""
    return {sum(c * (sum(comp) + 1) ** k for k, c in enumerate(comp)): value
            for comp, value in values.items()}


def test_collapse_checks_permutation_invariance():
    # Compositions that permute each other must carry equal values; they
    # collapse onto one partition (trailing zeros dropped).  Every
    # composition of 3 into 3 parts is present, packed at W = 8, with its
    # multinomial at q = t = 1: (2, 1)'s class carries 7 - 4t.
    W = 8
    value = {(3,): 1, (2, 1): 7 - (4 << W), (1, 1, 1): 6}
    comps = [c for c in itertools.product(range(4), repeat=3) if sum(c) == 3]
    same = {c: value[Partition(sorted(c, reverse=True)).parts] for c in comps}
    assert _collapse_compositions(_sweep_values(same), W,
                                  Partition((2, 1)), 3, False) \
        == {Partition((3,)): 1, Partition((2, 1)): 7 - (4 << W),
            Partition((1, 1, 1)): 6}
    # (2, 1, 0) carrying 3, the same value at q = t = 1, differs
    with pytest.raises(ConsistencyError, match="differ"):
        _collapse_compositions(_sweep_values({**same, (2, 1, 0): 3}), W,
                               Partition((2, 1)), 3, False)
    # the multinomial check runs first
    with pytest.raises(ConsistencyError, match="multinomial"):
        _collapse_compositions(_sweep_values({**same, (2, 1, 0): 4}), W,
                               Partition((2, 1)), 3, False)


def test_collapse_refuses_a_key_outside_the_index():
    # A sweep key that is no composition of n into N parts (here 4, the key
    # of (0, 1, 0), whose parts sum to 1, not 3) is a ConsistencyError, not
    # a KeyError, for x and dual and for Hall-Littlewood.
    with pytest.raises(ConsistencyError, match="not a composition"):
        _collapse_compositions({4: 1}, 8, Partition((2, 1)), 3, False)
    with pytest.raises(ConsistencyError, match="not a composition"):
        _collapse_compositions({4: 1}, 8, Partition((2, 1)), 3, True)


@pytest.mark.parametrize("n", range(9))
def test_composition_index_matches_digit_decoding(n):
    # For every N <= 8 the index holds every composition of n into N parts
    # and no other key, and gives each the partition of its digits, decoded
    # one at a time, sorted, and the multinomial n! / prod c_k!.
    def compositions(n, N):
        if not N:
            yield from [()] * (n == 0)
            return
        for c in range(n + 1):
            for rest in compositions(n - c, N - 1):
                yield (c,) + rest

    for N in range(9):
        index, parts = _composition_index(n, N)
        B = n + 1
        comps = set(compositions(n, N))
        assert len(index) == len(comps)
        for key, k in index.items():
            comp = tuple(key // B ** j % B for j in range(N))
            assert comp in comps
            mu, multinomial = parts[k]
            assert mu == Partition(sorted(comp, reverse=True))
            assert multinomial == math.factorial(n) // math.prod(
                map(math.factorial, comp))


def test_hl_sweep_checks_h_lambda_at_one(monkeypatch):
    # H(x; 0, 1) = h_lambda, so the Hall-Littlewood values at t = 1 sum to
    # h_lambda(1^N); one Gaussian binomial with a coefficient raised by 1
    # breaks that, and the sweep refuses it before anything is decoded.
    lam = Partition((2, 1))
    clear_caches()
    try:
        partition_function_coeffs(lam, 3, "hl")
        key = (2, 1)  # [2, 1]_t = 1 + t, on a live move for (2, 1) at N = 3
        assert _cell_terms(_BINOM_CELL_CACHE[key]) \
            == (((0, 0), 1), ((0, 1), 1))
        monkeypatch.setitem(_BINOM_CELL_CACHE, key,
                            _cell((((0, 0), 2), ((0, 1), 1))))
        with pytest.raises(ConsistencyError, match="h_lambda"):
            partition_function_coeffs(lam, 3, "hl")
    finally:
        clear_caches()


@pytest.mark.parametrize("formula", "xz")
def test_sweep_width_holds_with_negative_cell_terms(monkeypatch, formula):
    # The packing width comes from l1 norms, not from Phi being positive:
    # every cached off-diagonal cell gains 100 q^a t^b - 100 q^a t^(b+1) at
    # a new exponent, which keeps its value at q = t = 1 (so the multinomial
    # check holds) and puts coefficients into the sum far beyond the
    # multinomials.  The sweep must match the flat sum with the same cells.
    lam = Partition((3, 1))
    clear_caches()
    try:
        partition_function_coeffs(lam, 3, formula)
        extra = {}
        for key, cell in list(_PHI_EVAL_CACHE.items()):
            if cell and key[2:4] != (0, 0):
                old = _cell_terms(cell)
                q = max(q for (q, _), _ in old) + 1
                t = max(t for (_, t), _ in old) + 1
                terms = (((q, t), 100), ((q, t + 1), -100))
                monkeypatch.setitem(_PHI_EVAL_CACHE, key,
                                    _cell(old + terms))
                extra[key] = ExactPolynomial(("q", "t"), dict(terms))
        assert extra

        exact_cell = _cell_by_substitution

        def mutated_cell(*key):
            return exact_cell(*key) + extra.get(key, ZERO)

        monkeypatch.setitem(globals(), "_cell_by_substitution", mutated_cell)
        expect = _flat_partition_function.__wrapped__(lam, 3, formula)
        assert any(c < -1 for poly in expect.values()
                   for c in poly.terms.values())
        assert partition_function_coeffs(lam, 3, formula) == expect
    finally:
        clear_caches()


def test_diagonal_closed_product_is_built_once_per_nutilde(monkeypatch):
    # The diagonal cell reads nutilde only, so running x and then dual over
    # one shape builds each closed product once, whichever route asks.
    built = []
    packed_rows = phi._packed_rows

    def counted(terms):
        if sys._getframe(1).f_code.co_name == "_at_one_rows":
            built.append(tuple(terms[0][2]))
        return packed_rows(terms)

    monkeypatch.setattr(phi, "_packed_rows", counted)
    clear_caches()
    try:
        for formula in ("x", "z"):
            partition_function_coeffs(Partition((3, 2)), 3, formula)
        diagonal = {nut for _, nut, qexp, texp, _ in _PHI_EVAL_CACHE
                    if qexp == texp == 0}
        assert len(built) == len(set(built)) == len(diagonal) > 1
        clear_caches()
        assert not phi._AT_ONE_CACHE
    finally:
        clear_caches()


def test_sweep_memory_stays_bounded():
    # With the cell caches filled, a sweep holds one record per live move
    # and the partial sums of two columns: (5, 2) by dual at N = 5 peaks
    # near 1.2 MB traced.  A sweep that also keeps each column's moves, l1
    # norms and values at q = t = 1 in lists peaks near 4.9 MB, so the bound
    # sits at about twice the first.
    lam = Partition((5, 2))
    partition_function_coeffs(lam, 5, "z")
    tracemalloc.start()
    try:
        partition_function_coeffs(lam, 5, "z")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20


def test_sweep_refuses_a_negative_cell_exponent():
    # Packing needs every exponent >= 0 once chi is shifted; a cell term
    # moved to t^-1 must raise, not decode as another term.  A cell given
    # by its terms is built by _cell, which refuses it, and a Phi cell
    # refuses an argument with a negative exponent.
    lam = Partition((2, 1))
    clear_caches()
    try:
        partition_function_coeffs(lam, 3, "x")
        key = next(k for k in _PHI_EVAL_CACHE if k[2] == 1)
        ((q, _), c), *rest = _cell_terms(_PHI_EVAL_CACHE[key])
        with pytest.raises(ConsistencyError, match="negative exponent"):
            _cell((((q, -1), c), *rest))
        with pytest.raises(ConsistencyError, match="negative exponent"):
            _phi_eval((1, 3, 4, 5), (2, 3, 5, 5), -1, 0, False)
    finally:
        clear_caches()


def test_phi_cells_are_views_on_the_cached_rows():
    # After an x and a dual sweep every Phi cell holds the very rows object
    # of its phi cache entry (the closed product on the diagonal, Phi of
    # the pair for x and of the rotated pair for dual) and, beside it, ints
    # and a flag only: no cell keeps a per-term container.
    clear_caches()
    try:
        for formula in "xz":
            partition_function_coeffs(Partition((3, 2, 1)), 3, formula)
        assert _PHI_EVAL_CACHE
        for (nu, nut, qexp, texp, dual), cell in _PHI_EVAL_CACHE.items():
            rows = cell[2]
            if qexp == texp == 0:
                assert rows is phi._AT_ONE_CACHE[(nut,)][0]
            else:
                key = (phi._rotation(nu, 1), nut) if dual else (nu, nut)
                assert rows is phi._PHI_CACHE[key][0]
            assert type(rows) is tuple
            assert all(type(value) is int for value in rows)
            assert all(type(field) in (int, bool)
                       for field in cell[:2] + cell[3:])
    finally:
        clear_caches()


def _symmetrized(table, weight, N):
    """sum over compositions c of weight into N parts of table[sort(c)] x^c."""
    out = ZERO
    for comp in itertools.product(range(weight + 1), repeat=N):
        if sum(comp) != weight:
            continue
        key = Partition(tuple(sorted(comp, reverse=True)))
        if key in table:
            xs = ExactPolynomial.monomial(
                {"x%d" % k: e for k, e in enumerate(comp, start=1)})
            out = out + table[key] * xs
    return out


@pytest.mark.parametrize("parts,N", [((2, 1), 3), ((3, 1), 4), ((2, 2), 2)])
def test_column_weights_multiply_to_x_partition_function(parts, N):
    # Column 1 of (3,1) at N = 4 has a negative chi on some families.
    lam = Partition(parts)
    conj = conjugate(lam)
    n = lam.part(1)
    normalizers = []
    for i in range(1, n + 1):
        norm = ONE
        for j in range(i + 1, n + 1):
            w = ExactPolynomial.monomial(
                {"q": j - i, "t": conj.part(i) - conj.part(j)})
            norm = norm * pochhammer(
                w, "t", conj.part(j) - conj.part(j + 1) + 1)
        normalizers.append(norm)
    total = ZERO
    for fam in enumerate_nu_families(lam, N):
        prod = RationalFunction(ONE)
        for i in range(1, n + 1):
            # the diagonal factor sits at argument 1, where it depends on
            # nutilde only; nu := nutilde gives it the tops column_weight
            # checks
            pairs = {j: (fam.column(i + 1, j) if j > i else fam.column(i, j),
                         fam.column(i, j)) for j in range(i, n + 1)}
            prod = prod * column_weight(i, lam, pairs, "x") \
                * normalizers[i - 1]
        total = total + poly_divexact(prod.num, prod.den)
    table = partition_function_coeffs(lam, N, "x")
    assert total == _symmetrized(table, lam.weight(), N)


@pytest.mark.parametrize("parts,N", [((2, 1), 3), ((3, 1), 4), ((2, 2), 3)])
def test_column_weights_multiply_to_hl_partition_function(parts, N):
    lam = Partition(parts)
    total = ZERO
    for flag in enumerate_flags(lam, N):
        prod = ONE
        for i in range(1, lam.part(1) + 1):
            nu = tuple(f.part(i + 1) for f in flag[1:])
            nut = tuple(f.part(i) for f in flag[1:])
            prod = prod * column_weight(i, lam, (nu, nut), "hl").num
        total = total + prod
    table = partition_function_coeffs(lam, N, "hl")
    assert total == _symmetrized(table, lam.weight(), N)


def test_column_weight_rejects_unknown_variant():
    with pytest.raises(ValueError):
        column_weight(1, Partition((1, 1)), {1: ((0, 2), (1, 2))}, "z")
