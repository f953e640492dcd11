"""The polynomial Phi: series, finite-sum, and positive-form routes."""

import itertools
from collections import Counter
from math import prod
from operator import sub

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from modmacd import clear_caches, packed, phi
from modmacd.combinat import SequencePair
from modmacd.errors import (IndexOutOfRange, MismatchedTops,
                            NegativeDifference, NegativeInput,
                            TruncationResidual)
from modmacd.exactalg import ExactPolynomial, P, render, sym
from modmacd.phi import (g_poly, phi_at_one, phi_finite, phi_normalized,
                         phi_positive, phi_prime, phi_series, rotate)
from modmacd.qseries import gauss_binomial

from reference import (factor_product, phi_by_argmin_rotation,
                       phi_prime_series, unpack_rows)

T = sym("t")
Z = sym("z")


def nondecreasing(bound, length):
    for tup in itertools.product(range(bound + 1), repeat=length):
        if all(tup[i] <= tup[i + 1] for i in range(length - 1)):
            yield tup


def dominated_pairs(bound, length):
    """All pairs nu <= nutilde entrywise with equal tops."""
    for nut in nondecreasing(bound, length):
        for nu in nondecreasing(bound, length - 1):
            full = nu + (nut[-1],)
            if all(a <= b for a, b in zip(full, nut)) \
                    and all(full[i] <= full[i + 1] for i in range(length - 1)):
                yield SequencePair(full, nut)


def test_worked_example_positive_form():
    sp = SequencePair((1, 3, 4, 5), (2, 3, 5, 5))
    got = phi_positive(sp)
    one = P(1)
    expected = T ** 8 * Z ** 3 \
        + P(2) * (one + T) * (one + T + T ** 2) * T ** 4 * Z ** 2 \
        + (one + T + T ** 2) * (one + P(3) * T + T ** 2) * T * Z \
        + (one + T)
    assert got == expected
    assert phi_series(sp) == expected
    assert phi_finite(sp) == expected


def test_three_routes_agree_and_are_positive():
    # N = 5 (611 pairs) lies beyond the golden file, which stops at N = 4.
    for length in (1, 2, 3, 5):
        for sp in dominated_pairs(3, length):
            a = phi_series(sp)
            assert a == phi_finite(sp)
            assert a == phi_positive(sp)
            assert a.is_nonnegative()


def test_constant_term_and_degree():
    # Phi(0) = prod_k [nutilde^{k+1} - nu^k choose nutilde^k - nu^k] and the
    # z-degree is bounded by nu_{N-1}.
    for sp in dominated_pairs(3, 3):
        poly = phi_positive(sp)
        assert poly.degree("z") <= sp.nu[-2]
        const = poly.coefficient({"z": 0})
        expect = P(1)
        for k in range(sp.N - 1):
            expect = expect * gauss_binomial(
                sp.nutilde[k + 1] - sp.nu[k], sp.nutilde[k] - sp.nu[k])
        assert const == expect


def test_value_at_one_factorizes():
    # Phi(1) = prod_k [nutilde^{k+1} choose nutilde^k], independent of nu.
    for sp in dominated_pairs(3, 3):
        expect = P(1)
        for k in range(sp.N - 1):
            expect = expect * gauss_binomial(sp.nutilde[k + 1],
                                             sp.nutilde[k])
        assert phi_at_one(sp) == expect
        assert phi_positive(sp).substitute({"z": P(1)}) == expect


def test_rotation_recurrence():
    # Phi_{nu|nutilde} = z^{shift} Phi_{rotated} for every rotation offset.
    # phi_normalized reads one cached representative per rotation orbit, so
    # each dominated rotation is also held against phi_series, which reads
    # no cache.
    for sp in dominated_pairs(3, 3):
        for k in range(1, sp.N + 1):
            rotated, shift = rotate(sp, k)
            lhs = ExactPolynomial.monomial({"z": shift}) \
                * phi_normalized(rotated)
            assert lhs == phi_positive(sp)
            if all(a <= b for a, b in zip(rotated.nu, rotated.nutilde)):
                assert ExactPolynomial.monomial({"z": shift}) \
                    * phi_series(rotated) == phi_normalized(sp)


def test_normalized_handles_negative_differences():
    # Rotation reduces any valid pair to one with nu <= nutilde.
    sp = SequencePair((2, 2, 2), (0, 1, 2))
    poly = phi_normalized(sp)
    # Tops force the polynomial route to terminate; spot-check at z = 1.
    assert poly.substitute({"z": P(1)}) == phi_at_one(sp)


def test_phi_prime_routes_agree():
    for sp in dominated_pairs(3, 2):
        assert phi_prime(sp) == phi_prime_series(sp)
    sp = SequencePair((1, 3, 4, 5), (2, 3, 5, 5))
    assert phi_prime(sp) == phi_prime_series(sp)


def test_phi_prime_relation_to_phi():
    # Phi'_{nu|nutilde}(z) = z^{nu_1} Phi_{r(nu)|nutilde}(z) where r shifts
    # nu cyclically (keeping nutilde); verified against the independent
    # truncated-series route.
    for sp in dominated_pairs(3, 3):
        shifted = tuple(v - sp.nu[0] for v in sp.nu[1:]) + (sp.nu[-1],)
        rhs = ExactPolynomial.monomial({"z": sp.nu[0]}) \
            * phi_normalized(SequencePair(shifted, sp.nutilde))
        assert phi_prime_series(sp) == rhs


def test_g_poly_forms_agree_and_positive():
    for m in range(3):
        for a in itertools.product(range(3), repeat=2):
            for b in itertools.product(range(3), repeat=2):
                s = g_poly(m, a, b, form="sum")
                p = g_poly(m, a, b, form="positive")
                assert s == p
                assert p.is_nonnegative()


def test_g_poly_rejects_bad_input():
    with pytest.raises(NegativeInput):
        g_poly(-1, (0,), (0,))
    with pytest.raises(NegativeInput):
        g_poly(1, (0, 1), (0,))
    with pytest.raises(ValueError):
        g_poly(1, (0,), (0,), form="bogus")


def test_mismatched_tops_rejected():
    with pytest.raises(MismatchedTops):
        SequencePair((1, 2), (1, 3))


@pytest.mark.parametrize("k", [0, 4])
def test_rotation_index_outside_1_to_N_rejected(k):
    with pytest.raises(IndexOutOfRange) as info:
        rotate(SequencePair((0, 1, 3), (1, 2, 3)), k)
    assert type(info.value) is IndexOutOfRange


def test_single_entry_pair():
    sp = SequencePair((3,), (3,))
    assert phi_positive(sp).is_one()
    assert phi_series(sp).is_one()


def test_truncation_check_fires_below_the_true_degree(monkeypatch):
    # The worked example has z-degree 3.  With the degree bound cut to 2 the
    # series route must see the nonzero z^3 coefficient and refuse.
    sp = SequencePair((1, 3, 4, 5), (2, 3, 5, 5))
    assert phi_positive(sp).degree("z") == 3
    monkeypatch.setattr(phi, "_degree_bound", lambda pair: 3)
    assert phi_series(sp) == phi_positive(sp)
    monkeypatch.setattr(phi, "_degree_bound", lambda pair: 2)
    with pytest.raises(TruncationResidual):
        phi_series(sp)


# -- the packed kernel at t = 2^W against ExactPolynomial ---------------------

@given(st.integers(-2, 12), st.integers(-2, 12), st.integers(1, 40))
@settings(max_examples=80, deadline=None)
def test_gauss_at_is_gauss_binomial_at_a_power_of_two(a, b, W):
    expect = gauss_binomial(a, b).substitute({"t": P(2 ** W)})
    assert P(packed._gauss_at(a, b, W)) == expect
    # the kernels subscript the width's table, which _gauss_at reads
    assert P(packed._gauss_table(W)[a, b]) == expect


def _coefficient_list(poly):
    """The t-coefficients of a polynomial in t, lowest first; [] for 0."""
    if poly.is_zero():
        return []
    out = [0] * (poly.degree("t") + 1)
    for exp, c in poly.terms.items():
        out[exp[0] if poly.vars else 0] = c
    return out


def test_binom_list_is_gauss_binomial():
    # The Pascal recurrence on integer lists against the ExactPolynomial
    # one, zero binomials (b < 0, b > a) included.
    clear_caches()
    for a in range(31):
        for b in range(-2, a + 3):
            assert packed._binom_list(a, b) \
                == _coefficient_list(gauss_binomial(a, b)), (a, b)


@pytest.mark.parametrize("widths", [(3, 9), (9, 3)])
def test_gauss_at_keeps_each_width_apart(widths):
    # _gauss_at reads a table kept per width; one table keyed by (a, b)
    # alone would hand the value at the first width to the second.
    clear_caches()
    for W in widths:
        expect = gauss_binomial(6, 3).substitute({"t": P(2 ** W)})
        assert P(packed._gauss_at(6, 3, W)) == expect
        assert P(packed._gauss_table(W)[6, 3]) == expect
    first, second = (packed._gauss_table(W) for W in widths)
    assert first is not second and first[6, 3] != second[6, 3]


@given(st.lists(st.tuples(st.integers(-3, 12), st.integers(-3, 12)),
                min_size=1, max_size=5), st.integers(0, 15))
@example([(2, 5)], 7)
@example([(-3, -3), (4, -2)], 0)
@example([(1, -3), (12, 12), (0, 0)], 15)
@settings(max_examples=200, deadline=None)
def test_last_series_row_has_the_largest_norm(pairs, D):
    # phi_series takes W from the row s = D alone: C(a + s, b + s) is
    # nondecreasing in s, zero binomials (b > a, b + s < 0) included.
    def norm(s):
        return prod(packed._comb(a + s, b + s) for a, b in pairs)

    assert max(map(norm, range(D + 1))) == norm(D)


signed_rows = st.lists(st.lists(st.integers(-2 ** 80, 2 ** 80), max_size=8),
                       max_size=5)


def _packed_at_minimal_width(coeffs):
    """(rows, W): rows[d] = sum_i coeffs[d][i] 2^(W i) at the least W that
    decodes every coefficient."""
    W = max((abs(c) for row in coeffs for c in row), default=0) \
        .bit_length() + 1
    return [sum(c << W * i for i, c in enumerate(row)) for row in coeffs], W


@given(signed_rows)
@settings(max_examples=80, deadline=None)
def test_unpack_recovers_signed_rows_at_minimal_width(coeffs):
    rows, W = _packed_at_minimal_width(coeffs)
    expect = ExactPolynomial(("z", "t"), {
        (d, i): c for d, row in enumerate(coeffs) for i, c in enumerate(row)})
    assert phi._decode(rows, W) == expect


@pytest.mark.parametrize("name", ["z", "v"])
@given(signed_rows)
@settings(max_examples=80, deadline=None)
def test_decode_is_unpack_then_poly(name, coeffs):
    # _decode reads the digits with packed._digits; the reference unpacks
    # them one divmod at a time and builds the polynomial from the terms.
    rows, W = _packed_at_minimal_width(coeffs)
    assert phi._decode(rows, W, name) == unpack_rows(rows, W, name)


@given(st.lists(st.tuples(
    st.integers(0, 4), st.integers(0, 6),
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=4),
    st.lists(st.integers(0, 6), max_size=5)), max_size=4))
@example([])
@example([(0, 0, [(4, 2)], []), (2, 3, [(5, 2), (3, 1)], [0, 2]),
          (1, 5, [], [1, 1, 4]), (3, 1, [(2, 3)], [0])])
@settings(max_examples=60, deadline=None)
def test_packed_product_matches_exact_product(terms):
    # Each term z^d t^e prod [a, b]_t prod (1 - z t^x); those with a zero
    # binomial are skipped by the kernel and vanish in the exact sum.  The
    # carried l1 is the summed term norm, which chose W and bounds the sum.
    expect = P(0)
    l1 = 0
    for d, e, pairs, exponents in terms:
        term = Z ** d * T ** e
        for a, b in pairs:
            term = term * gauss_binomial(a, b)
        for x in exponents:
            term = term * (P(1) - Z * T ** x)
        expect = expect + term
        l1 += sum(map(abs, term.terms.values()))
    rows, W, carried = phi._packed_rows(terms)
    assert phi._decode(rows, W) == expect
    assert carried == l1 and W == packed._width(l1)


@pytest.mark.parametrize("wider", [3, -3])
@given(st.lists(st.integers(0, 6), min_size=1, max_size=5))
@example([0])
@example([0, 2, 2, 5])
@settings(max_examples=40, deadline=None)
def test_factor_rows_are_the_exact_factor_product(wider, exponents):
    # The cached rows of prod (1 - z t^x), from cold caches, at the least
    # width that decodes them and at one 3 bits wider, in either order: a
    # cache keyed by the exponents alone would hand the first width's rows
    # to the second.
    clear_caches()
    least = packed._width(1 << len(exponents))
    expect = factor_product(Counter((1, x) for x in exponents))
    for W in (least + max(wider, 0), least + max(-wider, 0)):
        rows = phi._factor_rows(tuple(exponents), W)
        assert list(rows) == packed._rows_times(
            [1], zip(itertools.repeat(1), exponents), W)
        assert unpack_rows(rows, W, "q") == expect


def test_series_and_positive_routes_share_no_row_kernel(monkeypatch):
    # The routes agree as evidence only while each keeps its own
    # arithmetic: phi_series reaches neither the term-sum kernel nor the
    # factor rows, and the positive terms carry no (1 - z t^x) factors.
    def forbidden(*args):
        raise AssertionError("a shared row kernel was reached")

    pairs = [SequencePair((1, 3, 4, 5), (2, 3, 5, 5)),
             SequencePair((0, 0, 2, 2, 4), (1, 2, 3, 4, 4)),
             SequencePair((2, 5), (3, 5))]
    expect = [phi_finite(sp) for sp in pairs]
    clear_caches()
    for name in ("_rows_times", "_factor_rows"):
        monkeypatch.setattr(phi, name, forbidden)
    assert [phi_positive(sp) for sp in pairs] == expect
    monkeypatch.setattr(phi, "_packed_rows", forbidden)
    assert [phi_series(sp) for sp in pairs] == expect


@st.composite
def sequence_pairs(draw):
    """A valid pair with N in 1..5 and entries <= 4.  nu and nutilde are
    drawn independently, so most pairs with N > 1 need a rotation."""
    N = draw(st.integers(1, 5))
    top = draw(st.integers(0, 4))
    nu, nut = (tuple(sorted(draw(st.lists(st.integers(0, top), min_size=N - 1,
                                          max_size=N - 1)))) + (top,)
               for _ in range(2))
    return SequencePair(nu, nut)


@given(sequence_pairs())
@example(SequencePair((2, 2, 2), (0, 1, 2)))
@example(SequencePair((1, 3, 4, 5), (2, 3, 5, 5)))
@example(SequencePair((0, 3, 3, 4, 4), (1, 1, 2, 2, 4)))
@settings(max_examples=80, deadline=None)
def test_term_cache_matches_the_independent_routes(sp):
    # phi_normalized and phi_prime read the packed rows of the one Phi
    # cache (rotation and Phi' as z-shifts) and phi_at_one the closed
    # product off the same kernel; the series and finite routes, the
    # ExactPolynomial series for Phi' and the ExactPolynomial product of
    # Gaussian binomials do not.
    assert phi_normalized(sp) == phi_finite(sp) == phi_series(sp)
    assert phi_prime(sp) == phi_prime_series(sp)
    expect = P(1)
    for k in range(sp.N - 1):
        expect = expect * gauss_binomial(sp.nutilde[k + 1], sp.nutilde[k])
    assert phi_at_one(sp) == expect


@given(sequence_pairs())
@example(SequencePair((2, 2, 2), (0, 1, 2)))
# two argmins of nutilde - nu, the representative at the second, shift >= 1
@example(SequencePair((1, 2, 2), (0, 1, 2)))
@example(SequencePair((2, 3, 3), (0, 1, 3)))
@example(SequencePair((1, 2, 2, 2), (0, 1, 1, 2)))
@settings(max_examples=80, deadline=None)
def test_orbit_rows_match_the_argmin_rotation(sp):
    # _phi_rows reads one positive form per rotation orbit, at the orbit's
    # least dominated rotation, and z-shifts it.  Its rows, read by the
    # reference digit reader, must equal the positive form of the rotation
    # at the first argmin of nutilde - nu, z-shifted, and every rotation of
    # the pair must read the one orbit entry.
    clear_caches()
    assert unpack_rows(*phi._phi_rows(sp.nu, sp.nutilde)[:2]) \
        == phi_by_argmin_rotation(sp)
    for k in range(1, sp.N + 1):
        rotated, _ = rotate(sp, k)
        phi._phi_rows(rotated.nu, rotated.nutilde)
    assert len(phi._POSITIVE_ROWS_CACHE) == 1
    clear_caches()


def test_orbit_rows_refuse_a_negative_shift_that_drops_a_nonzero_row():
    # Equal tops keep the shift >= 0; unequal ones (which SequencePair
    # refuses) give (0, 1) | (1, 2) the shift -1, whose dropped row is not 0.
    with pytest.raises(TruncationResidual, match="negative z powers"):
        phi._phi_rows((0, 1), (1, 2))


# -- the positive form's chain enumeration against its generator reference ----

def _ref_positive_terms(nu, nut):
    """The positive form's terms by a chain of generators, one column per
    level, every next column tried and kept when top >= bot (the former
    phi._positive_terms)."""
    if min(map(sub, nut, nu)) < 0:
        raise NegativeDifference(
            "nutilde < nu somewhere; rotate first: %r | %r" % (nu, nut))
    N = len(nu)
    nu, nut = (0,) + nu, (0,) + nut
    sigma = [nu[j] - nu[j - 1] for j in range(1, N)]

    def terms(k, head, zdeg, eta, pairs):
        # head = (S_1^k, ..., S_{k-1}^k); column k adds S_k^k to it.
        if k == N:
            yield zdeg, eta, pairs, ()
            return
        last = k + 1 == N
        for new in range(sigma[k - 1] + 1):
            col = head + (new,)
            bot = nut[k] - sum(col)
            if bot < 0:
                break
            rest = [nut[k] - sum(col[i:]) for i in range(k)]
            for nxt in itertools.product(*[range(s if last else c, s + 1)
                                           for c, s in zip(col, sigma)]):
                top = nut[k + 1] - sum(nxt)
                if top >= bot:
                    yield from terms(
                        k + 1, nxt, zdeg + sigma[k - 1] - new,
                        eta + sum((b - a) * r
                                  for b, a, r in zip(nxt, col, rest)),
                        pairs + [(top, bot)] + list(zip(nxt, col)))

    return terms(1, (), 0, 0, [])


def _term_counter(terms):
    return Counter((d, e, tuple(pairs)) for d, e, pairs, _ in terms)


@st.composite
def dominated_sequence_pairs(draw):
    """(nu, nutilde) with nu <= nutilde entrywise, N in 1..6, entries <= 6."""
    N = draw(st.integers(1, 6))
    top = draw(st.integers(0, 6))
    nu, nut = (sorted(draw(st.lists(st.integers(0, top), min_size=N - 1,
                                    max_size=N - 1)))
               for _ in range(2))
    return (tuple(nu) + (top,),
            tuple(map(max, nu, nut)) + (top,))


@given(dominated_sequence_pairs())
@example(((0,), (0,)))
@example(((4,), (4,)))
@example(((2, 5), (3, 5)))
@example(((0, 6), (6, 6)))
@example(((1, 1, 3, 3), (1, 2, 3, 3)))  # sigma_2 = 0
@example(((0, 0, 2, 2, 4), (1, 2, 3, 4, 4)))  # sigma_1 = sigma_2 = 0
@example(((1, 3, 4, 5), (2, 3, 5, 5)))
@example(((1, 2, 3, 4, 5, 6), (2, 3, 4, 5, 6, 6)))
@settings(max_examples=80, deadline=None)
def test_positive_terms_match_the_generator_reference(pair):
    # _packed_rows sums the terms and takes W from their summed l1 norms,
    # so the whole multiset must agree, not only the polynomial.
    nu, nut = pair
    assert _term_counter(phi._positive_terms(nu, nut)) \
        == _term_counter(_ref_positive_terms(nu, nut))


@given(dominated_sequence_pairs(), st.integers(0, 5), st.integers(0, 4))
@example(((1, 3, 4, 5), (2, 3, 5, 5)), 2, 0)
@settings(max_examples=60, deadline=None)
def test_series_truncation_check_follows_the_degree_bound(pair, below, above):
    # Below the true z-degree d the series route must see a nonzero
    # coefficient in its window and refuse; at or above it, the window is
    # clean and the decoded rows are Phi.
    sp = SequencePair(*pair)
    expect = phi_positive(sp)
    d = expect.degree("z")
    assume(d >= 1)
    low, high = below % d, d + above
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phi, "_degree_bound", lambda _: low)
        with pytest.raises(TruncationResidual):
            phi_series(sp)
        mp.setattr(phi, "_degree_bound", lambda _: high)
        assert phi_series(sp) == expect


def test_positive_terms_reject_an_undominated_pair():
    with pytest.raises(NegativeDifference):
        phi._positive_terms((1, 2), (0, 2))
