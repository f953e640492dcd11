"""The polynomial Phi: series, finite-sum, and positive-form routes."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from modmacd import phi
from modmacd.combinat import SequencePair
from modmacd.errors import MismatchedTops, NegativeInput, TruncationResidual
from modmacd.exactalg import ExactPolynomial, P, render, sym
from modmacd.phi import (g_poly, phi_at_one, phi_finite, phi_normalized,
                         phi_positive, phi_prime, phi_prime_series,
                         phi_series, rotate)
from modmacd.qseries import gauss_binomial

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
    for sp in dominated_pairs(3, 3):
        for k in range(1, sp.N + 1):
            rotated, shift = rotate(sp, k)
            lhs = ExactPolynomial.monomial({"z": shift}) \
                * phi_normalized(rotated)
            assert lhs == phi_positive(sp)


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
    assert P(phi._gauss_at(a, b, W)) == expect


@given(st.lists(st.lists(st.integers(-2 ** 80, 2 ** 80), max_size=8),
                max_size=5))
@settings(max_examples=80, deadline=None)
def test_unpack_recovers_signed_rows_at_minimal_width(coeffs):
    W = max((abs(c) for row in coeffs for c in row), default=0) \
        .bit_length() + 1
    rows = [sum(c << W * i for i, c in enumerate(row)) for row in coeffs]
    expect = ExactPolynomial(("z", "t"), {
        (d, i): c for d, row in enumerate(coeffs) for i, c in enumerate(row)})
    assert phi._unpack(rows, W, "z") == expect


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
    # binomial are skipped by the kernel and vanish in the exact sum.
    expect = P(0)
    for d, e, pairs, exponents in terms:
        term = Z ** d * T ** e
        for a, b in pairs:
            term = term * gauss_binomial(a, b)
        for x in exponents:
            term = term * (P(1) - Z * T ** x)
        expect = expect + term
    assert phi._packed_sum(terms, "z") == expect
