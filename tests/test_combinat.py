"""Partitions, conjugation, flags, and column-chain families."""

import pytest
from hypothesis import given, settings, strategies as st

from modmacd.combinat import (Partition, SequencePair, conjugate,
                              enumerate_flags, enumerate_nu_families,
                              inversion_number, n_stat, parse_intlist,
                              partitions_of, stats)
from modmacd.errors import MismatchedTops

from reference import multiplicity


def small_partitions():
    return st.lists(st.integers(1, 5), max_size=5).map(
        lambda xs: Partition(tuple(sorted(xs, reverse=True))))


@given(small_partitions())
@settings(max_examples=80, deadline=None)
def test_conjugate_is_an_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert conjugate(lam).weight() == lam.weight()


@given(small_partitions())
@settings(max_examples=80, deadline=None)
def test_conjugate_swaps_length_and_first_part(lam):
    assert conjugate(lam).part(1) == len(lam)
    assert len(conjugate(lam)) == lam.part(1)


@given(small_partitions())
@settings(max_examples=80, deadline=None)
def test_n_stat_matches_definition(lam):
    assert n_stat(lam) == sum((i - 1) * p
                              for i, p in enumerate(lam.parts, start=1))
    # Summing both diagonal statistics over the cells gives the same totals.
    assert n_stat(conjugate(lam)) == sum(p * (p - 1) // 2 for p in lam.parts)


def test_stats_on_known_shape():
    lam = Partition((3, 1))
    # arm/leg style statistics summed over cells of the shape.
    assert n_stat(lam) == 1
    assert n_stat(conjugate(lam)) == 3
    assert stats(lam) == stats(Partition((3, 1)))


def test_multiplicity_counts_equal_parts():
    lam = Partition((3, 2, 2, 1))
    assert multiplicity(lam, 2) == 2
    assert multiplicity(lam, 3) == 1
    assert multiplicity(lam, 5) == 0


def test_inversion_number_counts_ascents_in_pairs():
    assert inversion_number((0, 1)) == 1
    assert inversion_number((1, 0)) == 0
    assert inversion_number((1, 2, 0, 2)) == 3
    assert inversion_number(()) == 0


def test_partition_counting():
    # Number of partitions of n = 1..7.
    expected = [1, 2, 3, 5, 7, 11, 15]
    assert [len(partitions_of(n)) for n in range(1, 8)] == expected
    # Decreasing lexicographic order, starting from the one-row shape.
    ps = partitions_of(4)
    assert ps[0] == Partition((4,))
    assert ps[-1] == Partition((1, 1, 1, 1))
    # A part bound keeps the order and drops the wider shapes.
    assert partitions_of(6, 2) == tuple(p for p in partitions_of(6)
                                        if p.part(1) <= 2)
    assert partitions_of(0, 0) == (Partition(),)
    assert partitions_of(3, 0) == ()


def test_partition_container_protocol():
    lam = Partition((3, 2))
    assert list(lam) == [3, 2]
    assert lam.part(1) == 3 and lam.part(5) == 0
    assert lam.padded(4) == (3, 2, 0, 0)
    assert lam.contains(Partition((2, 1)))
    assert not Partition((2, 1)).contains(lam)


def test_partition_equals_only_its_own_parts_tuple():
    lam = Partition((2, 1))
    assert lam == (2, 1) and hash(lam) == hash((2, 1))
    # A tuple that is not the trimmed parts is a different key, since its
    # hash differs; an increasing tuple compares unequal instead of raising.
    assert lam != (2, 1, 0)
    assert lam != (1, 2)
    assert (1, 2) not in [lam]


def test_sequence_pair_validation():
    sp = SequencePair((1, 3, 4, 5), (2, 3, 5, 5))
    assert sp.N == 4
    assert sp.min_difference() == 0
    with pytest.raises(MismatchedTops):
        SequencePair((1, 2), (2, 3))
    with pytest.raises(ValueError):
        SequencePair((), ())
    with pytest.raises(ValueError):
        SequencePair((2, 1), (1, 1))


def test_enumerate_flags_counts_column_strict_fillings():
    # Flags from the empty shape to lambda' in N steps, fixed step sizes mu,
    # are the semistandard-type objects counted by Kostka numbers at q = 0.
    lam = Partition((2, 1))
    flags = list(enumerate_flags(lam, 3, mu=(1, 1, 1)))
    for flag in flags:
        assert flag[0] == Partition()
        assert flag[-1] == conjugate(lam)
        for a, b in zip(flag, flag[1:]):
            assert b.contains(a)
    assert len(flags) >= 1


def test_enumerate_flags_total_weight_filter():
    lam = Partition((2, 2))
    total = list(enumerate_flags(lam, 2))
    filtered = [f for mu in ((2, 2), (3, 1), (4, 0), (1, 3), (0, 4))
                for f in enumerate_flags(lam, 2, mu=mu)]
    assert len(total) == len(filtered)


def test_nu_family_enumeration_shape_and_tops():
    lam = Partition((2, 1))
    fams = list(enumerate_nu_families(lam, 2))
    assert fams
    conj = conjugate(lam)
    for fam in fams:
        assert fam.n == lam.part(1)
        for j in range(1, fam.n + 1):
            for i in range(1, j + 1):
                chain = fam.column(i, j)
                assert len(chain) == 2
                assert all(a <= b for a, b in zip(chain, chain[1:]))
                assert chain[-1] == conj.part(j) - conj.part(j + 1)
            assert fam.column(j + 1, j) == (0, 0)
    # Dual enumeration swaps the roles of lambda and lambda'.
    dfams = list(enumerate_nu_families(lam, 2, dual=True))
    assert all(f.n == len(lam) for f in dfams)


def test_nu_family_mu_collects_increments():
    lam = Partition((1, 1))
    for fam in enumerate_nu_families(lam, 2):
        assert sum(fam.mu()) == lam.weight()


def test_parse_intlist():
    assert parse_intlist("1,3,4,5") == (1, 3, 4, 5)
    assert parse_intlist(" 2 , 3 ") == (2, 3)
    assert parse_intlist("0") == (0,)
    assert parse_intlist("") == ()
    with pytest.raises(ValueError):
        parse_intlist("1,-2")
    with pytest.raises(ValueError):
        parse_intlist("1,a")
