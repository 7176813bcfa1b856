import pytest

from koszul.combinatorics import (
    RingParams,
    canonicalize,
    compositions,
    enumerate_monomials,
    monomial_count,
    monomial_table,
    orbit_size,
    partitions_into,
    rank_monomial,
    unrank_monomial,
)


def test_ring_params_counts():
    assert RingParams(3, 3).N == 10
    assert RingParams(7, 2).N == 28
    assert RingParams(1, 5).N == 1
    with pytest.raises(ValueError):
        RingParams(0, 2)
    with pytest.raises(ValueError):
        RingParams(2, 0)


def test_enumerate_small_by_hand():
    assert enumerate_monomials(RingParams(2, 2), 2) == [(2, 0), (1, 1), (0, 2)]
    assert len(enumerate_monomials(RingParams(3, 3), 3)) == 10
    assert len(enumerate_monomials(RingParams(7, 2), 2)) == 28


def test_enumerate_order_is_lex_decreasing():
    for n in (2, 3, 4):
        for d in (0, 1, 3, 5):
            seq = enumerate_monomials(RingParams(n, 1), d)
            assert seq == sorted(seq, reverse=True)
            assert len(seq) == monomial_count(n, d)


def test_compositions_match_enumeration():
    assert list(compositions(2, 1)) == [(1, 0), (0, 1)]
    assert list(compositions(3, 0)) == [(0, 0, 0)]
    assert len(list(compositions(3, 8))) == 45
    for n, d in [(2, 4), (3, 5), (4, 3)]:
        assert list(compositions(n, d)) == enumerate_monomials(RingParams(n, 1), d)


def test_rank_examples():
    p2 = RingParams(2, 2)
    assert rank_monomial(p2, (2, 0)) == 0
    assert rank_monomial(p2, (1, 1)) == 1
    assert rank_monomial(p2, (0, 2)) == 2
    p3 = RingParams(3, 3)
    assert unrank_monomial(p3, 0, 3) == (3, 0, 0)  # pure power of the first variable


def test_rank_unrank_roundtrip_exhaustive():
    for n in range(1, 5):
        for d in range(0, 7):
            params = RingParams(n, 1)
            monomials, rank = monomial_table(n, d)
            assert monomials == tuple(enumerate_monomials(params, d))
            for r, m in enumerate(monomials):
                assert rank_monomial(params, m) == r == rank[m]
                assert unrank_monomial(params, r, d) == m


def test_unrank_out_of_range():
    with pytest.raises(ValueError):
        unrank_monomial(RingParams(3, 3), 10, 3)
    with pytest.raises(ValueError):
        unrank_monomial(RingParams(3, 3), -1, 3)


def test_canonicalize_examples():
    orb = canonicalize((0, 2, 1))
    assert orb.representative == (2, 1, 0)
    assert orb.size == 6
    assert canonicalize((1, 1, 1)).size == 1
    assert canonicalize((2, 2, 0, 0)).size == 6  # 4!/(2!*2!)


def test_orbit_sizes_cover_all_compositions():
    for n in range(1, 8):
        for d in range(0, 13):
            total = sum(orbit_size(rep) for rep in partitions_into(d, n))
            assert total == monomial_count(n, d)


def test_partitions_are_canonical_and_unique():
    for n in (2, 3, 5):
        for d in (0, 4, 9):
            reps = list(partitions_into(d, n))
            assert len(set(reps)) == len(reps)
            for rep in reps:
                assert rep == tuple(sorted(rep, reverse=True))
                assert sum(rep) == d
