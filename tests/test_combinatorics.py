import pytest

from koszul.combinatorics import (
    RingParams,
    compositions,
    monomial_count,
    monomial_table,
    orbit_size,
    orbits_into,
    partitions_into,
)


def _rank_by_counting(m):
    """Rank of m among the monomials of its degree, counted combinatorially:
    the lex-decreasing order puts first every monomial with a larger head."""
    n, rem, r = len(m), sum(m), 0
    for pos in range(n - 1):
        for head in range(rem, m[pos], -1):
            r += monomial_count(n - pos - 1, rem - head)
        rem -= m[pos]
    return r


def test_ring_params_counts():
    assert RingParams(3, 3).N == 10
    assert RingParams(7, 2).N == 28
    assert RingParams(1, 5).N == 1
    with pytest.raises(ValueError):
        RingParams(0, 2)
    with pytest.raises(ValueError):
        RingParams(2, 0)


def test_enumerate_small_by_hand():
    assert monomial_table(2, 2)[0] == ((2, 0), (1, 1), (0, 2))
    assert len(monomial_table(3, 3)[0]) == 10
    assert len(monomial_table(7, 2)[0]) == 28


def test_enumerate_order_is_lex_decreasing():
    for n in (2, 3, 4):
        for d in (0, 1, 3, 5):
            seq = monomial_table(n, d)[0]
            assert list(seq) == sorted(seq, reverse=True)
            assert len(seq) == monomial_count(n, d)


def test_compositions_match_enumeration():
    assert list(compositions(2, 1)) == [(1, 0), (0, 1)]
    assert list(compositions(3, 0)) == [(0, 0, 0)]
    assert len(list(compositions(3, 8))) == 45
    for n, d in [(2, 4), (3, 5), (4, 3)]:
        assert tuple(compositions(n, d)) == monomial_table(n, d)[0]


def test_rank_examples():
    rank = monomial_table(2, 2)[1]
    assert rank[(2, 0)] == 0
    assert rank[(1, 1)] == 1
    assert rank[(0, 2)] == 2
    assert monomial_table(3, 3)[0][0] == (3, 0, 0)  # pure power of the first variable


def test_rank_unrank_roundtrip_exhaustive():
    for n in range(1, 5):
        for d in range(0, 7):
            monomials, rank = monomial_table(n, d)
            assert len(monomials) == len(rank) == monomial_count(n, d)
            for r, m in enumerate(monomials):
                assert _rank_by_counting(m) == r == rank[m]


def test_unrank_out_of_range():
    monomials, rank = monomial_table(3, 3)
    assert sorted(rank.values()) == list(range(10))  # so -1 and 10 are not ranks
    with pytest.raises(IndexError):
        monomials[10]


def test_orbit_size_examples():
    assert orbit_size((0, 2, 1)) == 6
    assert orbit_size((1, 1, 1)) == 1
    assert orbit_size((2, 2, 0, 0)) == 6  # 4!/(2!*2!)


def test_orbit_sizes_cover_all_compositions():
    for n in range(1, 8):
        for d in range(0, 13):
            total = sum(orbit_size(rep) for rep in partitions_into(d, n))
            assert total == monomial_count(n, d)


def test_orbit_walk_sizes_each_representative():
    # one walk gives what partitions_into and orbit_size give one rep at a time
    for n in range(1, 8):
        for d in range(0, 16):
            assert list(orbits_into(d, n)) == [(rep, orbit_size(rep)) for rep in partitions_into(d, n)]


def test_partitions_are_canonical_and_unique():
    for n in (2, 3, 5):
        for d in (0, 4, 9):
            reps = list(partitions_into(d, n))
            assert len(set(reps)) == len(reps)
            for rep in reps:
                assert rep == tuple(sorted(rep, reverse=True))
                assert sum(rep) == d


def test_sorted_compositions_are_the_orbit_representatives():
    # orbit reduction reads one strand per sorted multidegree and weights it
    # by orbit_size, so the representatives must cover each composition once
    for n in range(1, 6):
        for d in range(0, 13):
            reps = list(partitions_into(d, n))
            hits = dict.fromkeys(reps, 0)
            for alpha in compositions(n, d):
                rep = tuple(sorted(alpha, reverse=True))
                assert rep in hits, (alpha, rep)
                hits[rep] += 1
            assert all(hits[rep] == orbit_size(rep) for rep in reps)
            assert sum(orbit_size(rep) for rep in reps) == monomial_count(n, d)
