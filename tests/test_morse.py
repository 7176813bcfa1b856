"""Differential tests of the Morse reduction of a strand (complex.Strand)
against the raw differential blocks it replaces."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from koszul import exactla
from koszul.combinatorics import RingParams, partitions_into
from koszul.complex import Strand, _check_composite_zero, _Flow, differential_block, face_levels
from koszul.exactla import SparseIntMatrix, elementary_divisors, rank_fraction_free, rank_mod_p

PRIMES = (2, 3, 32003)

# Every orbit representative is checked in every degree below the first
# degree of its ring that has a raw block above this many cells: up to
# degree N*c when c = 1, n <= 2 or (n, c) = (3, 2); up to 15 at (3, 3), 11
# at (4, 2) and 10 at (4, 3).
CELL_LIMIT = 12_000


def face_counts(params, alpha) -> list[int]:
    return [len(level) for level in face_levels(params, alpha)]


def raw(params, t, alpha) -> SparseIntMatrix:
    blk = differential_block(params, t, alpha)
    return SparseIntMatrix(blk.nrows, blk.ncols, blk.entries)


def product(a: SparseIntMatrix, b: SparseIntMatrix) -> list[list[int]]:
    A, B = a.to_dense(), b.to_dense()
    return [
        [sum(A[i][k] * B[k][j] for k in range(a.ncols)) for j in range(b.ncols)]
        for i in range(a.nrows)
    ]


def strands_within_limit():
    for n in range(1, 5):
        for c in range(1, 4):
            params = RingParams(n, c)
            for d in range(params.N * c + 1):
                reps = list(partitions_into(d, n))
                counts = [face_counts(params, rep) for rep in reps]
                if any(f[t] * f[t - 1] > CELL_LIMIT for f in counts for t in range(1, len(f))):
                    break
                for rep in reps:
                    yield params, rep


CASES = list(strands_within_limit())


def test_case_set_spans_every_small_ring():
    rings = {(p.n, p.c) for p, _ in CASES}
    assert rings == {(n, c) for n in range(1, 5) for c in range(1, 4)}
    reach = {}
    for p, rep in CASES:
        reach[p.n, p.c] = max(reach.get((p.n, p.c), 0), sum(rep))
    assert reach == {
        (n, c): {(3, 3): 15, (4, 2): 11, (4, 3): 10}.get((n, c), RingParams(n, c).N * c)
        for n in range(1, 5)
        for c in range(1, 4)
    }


@pytest.mark.parametrize("n,c", [(n, c) for n in range(1, 5) for c in range(1, 4)])
def test_reduction_matches_raw_blocks(n, c):
    checked = 0
    for params, rep in CASES:
        if (params.n, params.c) != (n, c):
            continue
        s = Strand(params, rep)
        for t in range(1, params.N + 1):
            full = raw(params, t, rep)
            # every raw basis element is critical or in exactly one pair
            assert full.nrows == s.crit[t - 1] + s.pairs[t - 1] + s.pairs[t], (rep, t)
            assert full.ncols == s.crit[t] + s.pairs[t] + s.pairs[t + 1], (rep, t)
            if full.ncols == 0:
                continue
            m = s.morse(t)
            for p in PRIMES:
                assert s.pairs[t] + rank_mod_p(m, p) == rank_mod_p(full, p), (rep, t, p)
            assert s.pairs[t] + rank_fraction_free(m) == rank_fraction_free(full), (rep, t)
            assert elementary_divisors(full) == sorted(
                [1] * s.pairs[t] + elementary_divisors(m)
            ), (rep, t)
            if t >= 2 and m.ncols and s.morse(t - 1).nrows:
                assert not any(any(row) for row in product(s.morse(t - 1), m)), (rep, t)
            checked += 1
    assert checked > 0


def test_matching_complex_of_k7_pins_the_char3_jump():
    # at (1,...,1) with n=7, c=2 the faces are the matchings of K_7
    s = Strand(RingParams(7, 2), (1,) * 7)
    m = s.morse(3)
    assert (m.nrows, m.ncols) == (7, 27)
    assert rank_fraction_free(m) == 7
    assert rank_mod_p(m, 3) == 6
    # H_2 = crit_2 - rank M_2 - rank M_3: 0 over Q, 1 over F_3
    assert s.crit[2] - rank_fraction_free(s.morse(2)) - rank_fraction_free(m) == 0
    assert s.crit[2] - rank_mod_p(s.morse(2), 3) - rank_mod_p(m, 3) == 1
    assert 3 in elementary_divisors(m)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reduction_property(data):
    n = data.draw(st.integers(2, 5), label="n")
    c = data.draw(st.integers(1, 3), label="c")
    alpha = data.draw(
        st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(lambda a: sum(a) <= 12),
        label="alpha",
    )
    params, alpha = RingParams(n, c), tuple(alpha)
    counts = face_counts(params, alpha)
    assume(len(counts) > 1)
    t = data.draw(st.integers(1, len(counts) - 1), label="t")
    assume(counts[t] * counts[t - 1] <= 40_000)
    p = data.draw(st.sampled_from(PRIMES), label="p")
    s = Strand(params, alpha)
    assert counts == [s.crit[u] + s.pairs[u] + s.pairs[u + 1] for u in range(len(counts))]
    assert s.pairs[t] + rank_mod_p(s.morse(t), p) == rank_mod_p(raw(params, t, alpha), p)


def test_strand_of_a_permuted_multidegree_has_the_same_counts():
    params = RingParams(4, 2)
    a = Strand(params, (2, 1, 1, 0))
    b = Strand(params, (0, 1, 2, 1))
    assert a.pairs == b.pairs and a.crit == b.crit


def test_cyclic_flow_raises():
    # vertices 0, 1, 2; each singleton matched up so the gradient paths
    # run {0} -> {1} -> {2} -> {0}
    up = {0b001: 0b010, 0b010: 0b100, 0b100: 0b001}
    flow = _Flow({}, up, (1, 1, 1))
    with pytest.raises(ArithmeticError, match="cyclic gradient path"):
        flow.image(0b011)


def test_nonzero_composite_raises():
    with pytest.raises(ArithmeticError, match=r"t=3, alpha=\(1, 1\)"):
        _check_composite_zero([{0: 1}], [{0: 1}], 3, (1, 1))


def test_engine_ranks_come_from_morse_matrices(monkeypatch):
    from koszul.homology import HomologyEngine

    seen = []
    orig = exactla.rank_mod_p

    def spy(m, p):
        seen.append((m.nrows, m.ncols, sorted(m.triplets)))
        return orig(m, p)

    monkeypatch.setattr(exactla, "rank_mod_p", spy)
    params = RingParams(7, 2)
    e = HomologyEngine(params, exactla.FieldSpec.prime(3))
    assert e.block_rank(3, (1,) * 7) == 78 + 6
    # a miss ranks the Morse matrices of the whole (1^7) strand, and only those
    s = Strand(params, (1,) * 7)
    morse = [s.morse(t) for t in range(1, len(s.faces))]
    assert seen == [(m.nrows, m.ncols, sorted(m.triplets)) for m in morse]
    assert (7, 27) in [(m.nrows, m.ncols) for m in morse]
