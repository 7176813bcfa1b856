"""Differential tests of the Morse reduction of a strand (complex.Strand)
against the raw differential blocks it replaces."""

import hashlib
import sys
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from koszul import complex, exactla
from koszul.combinatorics import (
    ExponentVec,
    RingParams,
    divides,
    monomial_table,
    orbit_size,
    partitions_into,
    vec_sub,
)
from koszul.complex import (
    Strand,
    _check_composite_zero,
    _image,
    _subset_counts,
    _vertices,
    differential_block,
    graded_dim,
)
from koszul.exactla import SparseIntMatrix, elementary_divisors, rank_fraction_free, rank_mod_p
from koszul.homology import homology_vector, proves_rational

PRIMES = (2, 3, 32003)

# Every orbit representative is checked in every degree below the first
# degree of its ring that has a raw block above this many cells: up to
# degree N*c when c = 1, n <= 2 or (n, c) = (3, 2); up to 15 at (3, 3), 11
# at (4, 2) and 10 at (4, 3).
CELL_LIMIT = 12_000


def face_levels(params: RingParams, alpha: ExponentVec) -> list[list[int]]:
    """Faces of Delta_alpha as bitmasks over the degree-c monomials dividing
    X^alpha (bit i is the i-th such monomial in rank order), one list per
    face size: level t has len(block_basis(params, t, alpha)) faces, and
    level 0 holds the empty face."""
    # Pack exponent vectors into one int, a guard bit above every field, so
    # "m divides r" is one subtraction: no field of (r | guard) - m borrows.
    width = max(alpha).bit_length() + 1
    guard = sum(1 << (i * width + width - 1) for i in range(params.n))

    def pack(v: ExponentVec) -> int:
        return sum(x << (i * width) for i, x in enumerate(v))

    cands = [pack(m) for m in monomial_table(params.n, params.c)[0] if divides(m, alpha)]
    # (face, residual, the later vertices that still divide the residual)
    level = [(0, pack(alpha), range(len(cands)))]
    levels = [[0]]
    while True:
        nxt = []
        for face, res, fits in level:
            for pos, i in enumerate(fits):
                child = res - cands[i]
                top = child | guard
                nxt.append((
                    face | 1 << i,
                    child,
                    [j for j in fits[pos + 1 :] if (top - cands[j]) & guard == guard],
                ))
        if not nxt:
            return levels
        levels.append([face for face, _, _ in nxt])
        level = nxt


def matched_by_enumeration(params, alpha) -> tuple[list[int], list[int], list[int]]:
    """(faces, pairs, crit) from every face of Delta_alpha and the element
    matchings of all its vertices, applied in rank order."""
    levels = face_levels(params, alpha)
    size = params.N + 2
    pairs = [0] * size
    alive = {face for level in levels for face in level}
    for i in range(len(levels[1]) if len(levels) > 1 else 0):
        bit = 1 << i
        for face in [f for f in alive if not f & bit and f | bit in alive]:
            alive -= {face, face | bit}
            pairs[face.bit_count() + 1] += 1
    crit = [sum(f in alive for f in level) for level in levels]
    return [len(level) for level in levels], pairs, crit + [0] * (size - len(levels))


def face_counts(params, alpha) -> list[int]:
    return [len(level) for level in face_levels(params, alpha)]


def raw(params, t, alpha) -> SparseIntMatrix:
    return differential_block(params, t, alpha)


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


def test_one_prime_certificate_is_sound():
    # whenever proves_rational accepts a strand's F_p record, that record is
    # the fraction-free one: on every case strand, the degree-9 strands at
    # (5,2) and (6,2), and (1^7) at (7,2), whose F_3 record is wrong over Q
    cases = CASES + [(RingParams(n, 2), rep) for n in (5, 6) for rep in partitions_into(9, n)]
    cases.append((RingParams(7, 2), (1,) * 7))
    accepted = rejected = wrong = 0
    for params, rep in cases:
        s = Strand(params, rep)
        morse = [s.morse(t) for t in range(1, len(s.faces))]

        def record(rank):
            return tuple(s.faces), (0, *(s.pairs[t] + rank(m) for t, m in enumerate(morse, 1)))

        rational = record(rank_fraction_free)
        for p in PRIMES:
            rec = record(lambda m: rank_mod_p(m, p))
            wrong += rec != rational
            if proves_rational(homology_vector(rec)):
                assert rec == rational, (params.n, params.c, rep, p)
                accepted += 1
            else:
                rejected += 1
    assert wrong == 1  # the char-3 jump at (1^7)
    assert accepted > 10 * rejected > 0


@pytest.mark.parametrize("alpha", [(2, 2, 1, 1, 1, 1, 1), (2, 2, 2, 1, 1, 1, 1)])
def test_long_gradient_paths_match_raw_blocks(alpha):
    # past CASES' reach: these strands memoize the flows of 192 and 349
    # matched faces, against raw blocks of up to 662 x 777
    params = RingParams(7, 2)
    s = Strand(params, alpha)
    for t in range(1, params.N + 1):
        full = raw(params, t, alpha)
        if full.ncols == 0:
            continue
        for p in (3, 32003):
            assert s.pairs[t] + rank_mod_p(s.morse(t), p) == rank_mod_p(full, p), (t, p)


def test_survivor_walk_matches_full_enumeration():
    for params, rep in CASES:
        s = Strand(params, rep)
        assert (s.faces, s.pairs, s.crit) == matched_by_enumeration(params, rep), (params, rep)


def spy_walk(monkeypatch) -> list[tuple]:
    """Route Strand's face walk through a spy; each call appends its
    (alpha, kept, lower) to the list returned."""
    calls = []
    walk = complex._survivors

    def spy(table, ranks, alpha):
        kept, lower = walk(table, ranks, alpha)
        calls.append((alpha, kept, lower))
        return kept, lower

    monkeypatch.setattr(complex, "_survivors", spy)
    return calls


def test_only_non_cone_strands_enter_the_walk(monkeypatch):
    # Delta_alpha is a cone on v0 (bit 0) when every face without v0 takes
    # it; a cone's strand stops after the counts, so at (4,2) up to degree
    # 19 only the 47 strands that have a vertex and are no cone walk faces
    calls = spy_walk(monkeypatch)
    params = RingParams(4, 2)
    non_cones = []
    for d in range(20):
        for rep in partitions_into(d, 4):
            levels = face_levels(params, rep)
            faces = {f for level in levels for f in level}
            if len(levels) > 1 and any(not f & 1 and f | 1 not in faces for f in faces):
                non_cones.append(rep)
            Strand(params, rep)
    assert [alpha for alpha, _, _ in calls] == non_cones
    assert len(non_cones) == 47


def test_walk_skips_the_upper_faces_of_the_second_matching(monkeypatch):
    # the matching on v1 (bit 1) is made during the walk: of the 5,658
    # survivors of v0 at this multidegree, the walk lists 1,134 lower faces
    # of v1 pairs and none of their 1,134 upper faces
    params, alpha = RingParams(7, 2), (2, 2, 2, 2, 2, 1, 1)
    faces = {f for level in face_levels(params, alpha) for f in level}
    survivors = {f for f in faces if not f & 1 and f | 1 not in faces}
    upper = {f for f in survivors if f & 2 and f ^ 2 in survivors}
    assert (len(survivors), len(upper)) == (5_658, 1_134)
    calls = spy_walk(monkeypatch)
    s = Strand(params, alpha)
    [(_, kept, lower)] = calls
    # the walk's faces are bitmasks of monomial ranks, face_levels' of
    # vertex positions
    ranks = [r for r, m in enumerate(monomial_table(7, 2)[0]) if divides(m, alpha)]

    def as_ranks(face: int) -> int:
        return sum(1 << r for i, r in enumerate(ranks) if face >> i & 1)

    listed = [f for level in kept + lower for f in level]
    assert sorted(listed) == sorted(map(as_ranks, survivors - upper))
    assert sorted(f for level in lower for f in level) == sorted(as_ranks(f ^ 2) for f in upper)
    assert (s.faces, s.pairs, s.crit) == matched_by_enumeration(params, alpha)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_survivor_walk_matches_full_enumeration_property(data):
    n = data.draw(st.integers(1, 6), label="n")
    c = data.draw(st.integers(1, 3), label="c")
    alpha = data.draw(
        st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(lambda a: sum(a) <= 14),
        label="alpha",
    )
    params = RingParams(n, c)
    s = Strand(params, alpha)
    assume(sum(s.faces) <= 20_000)  # keeps the reference enumeration quick
    assert (s.faces, s.pairs, s.crit) == matched_by_enumeration(params, tuple(alpha))


def link_alphas(n: int, c: int) -> list[ExponentVec]:
    """Up to three multidegrees of the ring, those whose later vertices are
    few enough to enumerate: one coordinate dominant (its field slack),
    every field slack (the vertices together fit in the residual), and
    (c+1, 1, ..., 1), where no field is slack when 2 <= c < n."""
    m = min(n, 3)
    a = c + c * comb(c + m - 1, c) // m  # c plus each variable's share of every vertex
    out = [
        (9 * c,) + (1,) * min(n - 1, 3) + (0,) * max(n - 4, 0),
        (a,) * m + (0,) * (n - m),
        (c + 1,) + (1,) * (n - 1),
    ]
    return [alpha for alpha in out if _vertices(RingParams(n, c), alpha)[0].bit_count() <= 16]


@pytest.mark.parametrize("n,c", [(n, c) for n in range(1, 7) for c in range(1, 5)])
def test_masked_link_counts_match_combinations(n, c):
    for alpha in link_alphas(n, c):
        fits, _, table = _vertices(RingParams(n, c), alpha)
        verts = [m for r, m in enumerate(table.monomials) if fits >> r & 1]
        width = table.width
        asked = []

        def counts(fits, top, guard):
            asked.append((fits, top, _subset_counts(fits, top, guard)))
            return asked[-1][2]

        Strand(RingParams(n, c), alpha, counts)
        [(fits, top, link)] = asked
        residual = vec_sub(alpha, verts[0])
        plain = [
            sum(
                all(sum(col) <= r for col, r in zip(zip(*subset), residual))
                for subset in combinations(verts[1:], t)
            )
            for t in range(len(verts))
        ]
        while not plain[-1]:
            plain.pop()
        assert list(link) == plain, alpha
        # exactly the slack fields are cleared, from the residual and from
        # every fitting later vertex
        fitting = [u for u in verts[1:] if divides(u, residual)]
        slack = {k for k, r in enumerate(residual) if sum(u[k] for u in fitting) <= r}
        field = (1 << (width - 1)) - 1

        def fields(packed):
            return [packed >> (k * width) & field for k in range(n)]

        assert fields(top) == [0 if k in slack else r for k, r in enumerate(residual)]
        assert [fields(m) for m in fits] == [
            [0 if k in slack else x for k, x in enumerate(u)] for u in fitting
        ]
        if alpha[0] == 9 * c:
            assert 0 in slack
        elif alpha[0] > c + 1:
            assert slack == set(range(n))
        elif 2 <= c < n:
            assert not slack


@pytest.mark.parametrize(
    "n,c,alpha,faces,crit",
    [
        (7, 2, (2,) * 7, 35_880, 1_284),
        (4, 3, (6, 5, 5, 5), 18_598, 964),
        (3, 5, (9, 8, 8), 3_763, 889),
    ],
)
def test_frontier_strand_sizes(n, c, alpha, faces, crit):
    s = Strand(RingParams(n, c), alpha)
    assert (sum(s.faces), sum(s.crit)) == (faces, crit)


def test_full_simplex_face_counts():
    # with c = 1 at (1,...,1) every set of the 12 variables is a face
    s = Strand(RingParams(12, 1), (1,) * 12)
    assert s.faces == [comb(12, t) for t in range(13)]


@pytest.mark.parametrize("n,c,top", [(4, 2, 20), (7, 2, 12)])
def test_orbit_weighted_face_counts_fill_each_degree(n, c, top):
    # the strands of one degree, each counted once per permutation of alpha,
    # share out the basis of every K_t in that degree
    params = RingParams(n, c)
    for d in range(top + 1):
        strands = [(orbit_size(rep), Strand(params, rep).faces) for rep in partitions_into(d, n)]
        for t in range(params.N + 1):
            total = sum(size * faces[t] for size, faces in strands if t < len(faces))
            assert total == graded_dim(params, t, d), (d, t)


# SHA-256 of the Morse output of every orbit representative of these rings
# up to these degrees (1,836 strands), recorded before the gradient flow
# became one post-order sweep and kept since it became one loop that lists
# and sums each boundary once: any change of matching, order or sign shows.
PINNED_RINGS = [(3, 3, 18), (4, 2, 14), (7, 2, 12), (4, 3, 16), (3, 4, 20), (3, 5, 20)]
PINNED_DIGEST = "2dd073c835f2ffe0f3d03243f09001243988ca9b4fa2f95479443a169ba1a003"


def test_morse_output_is_pinned():
    digest = hashlib.sha256()
    for n, c, top in PINNED_RINGS:
        params = RingParams(n, c)
        for d in range(top + 1):
            for rep in partitions_into(d, n):
                s = Strand(params, rep)
                morse = [s.morse(t).entries for t in range(1, len(s.faces))]
                digest.update(repr((rep, s.faces, s.pairs, s.crit, morse)).encode())
    assert digest.hexdigest() == PINNED_DIGEST


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


@pytest.mark.parametrize("n, torsion", [(5, {}), (6, {}), (7, {3: [3]})])
def test_matching_complex_torsion(n, torsion):
    # at c = 2 the strand (1^n) is the matching complex M_n; Bouc (1992):
    # the reduced H_1(M_7) is Z/3, and M_5, M_6 have no torsion
    s = Strand(RingParams(n, 2), (1,) * n)
    found = {}
    for t in range(1, len(s.faces)):
        above_one = [d for d in elementary_divisors(s.morse(t)) if d > 1]
        if above_one:
            found[t] = above_one
    assert found == torsion


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


@pytest.mark.parametrize("n,c", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2), (2, 5), (3, 4)])
def test_strand_of_a_part_above_m_is_the_strand_at_its_key(monkeypatch, n, c):
    # every rep with a part above M, up to degree 2M + 2 (so two parts can
    # exceed M), builds the strand at its key: the same counts,
    # Morse matrices and records over F_2, F_3, F_5 and Q, and no homology,
    # as a cone on x_1^c.  Reversed, with the capped part last, most are no
    # cone on their first vertex, and the survivor walk of each matches
    # that of its reversed key (up to degree M + 2c, where walks are small).
    walks = spy_walk(monkeypatch)
    params = RingParams(n, c)
    ranks = [rank_fraction_free] + [lambda m, p=p: rank_mod_p(m, p) for p in (2, 3, 5)]
    checked = 0
    for d in range(2 * params.M + 3):
        for rep in partitions_into(d, n):
            if rep[0] <= params.M:
                continue
            key = complex.strand_key(params, rep)
            assert key == tuple(min(a, params.M) for a in rep)
            cases = [(rep, key), (rep[::-1], key[::-1])][: 2 if d <= params.M + 2 * c else 1]
            for alpha, capped in cases:
                s, k = Strand(params, alpha), Strand(params, capped)
                assert (s.faces, s.pairs, s.crit) == (k.faces, k.pairs, k.crit), alpha
                assert all(s.morse(t) == k.morse(t) for t in range(1, params.N + 2)), alpha
                records = [s.record(rank) for rank in ranks]
                assert records == [k.record(rank) for rank in ranks], alpha
            assert not any(any(homology_vector(s.record(rank))) for rank in ranks), rep
            checked += 1
    assert checked
    assert walks and all(a[1:] == b[1:] for a, b in zip(walks[::2], walks[1::2]))


def test_cyclic_flow_raises():
    # vertices 0, 1, 2; each singleton matched up so the gradient paths
    # run {0} -> {1} -> {2} -> {0}
    up = {0b001: 0b010, 0b010: 0b100, 0b100: 0b001}
    with pytest.raises(ArithmeticError, match="cyclic gradient path"):
        _image(0b011, {}, up, {}, (1, 1, 1))


def test_flow_deeper_than_the_recursion_limit():
    # the singletons {1} -> {2} -> ... -> {L} form one gradient path of
    # L - 1 matched steps, each carrying +1, ending on the critical {L};
    # deleting vertex 1 from {0, 1} leaves the critical {0} with sign -1
    L = 5000
    assert L > sys.getrecursionlimit()
    up = {1 << i: 1 << (i + 1) for i in range(1, L)}
    index = {0b1: 0, 1 << L: 1}
    memo: dict[int, dict[int, int]] = {}
    assert _image(0b11, index, up, memo, (1,) * (L + 1)) == {0: -1, 1: 1}
    assert len(memo) == L - 1 and all(memo[1 << i] == {1: 1} for i in range(1, L))


def test_nonzero_composite_raises():
    with pytest.raises(ArithmeticError, match=r"t=3, alpha=\(1, 1\)"):
        _check_composite_zero([{0: 1}], [{0: 1}], 3, (1, 1))


def test_engine_ranks_come_from_morse_matrices(monkeypatch):
    from koszul.homology import HomologyEngine

    seen = []
    orig = exactla.rank_mod_p

    def spy(m, p):
        seen.append((m.nrows, m.ncols, sorted(m.entries)))
        return orig(m, p)

    monkeypatch.setattr(exactla, "rank_mod_p", spy)
    params = RingParams(7, 2)
    e = HomologyEngine(params, exactla.FieldSpec.prime(3))
    assert e.block_rank(3, (1,) * 7) == 78 + 6
    # a miss ranks the nonempty Morse matrices of the (1^7) strand, and
    # only those: an empty one (0 x 0 and 0 x 7 here) has rank 0 unranked
    s = Strand(params, (1,) * 7)
    morse = [s.morse(t) for t in range(1, len(s.faces))]
    assert [(m.nrows, m.ncols) for m in morse] == [(0, 0), (0, 7), (7, 27)]
    assert seen == [(m.nrows, m.ncols, sorted(m.entries)) for m in morse if m.cells]
    assert all(nrows and ncols for nrows, ncols, _ in seen)
