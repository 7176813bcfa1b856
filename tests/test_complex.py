import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszul import complex
from koszul.combinatorics import RingParams, compositions, monomial_table
from koszul.complex import (
    Strand,
    block_basis,
    differential_block,
    graded_dim,
    products_dividing,
    sort_gens,
)
from koszul.exactla import rank_mod_p
from oracles import divides


def test_products_dividing_matches_plain_enumeration():
    # some vectors do not divide alpha, one by an entry far above max(alpha)
    alpha = (3, 1, 2)
    vectors = [(1, 0, 1), (0, 1, 0), (9, 0, 0), (2, 0, 0), (0, 2, 0), (1, 0, 1), (0, 0, 0)]
    for k in range(5):
        for distinct, choose in ((True, combinations), (False, combinations_with_replacement)):
            expected = []
            for chosen in choose(range(len(vectors)), k):
                residual = tuple(a - sum(vectors[i][j] for i in chosen) for j, a in enumerate(alpha))
                if min(residual) >= 0:
                    expected.append((chosen, residual))
            assert products_dividing(vectors, alpha, k, distinct) == expected


def test_block_basis_examples():
    # coefficient is the complementary variable, bracket entry a squarefree pair
    basis = block_basis(RingParams(3, 2), 1, (1, 1, 1))
    quadrics = monomial_table(3, 2)[0]
    assert sorted(quadrics[r] for (r,) in basis) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]

    # only one distinct pair multiplies to x^2 y^2
    p22 = RingParams(2, 2)
    rank22 = monomial_table(2, 2)[1]
    basis = block_basis(p22, 2, (2, 2))
    assert basis == [tuple(sorted((rank22[(2, 0)], rank22[(0, 2)])))]


def test_block_basis_t0_and_infeasible():
    p = RingParams(3, 3)
    assert block_basis(p, 0, (2, 0, 1)) == [()]
    assert block_basis(p, 1, (1, 1, 0)) == []  # |alpha| < c
    assert block_basis(p, 2, (5, 0, 0)) == []  # only one cubic divides


def tuple_block_basis(params, t, alpha):
    """block_basis as a walk over exponent tuples: bracket ranks grow, and
    each degree-c monomial must divide what the earlier ones left of alpha;
    a bracket is kept once t monomials are chosen."""
    if t < 0 or any(a < 0 for a in alpha) or sum(alpha) < t * params.c:
        return []
    out = []

    def extend(start, residual, left, chosen):
        if left == 0:
            out.append(chosen)
            return
        for r in range(start, params.N):
            m = monomial_table(params.n, params.c)[0][r]
            if all(x <= a for x, a in zip(m, residual)):
                rest = tuple(a - x for a, x in zip(residual, m))
                extend(r + 1, rest, left - 1, chosen + (r,))

    extend(0, tuple(alpha), t, ())
    return out


@pytest.mark.parametrize("n, c, top", [(3, 2, 8), (4, 2, 8), (3, 3, 12), (1, 3, 7), (2, 4, 12)])
def test_block_basis_matches_tuple_enumerator(n, c, top):
    params = RingParams(n, c)
    for d in range(top + 1):
        for alpha in compositions(n, d):
            for t in range(d // c + 2):
                got = block_basis(params, t, alpha)
                assert got == tuple_block_basis(params, t, alpha), (t, alpha)
                assert all(type(r) is int for gens in got for r in gens)


def test_block_basis_sorted_by_gens():
    basis = block_basis(RingParams(3, 2), 2, (2, 2, 2))
    assert basis == sorted(basis)
    assert all(list(gens) == sorted(set(gens)) for gens in basis)


def test_sort_gens_signs():
    assert sort_gens((1, 5, 9)) == ((1, 5, 9), 1)
    assert sort_gens((5, 1, 9)) == ((1, 5, 9), -1)
    assert sort_gens((9, 5, 1)) == ((1, 5, 9), -1)
    assert sort_gens((5, 5)) == ((5, 5), 0)


def test_differential_koszul_relation():
    # single column d[x,y] = x[y] - y[x]
    p = RingParams(2, 1)
    blk = differential_block(p, 2, (1, 1))
    assert blk.ncols == 1 and blk.nrows == 2
    by_row = {blk.rows[r]: s for r, _, s in blk.entries}
    x, y = (1, 0), (0, 1)
    rank = monomial_table(2, 1)[1]
    assert by_row[(rank[y],)] == 1  # x[y]: the coefficient is fixed by alpha
    assert by_row[(rank[x],)] == -1
    assert all(blk.rows[blk.row_index[gens]] == gens for gens in blk.rows)


def test_differential_t1_single_positive_entry():
    p = RingParams(3, 2)
    for alpha, ncols in [((1, 1, 1), 3), ((2, 1, 1), 4)]:
        blk = differential_block(p, 1, alpha)
        assert blk.ncols == ncols
        for j in range(blk.ncols):
            col_entries = [(r, s) for r, cj, s in blk.entries if cj == j]
            assert col_entries == [(0, 1)]  # one row at t=0, sign +1


def test_differential_column_count_per_column():
    p = RingParams(3, 2)
    for t in (1, 2, 3):
        blk = differential_block(p, t, (2, 2, 2))
        per_col = {}
        for r, cj, s in blk.entries:
            assert s in (1, -1)
            per_col[cj] = per_col.get(cj, 0) + 1
        for j in range(blk.ncols):
            assert per_col.get(j, 0) == t


def _compose_is_zero(params, t, alpha):
    hi = differential_block(params, t, alpha)
    lo = differential_block(params, t - 1, alpha)
    import numpy as np

    A = np.zeros((lo.nrows, lo.ncols), dtype=np.int64)
    for r, c, s in lo.entries:
        A[r, c] = s
    B = np.zeros((hi.nrows, hi.ncols), dtype=np.int64)
    for r, c, s in hi.entries:
        B[r, c] = s
    return not (A @ B).any()


def test_differential_squares_to_zero_small_grid():
    p = RingParams(3, 2)
    for t in (2, 3, 4):
        for d in range(2 * t, 11):
            for alpha in compositions(3, d):
                assert _compose_is_zero(p, t, alpha)


def test_differential_squares_to_zero_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 4)
        c = rng.randint(1, 3)
        t = rng.randint(2, 4)
        d = rng.randint(t * c, min(t * c + 4, 12))
        alpha = [0] * n
        for _ in range(d):
            alpha[rng.randrange(n)] += 1
        assert _compose_is_zero(RingParams(n, c), t, tuple(alpha))


def test_graded_dim_formula():
    p = RingParams(3, 3)
    assert graded_dim(p, 1, 4) == 30
    assert graded_dim(p, 2, 5) == 0  # below t*c
    assert graded_dim(p, 0, 2) == 6


def test_graded_dim_matches_block_enumeration():
    p = RingParams(3, 2)
    for t in range(0, 4):
        for d in range(0, 10):
            total = sum(len(block_basis(p, t, a)) for a in compositions(3, d))
            assert total == graded_dim(p, t, d)


def test_permutation_equivariance_of_blocks():
    p = RingParams(3, 2)
    alpha = (3, 2, 1)
    for sigma in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        beta = tuple(alpha[i] for i in sigma)
        for t in (1, 2, 3):
            a_basis = block_basis(p, t, alpha)
            b_basis = block_basis(p, t, beta)
            assert len(a_basis) == len(b_basis)
            blk_a = differential_block(p, t, alpha)
            blk_b = differential_block(p, t, beta)
            ra = rank_mod_p(blk_a, 10007)
            rb = rank_mod_p(blk_b, 10007)
            assert ra == rb


def test_empty_morse_matrices_need_no_gradient_flow(monkeypatch):
    # at (9, 8, 8) of m^5 in three variables all 889 critical cells have four
    # vertices, so every Morse matrix is empty and no flow has to be walked
    def no_flow(*args):
        raise AssertionError("a gradient flow was walked for an empty Morse matrix")

    monkeypatch.setattr(complex, "_image", no_flow)
    s = Strand(RingParams(3, 5), (9, 8, 8))
    assert s.crit[4] == sum(s.crit) == 889
    for t in range(1, len(s.faces)):
        m = s.morse(t)
        assert (m.nrows, m.ncols, m.entries) == (s.crit[t - 1], s.crit[t], [])


def test_cyclic_flow_error_names_t_and_alpha():
    # the singletons {0} -> {1} -> {2} -> {0} form a cyclic gradient path
    up = {0b001: 0b010, 0b010: 0b100, 0b100: 0b001}
    with pytest.raises(ArithmeticError, match=r"at t=2, alpha=\(1, 1, 1\)"):
        complex._image(0b011, {}, up, {}, (1, 1, 1))


class _SetOnce(dict):
    """A memo that refuses to store a key twice."""

    def __setitem__(self, key, value):
        assert key not in self, f"the flow of {key:b} was computed twice"
        super().__setitem__(key, value)


def test_flow_walks_each_boundary_once(monkeypatch):
    # one memo serves every level of the strand, and the flow of every
    # matched face in it is computed once: its partner's boundary is walked
    # once, when the flow is stored
    image = complex._image
    memos: dict[int, _SetOnce] = {}
    images = []

    def counted_image(face, index, up, memo, alpha):
        images.append(face)
        return image(face, index, up, memos.setdefault(id(memo), _SetOnce()), alpha)

    monkeypatch.setattr(complex, "_image", counted_image)
    s = Strand(RingParams(7, 2), (2, 2, 2, 1, 1, 1, 1))
    (memo,) = memos.values()
    assert len(memo) == 349
    assert len(images) == len(set(images)) == sum(
        s.crit[t] for t in range(1, len(s.faces)) if s.crit[t - 1]
    )


FIT_RINGS = [(1, 3), (2, 4), (3, 5), (4, 3), (7, 2)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fit_tables_and_walk_fit_sets_match_the_packed_test(data):
    # alpha has parts at 0, at c and at M (where a part stops binding), and
    # is sometimes replaced by its strand key
    n, c = data.draw(st.sampled_from(FIT_RINGS), label="ring")
    params = RingParams(n, c)
    M = params.M
    part = st.one_of(st.sampled_from([0, c, M]), st.integers(0, M + 2))
    alpha = tuple(data.draw(st.lists(part, min_size=n, max_size=n), label="alpha"))
    if data.draw(st.booleans(), label="keyed"):
        alpha = complex.strand_key(params, alpha)
    fits, top, table = complex._vertices(params, alpha)
    packed, guard, width = table.packed, table.guard, table.width
    monomials = monomial_table(n, c)[0]
    assert table.monomials == monomials

    def accepted(res: int, positions) -> int:
        """The positions whose packed monomial divides the packed residual
        res (guard bits set), as a bitmask."""
        return sum(1 << p for p in positions if (res - packed[p]) & guard == guard)

    # fit[k][x] lists the monomials with at most x of x_k, for every x of
    # the table, and the fit set of alpha is what the packed test accepts
    for k, at in enumerate(table.fit):
        assert len(at) == 1 << (width - 2) > max(alpha)
        for x, mask in enumerate(at):
            assert mask == sum(1 << r for r, m in enumerate(monomials) if m[k] <= x)
    assert fits == accepted(top, range(len(packed)))
    assert fits == sum(1 << r for r, m in enumerate(monomials) if divides(m, alpha))

    # every choice of the walk carries the later positions that divide its
    # residual, by the packed test
    k = data.draw(st.integers(1, 3), label="k")
    distinct = data.draw(st.booleans(), label="distinct")
    for j, level in enumerate(complex._choices(table, fits, top, k, distinct)):
        for chosen, res, later in level:
            assert len(chosen) == j
            assert res == top - sum(packed[p] for p in chosen)
            start = chosen[-1] + distinct if chosen else 0
            assert later == accepted(res, range(start, len(packed)))
    choose = combinations if distinct else combinations_with_replacement
    ranks = [r for r in range(len(packed)) if fits >> r & 1]
    expected = [
        chosen for chosen in choose(ranks, k)
        if divides(tuple(map(sum, zip(*(monomials[r] for r in chosen)))), alpha)
    ]
    assert [chosen for chosen, _ in complex._divisor_walk(table, fits, top, k, distinct)] == expected
