import itertools
import math
import random
from fractions import Fraction

import pytest

from koszul import exactla
from koszul.combinatorics import RingParams
from koszul.complex import differential_block
from koszul.exactla import (
    ColumnSpace,
    ExactEliminationError,
    FieldSpec,
    SizeGuardError,
    SparseIntMatrix,
    UnsupportedPolicyError,
    VectorSpan,
    elementary_divisors,
    is_prime,
    kernel_basis,
    multiprime_primes,
    rank_fraction_free,
    rank_mod_p,
)

QF = FieldSpec.rational(policy="fraction_free")
QM = FieldSpec.rational(policy="multiprime", num_primes=3, seed=11)


def _random_pm1(rng, nr, nc, density=0.4):
    trips = []
    for i in range(nr):
        for j in range(nc):
            if rng.random() < density:
                trips.append((i, j, rng.choice((1, -1))))
    return SparseIntMatrix.from_triplets(nr, nc, trips)


def _sparse(vec):
    return {i: v for i, v in enumerate(vec) if v}


def _dense(vec, length):
    """The dense view of a sparse vector."""
    out = [0] * length
    for i, v in vec.items():
        out[i] = v
    return out


def _dense_rows(span):
    """The echelon rows of a span as (pivot, dense row)."""
    return [(piv, _dense(row, span.length)) for piv, row in span.rows()]


def _rank_fraction_oracle(m):
    """Independent exact rank: plain Gaussian elimination on Fractions."""
    A = [[Fraction(v) for v in row] for row in m.to_dense()]
    nr, nc = m.nrows, m.ncols
    r = 0
    for col in range(nc):
        piv = next((i for i in range(r, nr) if A[i][col]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, nr):
            if A[i][col]:
                f = A[i][col] / A[r][col]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        r += 1
    return r


def _rank_mod_p_oracle(rows, p):
    """Independent rank over F_p: plain Gaussian elimination on int lists."""
    A = [[v % p for v in row] for row in rows]
    r = 0
    for col in range(len(A[0]) if A else 0):
        piv = next((i for i in range(r, len(A)) if A[i][col]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][col], -1, p)
        for i in range(r + 1, len(A)):
            if A[i][col]:
                f = A[i][col] * inv % p
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        r += 1
    return r


FIELDS = [QM, QF, *(FieldSpec.prime(p) for p in (2, 3, 5, 7, 32003))]


@pytest.mark.parametrize("field", FIELDS, ids=FieldSpec.describe)
def test_field_inverts_exactly_the_factorials_it_does_not_kill(field):
    # 0 is never a unit; m! is one exactly when the characteristic is 0 or
    # above m, since a prime divides m! iff it is at most m
    assert not field.inverts(0)
    char = field.characteristic
    for m in (1, 3, 4, 5):
        assert field.inverts(math.factorial(m)) == (char == 0 or char > m), m


def test_prime_generation():
    primes = multiprime_primes(0, 3)
    assert len(set(primes)) == 3
    for p in primes:
        assert is_prime(p)
        assert p.bit_length() == 30
    # deterministic and prefix-stable under escalation
    assert multiprime_primes(0, 4)[:3] == primes


def test_sampled_rank_escalates_on_any_disagreement():
    # rank vectors of one strand: the first prime drops one rank at t = 2 only
    primes = multiprime_primes(11, 4)
    vectors = {p: [0, 3, 2, 1] for p in primes}
    vectors[primes[0]] = [0, 3, 1, 1]
    asked = []

    def rank_at(p):
        asked.append(p)
        return vectors[p]

    assert exactla.sampled_rank(QM, rank_at) == [0, 3, 2, 1]
    assert asked == list(primes)  # one more prime was drawn
    vectors[primes[0]] = [0, 3, 2, 1]
    asked.clear()
    assert exactla.sampled_rank(QM, rank_at) == [0, 3, 2, 1]
    assert asked == list(primes[:3])  # agreement: no prime past the initial set


def test_rank_identity_and_small():
    eye = SparseIntMatrix.from_triplets(5, 5, [(i, i, 1) for i in range(5)])
    assert rank_fraction_free(eye) == rank_mod_p(eye, 5) == 5
    assert exactla.sampled_rank(QM, lambda p: [rank_mod_p(eye, p)]) == [5]
    m = SparseIntMatrix.from_dense([[1, 1], [1, -1]])
    assert rank_fraction_free(m) == 2
    assert exactla.sampled_rank(QM, lambda p: [rank_mod_p(m, p)]) == [2]
    assert rank_mod_p(m, 2) == 1  # determinant -2


def test_rank_empty_and_zero():
    for shape in ((3, 4), (0, 4), (4, 0), (0, 0)):
        z = SparseIntMatrix(*shape, [])
        assert rank_fraction_free(z) == rank_mod_p(z, 7) == 0, shape
        assert exactla.sampled_rank(QM, lambda p: [rank_mod_p(z, p)]) == [0], shape


def test_rank_policies_agree_on_random_pm1():
    rng = random.Random(3)
    for _ in range(30):
        m = _random_pm1(rng, rng.randint(1, 9), rng.randint(1, 9))
        exact = rank_fraction_free(m)
        assert exact == _rank_fraction_oracle(m)
        per_prime = {}
        best = exactla.sampled_rank(QM, lambda p: per_prime.setdefault(p, [rank_mod_p(m, p)]))
        assert len(per_prime) == QM.num_primes and best == [exact]  # agreed at once
        for p in (2, 3, 5, 7, 11, 13):
            assert rank_mod_p(m, p) <= exact


def test_rank_nullity():
    rng = random.Random(9)
    for _ in range(20):
        m = _random_pm1(rng, rng.randint(1, 8), rng.randint(1, 8))
        ranks = {QF: rank_fraction_free(m), FieldSpec.prime(5): rank_mod_p(m, 5)}
        ranks[FieldSpec.prime(2)] = rank_mod_p(m, 2)
        for f, r in ranks.items():
            assert r + len(kernel_basis(m, f)) == m.ncols


def test_kernel_examples():
    z = SparseIntMatrix(3, 3, [])
    basis = kernel_basis(z, FieldSpec.prime(5))
    assert [_dense(v, 3) for v in basis] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    m = SparseIntMatrix.from_dense([[1, 1]])
    (v,) = kernel_basis(m, FieldSpec.prime(5))
    v = _dense(v, 2)
    assert (v[0] + v[1]) % 5 == 0 and any(v)
    (w,) = kernel_basis(m, QF)
    w = _dense(w, 2)
    assert w[0] + w[1] == 0


def test_kernel_vectors_annihilate():
    # +-1 matrices, general integer ones of every shape, and raw blocks; a
    # kernel vector is sparse: no stored zero, every index a column
    rng = random.Random(13)
    cases = [_random_pm1(rng, rng.randint(1, 7), rng.randint(1, 7)) for _ in range(15)]
    cases += list(_oracle_cases(rng))
    cases += [differential_block(RingParams(3, 2), t, (2, 2, 1)) for t in (1, 2, 3)]
    for m in cases:
        dense = m.to_dense()
        for f in (QF, FieldSpec.prime(3), FieldSpec.prime(7)):
            p = f.p if f.kind == "prime" else 0
            for v in kernel_basis(m, f):
                assert isinstance(v, dict) and v
                assert all(x and 0 <= i < m.ncols for i, x in v.items())
                v = _dense(v, m.ncols)
                for row in dense:
                    s = sum(a * b for a, b in zip(row, v))
                    assert s % p == 0 if p else s == 0


def test_kernel_of_a_differential_block():
    # first differential at n=3, c=2, multidegree (2,1,1): kernel dimension
    # is column count minus rank
    m = differential_block(RingParams(3, 2), 1, (2, 1, 1))
    for f, r in ((QF, rank_fraction_free(m)), (FieldSpec.prime(5), rank_mod_p(m, 5))):
        kern = kernel_basis(m, f)
        assert len(kern) == m.ncols - r == 3


def test_a_differential_block_is_a_sparse_matrix():
    # every routine takes a raw block as it is, and answers as for the plain
    # SparseIntMatrix of its entries
    params = RingParams(4, 2)
    for t, alpha in ((1, (2, 1, 1, 0)), (2, (1, 1, 1, 1)), (3, (2, 2, 1, 1))):
        blk = differential_block(params, t, alpha)
        m = SparseIntMatrix.from_triplets(blk.nrows, blk.ncols, blk.entries)
        assert isinstance(blk, SparseIntMatrix) and blk.cells == m.cells
        assert rank_fraction_free(blk) == rank_fraction_free(m)
        assert rank_mod_p(blk, 3) == rank_mod_p(m, 3)
        assert elementary_divisors(blk) == elementary_divisors(m)
        probes = [{0: 1}, {i: i - 2 for i in range(0, blk.nrows, 2)}, *blk.columns()]
        for f in (QF, FieldSpec.prime(3)):
            assert kernel_basis(blk, f) == kernel_basis(m, f)
            space, plain = ColumnSpace(blk, f), ColumnSpace(m, f)
            assert space.rank == plain.rank
            assert space.members(probes) == plain.members(probes)


def test_kernel_rejects_multiprime():
    with pytest.raises(UnsupportedPolicyError):
        kernel_basis(SparseIntMatrix.from_dense([[1, 1]]), QM)


def test_spans_refuse_multiprime():
    # sampling proves ranks only: spans and memberships refuse it, as kernels do
    m = SparseIntMatrix.from_dense([[1, 1]])
    with pytest.raises(UnsupportedPolicyError):
        VectorSpan(2, QM)
    with pytest.raises(UnsupportedPolicyError):
        ColumnSpace(m, QM)


def test_in_column_space_basics():
    m = SparseIntMatrix.from_dense([[1, 0], [2, 1], [0, 3]])
    first_col = [1, 2, 0]
    for f in (QF, FieldSpec.prime(7)):
        assert ColumnSpace(m, f).contains(first_col)
    zero = SparseIntMatrix(3, 2, [])
    assert not ColumnSpace(zero, QF).contains([1, 0, 0])
    assert ColumnSpace(zero, QF).contains([0, 0, 0])
    with pytest.raises(ValueError):
        ColumnSpace(m, QF).contains([1, 2])


def test_in_column_space_rational_not_integral():
    # b = (1,1) is half the column (2,2): rational membership, not integral
    m = SparseIntMatrix.from_dense([[2], [2]])
    assert ColumnSpace(m, QF).contains([1, 1])


def test_column_space_reuse():
    m = SparseIntMatrix.from_dense([[1, 1], [0, 1], [1, 0]])
    space = ColumnSpace(m, QF)
    assert space.rank == 2
    assert space.contains([1, 1, 0])
    assert space.contains([2, 1, 1])
    assert not space.contains([0, 0, 1])


def test_vector_span_matches_fraction_free_rank():
    rng = random.Random(21)
    for _ in range(20):
        m = _random_pm1(rng, rng.randint(1, 8), rng.randint(1, 8))
        span = VectorSpan(m.ncols, QF)
        for row in m.to_dense():
            span.extend([_sparse(row)])
        assert span.rank == _rank_fraction_oracle(m)


def test_elementary_divisor_examples():
    assert elementary_divisors(SparseIntMatrix.from_dense([[2]])) == [2]
    assert elementary_divisors(SparseIntMatrix.from_dense([[1, 1], [1, -1]])) == [1, 2]
    assert elementary_divisors(SparseIntMatrix(4, 4, [])) == []


def test_elementary_divisor_guard():
    big = SparseIntMatrix(600, 600, [])
    with pytest.raises(SizeGuardError):
        elementary_divisors(big)


def test_elementary_divisors_vs_mod_p_ranks():
    rng = random.Random(31)
    for _ in range(15):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        trips = [
            (i, j, rng.randint(-4, 4))
            for i in range(nr)
            for j in range(nc)
            if rng.random() < 0.6
        ]
        m = SparseIntMatrix.from_triplets(nr, nc, trips)
        divs = elementary_divisors(m)
        for p in (2, 3, 5, 7, 11, 13):
            expected = sum(1 for d in divs if d % p)
            assert rank_mod_p(m, p) == expected


def test_divisor_chain_divides():
    rng = random.Random(41)
    for _ in range(10):
        m = _random_pm1(rng, rng.randint(2, 6), rng.randint(2, 6))
        divs = elementary_divisors(m)
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0


def _det(rows):
    """Leibniz determinant of a small square integer matrix."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(row[j] for row, j in zip(rows, perm))
    return total


def _divisors_from_minors(A):
    """Independent Smith form: D_k is the gcd of the k x k minors and
    d_k = D_k / D_(k-1), up to the rank, where D_k first vanishes."""
    nr, nc = len(A), len(A[0])
    out, prev = [], 1
    for k in range(1, min(nr, nc) + 1):
        dk = math.gcd(*(
            _det([[A[i][j] for j in cols] for i in rows])
            for rows in itertools.combinations(range(nr), k)
            for cols in itertools.combinations(range(nc), k)
        ))
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return out


def test_elementary_divisors_equal_the_minor_gcd_quotients():
    rng = random.Random(53)
    for trial in range(300):
        nr, nc = rng.randint(1, 4), rng.randint(1, 5)
        if trial % 3:
            A = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        else:  # a product through a narrower middle is rank-deficient
            k = rng.randint(1, max(1, min(nr, nc) - 1))
            B = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(nr)]
            C = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(k)]
            A = [[sum(B[i][h] * C[h][j] for h in range(k)) for j in range(nc)]
                 for i in range(nr)]
        divs = elementary_divisors(SparseIntMatrix.from_dense(A))
        assert divs == _divisors_from_minors(A), A
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0


def test_char3_jump_block_facts():
    # the homology jump at n=7, c=2, multidegree (1,...,1) lives in the
    # third differential: one elementary divisor equals 3, and no divisor
    # has a prime factor above c+1
    p = RingParams(7, 2)
    alpha = (1,) * 7
    m2 = differential_block(p, 2, alpha)
    assert rank_fraction_free(m2) == rank_mod_p(m2, 3) == 20
    m3 = differential_block(p, 3, alpha)
    rq, r3 = rank_fraction_free(m3), rank_mod_p(m3, 3)
    assert rq == 85 and r3 == 84
    divs = elementary_divisors(m3)
    assert divs.count(3) == 1
    assert all(d in (1, 2, 3, 6) for d in divs)  # no prime factor > c+1 = 3


def test_exact_elimination_guard(monkeypatch):
    m = SparseIntMatrix.from_dense([[3, 1], [1, 3]])
    monkeypatch.setattr(exactla, "EXACT_PIVOT_BIT_GUARD", 1)
    with pytest.raises(ExactEliminationError):
        rank_fraction_free(m)


def test_exact_guard_covers_every_rational_path(monkeypatch):
    # kernels and column spaces over Q share the rank's guarded echelon form
    m = SparseIntMatrix.from_dense([[1, 1]])
    monkeypatch.setattr(exactla, "EXACT_PIVOT_BIT_GUARD", 0)
    with pytest.raises(ExactEliminationError):
        kernel_basis(m, QF)
    with pytest.raises(ExactEliminationError):
        ColumnSpace(m, QF)
    assert len(kernel_basis(m, FieldSpec.prime(5))) == 1  # F_p is unguarded


def test_bareiss_on_general_integers():
    rng = random.Random(57)
    for _ in range(25):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        trips = [
            (i, j, rng.randint(-9, 9))
            for i in range(nr)
            for j in range(nc)
            if rng.random() < 0.7
        ]
        m = SparseIntMatrix.from_triplets(nr, nc, trips)
        assert rank_fraction_free(m) == _rank_fraction_oracle(m)


def test_from_triplets_merges_and_drops_zeros():
    m = SparseIntMatrix.from_triplets(2, 2, [(0, 0, 1), (0, 0, -1), (1, 1, 2), (1, 1, 3)])
    assert m.entries == [(1, 1, 5)]
    with pytest.raises(ValueError):
        SparseIntMatrix.from_triplets(2, 2, [(2, 0, 1)])


def test_fraction_free_agrees_with_multiprime_on_all_run_blocks():
    # every differential block of the full n=3, c=3 table: the certified
    # integer elimination and the 3-prime maximum must coincide
    from koszul.combinatorics import partitions_into
    from koszul.complex import differential_block

    p = RingParams(3, 3)
    checked = 0
    for d in range(0, 28):
        for rep in partitions_into(d, 3):
            for t in range(1, 10):
                m = differential_block(p, t, rep)
                if m.ncols == 0 or m.nrows == 0:
                    continue
                exact = rank_fraction_free(m)
                per_prime = {}
                best = exactla.sampled_rank(
                    QM, lambda p: per_prime.setdefault(p, [rank_mod_p(m, p)])
                )
                # agreed at once: no prime past the initial set was drawn
                assert len(per_prime) == QM.num_primes and best == [exact], (t, rep, per_prime)
                checked += 1
    assert checked > 3000


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec.prime(9)
    with pytest.raises(ValueError):
        FieldSpec.rational(policy="nonsense")
    assert FieldSpec.prime(3).characteristic == 3
    assert QF.characteristic == 0
    assert QF.certified and not QM.certified


ORACLE_PRIMES = (2, 3, 5, 32003, multiprime_primes(0, 1)[0])


def _oracle_cases(rng):
    """Random integer matrices, including empty, single-row, single-column
    and rank-deficient shapes."""
    shapes = [(0, 0), (0, 3), (3, 0), (1, 5), (5, 1), (1, 1)]
    shapes += [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(12)]
    for nr, nc in shapes:
        trips = [
            (i, j, rng.randint(-6, 6))
            for i in range(nr)
            for j in range(nc)
            if rng.random() < 0.6
        ]
        yield SparseIntMatrix.from_triplets(nr, nc, trips)
    # rank deficient: the last rows repeat sums of the first ones
    for nr, nc, k in ((6, 5, 2), (4, 7, 1), (7, 7, 3)):
        base = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(k)]
        rows = base + [
            [sum(rng.randint(-2, 2) * b[j] for b in base) for j in range(nc)]
            for _ in range(nr - k)
        ]
        yield SparseIntMatrix.from_dense(rows, nc)


def test_mod_p_routine_matches_plain_elimination():
    rng = random.Random(71)
    for m in _oracle_cases(rng):
        dense = m.to_dense()
        for p in ORACLE_PRIMES:
            f = FieldSpec.prime(p)
            r = _rank_mod_p_oracle(dense, p)
            assert rank_mod_p(m, p) == r, (dense, p)
            kern = kernel_basis(m, f)
            assert len(kern) == m.ncols - r
            for v in kern:
                assert all(0 <= x < p for x in v.values())
                v = _dense(v, m.ncols)
                for row in dense:
                    assert sum(a * b for a, b in zip(row, v)) % p == 0
            # b is in the column space iff appending it keeps the rank
            cols = [_dense(col, m.nrows) for col in m.columns()]
            space = ColumnSpace(m, f)
            assert space.rank == r
            probes = [[rng.randint(-4, 4) for _ in range(m.nrows)] for _ in range(3)]
            if cols:
                probes.append([sum(x) for x in zip(*cols[: 1 + m.ncols // 2])])
            for b in probes:
                grown = _rank_mod_p_oracle([c + [x] for c, x in zip(dense, b)], p)
                assert space.contains(b) == (grown == r), (dense, b, p)


@pytest.mark.parametrize(
    "f",
    [FieldSpec.prime(p) for p in ORACLE_PRIMES] + [FieldSpec.prime(2_147_483_647), QF],
    ids=FieldSpec.describe,
)
def test_members_match_contains_and_rank_growth(f):
    # b is in the column space iff appending it keeps the rank; over the
    # rationals the probes also carry entries past int64, which scale a
    # member but never make a non-member
    rng = random.Random(83)
    big = 1 << 70
    for m in _oracle_cases(rng):
        space = ColumnSpace(m, f)
        dense = m.to_dense()
        cols = [_dense(col, m.nrows) for col in m.columns()]
        probes = [[0] * m.nrows]
        probes += [[rng.randint(-4, 4) for _ in range(m.nrows)] for _ in range(4)]
        if f.kind == "prime":
            probes.append([rng.randrange(f.p) for _ in range(m.nrows)])
        if cols:
            probes.append([sum(x) for x in zip(*cols[: 1 + m.ncols // 2])])
            probes.append([big * x for x in cols[-1]])
            probes.append([big * x + y for x, y in zip(cols[0], probes[1])])
        if f.kind == "prime":
            rank_of = lambda rows: _rank_mod_p_oracle(rows, f.p)  # noqa: E731
        else:
            rank_of = lambda rows: _rank_fraction_oracle(SparseIntMatrix.from_dense(rows, m.ncols + 1))  # noqa: E731
        r = rank_of([row + [0] for row in dense])
        expected = [rank_of([row + [x] for row, x in zip(dense, b)]) == r for b in probes]
        assert space.members(_sparse(b) for b in probes) == expected, (dense, f)
        assert [space.contains(b) for b in probes] == expected
        # a zero value stored in a sparse vector changes nothing
        assert space.members([{i: 0 for i in range(m.nrows)}] * 2) == [True, True]
        assert space.members([]) == []


@pytest.mark.parametrize("f", [FieldSpec.prime(3), FieldSpec.prime(2_147_483_647), QF], ids=FieldSpec.describe)
def test_members_of_an_empty_span_are_zero_vectors(f):
    span = VectorSpan(4, f)
    assert span.members([]) == []
    assert span.members([{}, {2: 0}, {0: 1}, {3: -5}]) == [True, True, False, False]
    assert VectorSpan(0, f).members([{}]) == [True]


def test_members_batches_agree_with_one_at_a_time(monkeypatch):
    # batches of one vector, of a few, and the whole list give one answer;
    # 2^31 - 1 makes every term of a batched sum reach 2^62
    rng = random.Random(89)
    p = 2_147_483_647
    rows = [[rng.randrange(p) for _ in range(30)] for _ in range(22)]
    span = VectorSpan(30, FieldSpec.prime(p))
    span.extend([_sparse(r) for r in rows])
    probes = [_sparse([rng.randrange(p) if rng.random() < 0.3 else 0 for _ in range(30)]) for _ in range(40)]
    for _ in range(40):
        coeffs = [rng.randrange(p) for _ in range(5)]
        probes.append(_sparse([sum(k * r[j] for k, r in zip(coeffs, rows)) for j in range(30)]))
    rng.shuffle(probes)
    expected = [_reduces_to_zero(_dense_rows(span), _dense(v, 30), p) for v in probes]
    assert sum(expected) == 40
    for cells in (1, 50, 1 << 20):
        monkeypatch.setattr(exactla, "MEMBER_BATCH_CELLS", cells)
        assert span.members(iter(probes)) == expected


def test_vector_span_add_matches_extend():
    rng = random.Random(73)
    for m in _oracle_cases(rng):
        # at 2^31 - 1, rank * (p-1)^2 passes 2^63 from rank 2 on
        for f in [FieldSpec.prime(p) for p in ORACLE_PRIMES + (2_147_483_647,)] + [QF]:
            one, batch = VectorSpan(m.ncols, f), VectorSpan(m.ncols, f)
            rows = m.to_dense()
            for row in rows:
                one.extend([_sparse(row)])
            batch.extend([_sparse(row) for row in rows])
            assert one.rank == batch.rank
            for _ in range(4):
                b = [rng.randint(-3, 3) for _ in range(m.ncols)]
                assert one.contains(b) == batch.contains(b)
            for row in rows:
                assert one.contains(row) and batch.contains(row)


# SHA-256 of the kernel bases and the echelon rows of the column span of
# every raw differential block of these rings up to these degrees (3,169
# blocks), over the rationals (fraction-free), F_3 and F_32003; recorded
# before the rational rows became sparse and F_p membership one product.
PINNED_LA_RINGS = [(3, 2, 8), (4, 2, 8), (3, 3, 12)]
PINNED_LA_DIGEST = "aa2e8ffd9464e7e39a20a85b15f20d18feab22ea6819f1b7ca85ce0d93dcec71"


def test_exact_linear_algebra_output_is_pinned():
    from hashlib import sha256

    from koszul.combinatorics import compositions

    digest = sha256()
    for n, c, top in PINNED_LA_RINGS:
        params = RingParams(n, c)
        for d in range(top + 1):
            for alpha in compositions(n, d):
                for t in range(1, d // c + 1):
                    m = differential_block(params, t, alpha)
                    for f in (QF, FieldSpec.prime(3), FieldSpec.prime(32003)):
                        span = VectorSpan(m.nrows, f)
                        span.extend(m.columns())
                        kern = [_dense(v, m.ncols) for v in kernel_basis(m, f)]
                        digest.update(repr((alpha, t, f.describe(), kern, _dense_rows(span))).encode())
    assert digest.hexdigest() == PINNED_LA_DIGEST


def _reduces_to_zero(rows, vec, p):
    """Sequential reduction of vec against echelon rows with unit pivots, mod p."""
    v = [x % p for x in vec]
    for piv, row in rows:
        if v[piv]:
            f = v[piv]
            v = [(x - f * y) % p for x, y in zip(v, row)]
    return not any(v)


@pytest.mark.parametrize("p", [3, 2_147_483_647])
def test_prime_membership_matches_sequential_reduction(p):
    # 2^31 - 1 is the largest prime a FieldSpec admits: products of two
    # residues reach 2^62, so a membership test that sums them over many
    # pivots must not overflow int64
    rng = random.Random(p)
    for length, nvecs in ((1, 1), (6, 3), (40, 25), (120, 100), (90, 120)):
        rows = [[rng.randrange(-p, p) for _ in range(length)] for _ in range(nvecs)]
        span = VectorSpan(length, FieldSpec.prime(p))
        span.extend([_sparse(r) for r in rows])
        echelon = _dense_rows(span)
        probes = [[rng.randrange(p) for _ in range(length)] for _ in range(6)]
        for _ in range(6):
            coeffs = [rng.randrange(p) for _ in rows]
            probes.append([sum(k * r[j] for k, r in zip(coeffs, rows)) for j in range(length)])
        probes.append([p - 1] * length)
        for vec in probes:
            assert span.contains(vec) == _reduces_to_zero(echelon, vec, p)
        for vec in probes[6:12]:
            assert span.contains(vec)
        # entries past int64 are reduced mod p first
        for vec in probes[5:7]:
            assert span.contains([x + (p << 70) for x in vec]) == span.contains(vec)


def test_rational_membership_of_a_vector_at_index_zero():
    # the only nonzero entry sits at index 0: a sparse reduced vector is the
    # dict {0: 1}, whose keys are all falsy
    span = VectorSpan(3, QF)
    span.extend([{1: 1, 2: 1}, {2: 2}])
    assert not span.contains([1, 0, 0])
    assert not span.contains([5, 0, 0])
    assert span.contains([0, 3, -1])
    assert not span.contains([1, 1, 1])
    assert ColumnSpace(SparseIntMatrix.from_dense([[0], [1]]), QF).contains([0, 7])
    assert not ColumnSpace(SparseIntMatrix.from_dense([[0], [1]]), QF).contains([7, 0])


def _fraction_free_rows_oracle(vecs, length):
    """Echelon rows of the fraction-free span, from Fractions: each inserted
    vector leaves the one vector of v + span zero at every earlier pivot, up
    to scale, stored primitive with a positive pivot."""
    import math

    basis = {}  # pivot -> Fraction row with a unit pivot
    rows = {}
    for vec in vecs:
        v = [Fraction(x) for x in vec]
        for piv in sorted(basis):
            if v[piv]:
                f = v[piv]
                v = [x - f * y for x, y in zip(v, basis[piv])]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            continue
        basis[piv] = [x / v[piv] for x in v]
        scale = math.lcm(*(x.denominator for x in v))
        ints = [int(x * scale) for x in v]
        g = math.gcd(*ints) * (1 if ints[piv] > 0 else -1)
        rows[piv] = [x // g for x in ints]
    return sorted(rows.items())


def test_fraction_free_rows_match_a_fraction_oracle():
    # general integer entries make non-unit pivots, so the cross-multiplied
    # reduction and its gcd normalisation run; the raw blocks pinned above
    # almost never need them
    rng = random.Random(79)
    for m in _oracle_cases(rng):
        span = VectorSpan(m.ncols, QF)
        rows = m.to_dense()
        span.extend([_sparse(row) for row in rows])
        assert _dense_rows(span) == _fraction_free_rows_oracle(rows, m.ncols)
    for nr, nc in ((12, 9), (9, 12), (20, 20)):
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        span = VectorSpan(nc, QF)
        span.extend([_sparse(row) for row in rows])
        assert _dense_rows(span) == _fraction_free_rows_oracle(rows, nc)
