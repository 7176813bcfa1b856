import math
import random
from itertools import combinations, combinations_with_replacement

import pytest

from koszul import cycles
from koszul.combinatorics import RingParams, monomial_table, unit_vector, vec_add
from koszul.complex import block_basis
from koszul.cycles import (
    CycleElement,
    SpecialCycleSpec,
    add,
    apply_differential,
    coefficient_space_dim,
    integer_scale,
    is_boundary,
    is_cycle,
    monomial_scale,
    sample_nonzero_cycles,
    special_cycle,
    unit_element,
    verify_factorial_theorem,
    wedge,
    z1_generator,
)
from koszul.exactla import FieldSpec, SparseIntMatrix, rank_fraction_free

QF = FieldSpec.rational(policy="fraction_free")


def _rank(p, m):
    """Rank of the monomial m among the monomials of its degree."""
    return monomial_table(p.n, sum(m))[1][m]


def _random_chain(rng, params, t, nterms=4):
    """Arbitrary chain (not necessarily a cycle) for algebra identities:
    random brackets of block_basis(params, t, alpha), for the multidegree
    alpha of a random t-subset of the degree-c monomials times a random
    quadric."""
    if params.N < t:
        return CycleElement(params, t, (0,) * params.n, {})
    monomials = monomial_table(params.n, params.c)[0]
    alpha = rng.choice(monomial_table(params.n, 2)[0])
    for r in rng.sample(range(params.N), t):
        alpha = vec_add(alpha, monomials[r])
    basis = block_basis(params, t, alpha)
    terms = {}
    for _ in range(nterms):
        gens = rng.choice(basis)
        terms[gens] = terms.get(gens, 0) + rng.randint(-3, 3)
    return CycleElement(params, t, alpha, {g: c for g, c in terms.items() if c})


def test_z1_generator_form():
    p = RingParams(2, 2)
    b = (1, 0)  # x
    z = z1_generator(p, b, 0, 1)
    xy = _rank(p, (1, 1))
    xx = _rank(p, (2, 0))
    assert z.terms == {(xy,): 1, (xx,): -1}  # x[xy] - y[xx]
    assert z.alpha == (2, 1)
    assert apply_differential(z).is_zero()


def test_z1_generator_antisymmetry_and_errors():
    p = RingParams(3, 2)
    b = (0, 1, 0)
    assert z1_generator(p, b, 1, 0) == integer_scale(z1_generator(p, b, 0, 1), -1)
    with pytest.raises(ValueError):
        z1_generator(p, b, 1, 1)
    # wrong-degree coefficient
    with pytest.raises(ValueError):
        z1_generator(p, (1, 1, 0), 0, 1)
    # right degree, but not a monomial of the ring
    for b in [(1,), (2, -1, 0)]:
        with pytest.raises(ValueError, match="not a monomial"):
            z1_generator(p, b, 0, 2)


def test_special_cycle_six_term_display():
    # n=3, c=2, t=2, s=1 with a_i = X_i and b = (X_1, X_2): five surviving
    # terms, the [X_1X_2, X_1X_2] bracket dies
    p = RingParams(3, 2)
    e1, e2, e3 = (unit_vector(3, k) for k in range(3))
    z = special_cycle(p, SpecialCycleSpec(s=1, a=(e1, e2, e3), b=(e1, e2)))
    r = lambda m: _rank(p, m)
    x1x1, x1x2, x1x3 = r((2, 0, 0)), r((1, 1, 0)), r((1, 0, 1))
    x2x2, x2x3 = r((0, 2, 0)), r((0, 1, 1))
    assert z.alpha == (2, 2, 1)  # so X_3[X_1X_1, X_2X_2] and so on
    assert z.terms == {
        (x1x1, x2x2): 1,
        (x1x1, x2x3): -1,
        (x1x2, x2x3): 1,
        (x1x2, x1x3): -1,  # displayed +X_2[X_1X_3, X_1X_2]
        (x1x3, x2x2): -1,
    }
    assert is_cycle(z)
    assert coefficient_space_dim(z) == 3


def test_special_cycle_can_vanish():
    p = RingParams(2, 2)
    x, y = (1, 0), (0, 1)
    z = special_cycle(p, SpecialCycleSpec(s=1, a=(x, x), b=(y,)))
    assert z.is_zero()


def test_special_cycle_s_equals_c_is_scaled_boundary():
    p = RingParams(3, 2)
    a = ((2, 0, 0), (1, 1, 0), (0, 1, 1))
    z = special_cycle(p, SpecialCycleSpec(s=2, a=a, b=((0, 0, 0), (0, 0, 0))))
    bracket = CycleElement(p, 3, (3, 2, 1), {tuple(sorted(_rank(p, m) for m in a)): 1})
    assert z == integer_scale(apply_differential(bracket), math.factorial(2))


def test_special_cycle_t1_s1_is_a_z1_generator():
    p = RingParams(3, 3)
    b = (1, 1, 0)
    z = special_cycle(p, SpecialCycleSpec(s=1, a=(unit_vector(3, 2), unit_vector(3, 0)), b=(b,)))
    assert z == z1_generator(p, b, 0, 2)


def test_special_cycle_validation():
    p = RingParams(2, 2)
    with pytest.raises(ValueError):
        special_cycle(p, SpecialCycleSpec(s=3, a=((3, 0), (0, 3)), b=((1, 0),)))
    with pytest.raises(ValueError):
        special_cycle(p, SpecialCycleSpec(s=1, a=((1, 0),), b=()))
    # right degrees, but not monomials: a negative exponent, a wrong length
    p32 = RingParams(3, 2)
    with pytest.raises(ValueError, match="not a monomial"):
        special_cycle(
            p32, SpecialCycleSpec(s=1, a=((2, -1, 0), (1, 0, 0), (0, 1, 0)),
                                  b=((1, 0, 0), (0, 0, 1)))
        )
    with pytest.raises(ValueError, match="not a monomial"):
        special_cycle(p32, SpecialCycleSpec(s=1, a=((1, 0, 0), (0, 1, 0)), b=((1, 0),)))


def test_random_special_cycles_are_cycles():
    rng = random.Random(17)
    for _ in range(40):
        n, c = rng.randint(2, 4), rng.randint(1, 3)
        p = RingParams(n, c)
        t = rng.randint(1, 3)
        s = rng.randint(1, c)
        a = tuple(rng.choice(monomial_table(n, s)[0]) for _ in range(t + 1))
        b = tuple(rng.choice(monomial_table(n, c - s)[0]) for _ in range(t))
        z = special_cycle(p, SpecialCycleSpec(s=s, a=a, b=b))
        assert is_cycle(z)
        if not z.is_zero():
            assert coefficient_space_dim(z) >= t + 1


def test_wedge_unit_identity():
    p = RingParams(3, 2)
    z = z1_generator(p, (0, 1, 0), 0, 2)
    assert wedge(unit_element(p), z) == z
    assert wedge(z, unit_element(p)) == z


def test_wedge_graded_commutativity():
    rng = random.Random(23)
    for _ in range(20):
        p = RingParams(rng.randint(2, 3), rng.randint(1, 2))
        tz, tw = rng.randint(1, 2), rng.randint(1, 2)
        z, w = _random_chain(rng, p, tz), _random_chain(rng, p, tw)
        lhs = wedge(z, w)
        rhs = integer_scale(wedge(w, z), (-1) ** (tz * tw))
        assert lhs == rhs


def test_wedge_leibniz():
    rng = random.Random(29)
    for _ in range(20):
        p = RingParams(rng.randint(2, 3), rng.randint(1, 2))
        tz, tw = rng.randint(1, 2), rng.randint(1, 2)
        z, w = _random_chain(rng, p, tz), _random_chain(rng, p, tw)
        lhs = apply_differential(wedge(z, w))
        rhs = add(
            wedge(apply_differential(z), w),
            integer_scale(wedge(z, apply_differential(w)), (-1) ** tz),
        )
        assert lhs == rhs


def test_differential_hand_expansion():
    # d[u1,u2,u3] = u1[u2,u3] - u2[u1,u3] + u3[u1,u2] at n=2, c=2
    p = RingParams(2, 2)
    u = [(2, 0), (1, 1), (0, 2)]
    ranks = tuple(_rank(p, m) for m in u)
    z = CycleElement(p, 3, (3, 3), {ranks: 1})
    out = apply_differential(z)
    assert out.alpha == (3, 3)  # the coefficients u_1, u_2, u_3 follow from it
    assert out.terms == {ranks[1:]: 1, (ranks[0], ranks[2]): -1, ranks[:2]: 1}
    assert apply_differential(out).is_zero()


def test_differential_needs_positive_degree():
    p = RingParams(2, 2)
    with pytest.raises(ValueError):
        apply_differential(unit_element(p))


def test_scaling_operations():
    p = RingParams(3, 2)
    z = z1_generator(p, (0, 0, 1), 0, 1)
    assert integer_scale(z, 0).is_zero()
    assert monomial_scale(z, (0, 0, 0)) == z
    scaled = monomial_scale(z, unit_vector(3, 0))
    assert scaled.alpha == (2, 1, 1) and scaled.terms == z.terms
    with pytest.raises(ValueError):
        add(z, wedge(z, z1_generator(p, (1, 0, 0), 1, 2)))


def test_add_refuses_two_multidegrees():
    # a chain lives in one multidegree: x z and y z have the same brackets
    # but different coefficients, so their sum is no chain of this kind
    p = RingParams(3, 2)
    z = z1_generator(p, (0, 0, 1), 0, 1)
    assert add(z, z) == integer_scale(z, 2)
    with pytest.raises(ValueError, match="multidegrees"):
        add(monomial_scale(z, unit_vector(3, 0)), monomial_scale(z, unit_vector(3, 1)))


def test_wedge_of_many_factors_is_the_iterated_wedge():
    rng = random.Random(31)
    p = RingParams(4, 2)
    for _ in range(10):
        zs = [_random_chain(rng, p, 1, nterms=3) for _ in range(3)]
        assert wedge(*zs) == wedge(wedge(zs[0], zs[1]), zs[2])


def test_boundaries_are_boundaries():
    rng = random.Random(37)
    for _ in range(10):
        p = RingParams(rng.randint(2, 3), rng.randint(1, 2))
        w = _random_chain(rng, p, rng.randint(2, 3))
        boundary = apply_differential(w)
        for f in (QF, FieldSpec.prime(5), FieldSpec.prime(2)):
            assert is_boundary(boundary, f)


def test_nonzero_z1_generator_is_not_a_boundary():
    p = RingParams(2, 2)
    z = z1_generator(p, (1, 0), 0, 1)
    assert not is_boundary(z, QF)


def test_coefficient_space_dims():
    p = RingParams(2, 2)
    assert coefficient_space_dim(CycleElement(p, 1, (2, 1), {})) == 0
    assert coefficient_space_dim(z1_generator(p, (1, 0), 0, 1)) == 2


def _coefficient_rank(z):
    """The fraction-free rank of the bracket coefficients of z, each
    expanded in the monomial basis: one row per bracket."""
    monomials = monomial_table(z.params.n, z.params.c)[0]
    rows = {}
    for gens, v in z.terms.items():
        coeff = z.alpha
        for r in gens:
            coeff = tuple(a - x for a, x in zip(coeff, monomials[r]))
        assert min(coeff) >= 0
        rows.setdefault(gens, {})[coeff] = v
    columns = sorted({m for row in rows.values() for m in row})
    dense = [[row.get(m, 0) for m in columns] for row in rows.values()]
    return rank_fraction_free(SparseIntMatrix.from_dense(dense, len(columns)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coefficient_space_dim_matches_the_rank_of_the_coefficients(seed):
    for z in sample_nonzero_cycles(200, seed):
        assert coefficient_space_dim(z) == _coefficient_rank(z)


@pytest.mark.parametrize(
    # (3, 3, 0) at c = 1: only X_1X_2 divides what X_1X_2 leaves, three times
    "n,c,alpha", [(3, 2, (3, 2, 2)), (4, 2, (2, 2, 1, 2)), (3, 3, (4, 3, 3)), (3, 1, (3, 3, 0))]
)
def test_z1_products_match_plain_enumeration(n, c, alpha):
    # the generators and their multidegrees by plain loops, every choice by
    # itertools, kept when the summed multidegree fits alpha
    params = RingParams(n, c)
    gens, degree = [], {}
    for b in monomial_table(n, c - 1)[0]:
        for i in range(n):
            for j in range(i + 1, n):
                gens.append((b, (i, j)))
                degree[b, (i, j)] = tuple(x + (v == i) + (v == j) for v, x in enumerate(b))
    for k in range(4):
        for distinct, choose in ((True, combinations), (False, combinations_with_replacement)):
            expected = []
            for chosen in choose(gens, k):
                residual = alpha
                for g in chosen:
                    residual = tuple(a - x for a, x in zip(residual, degree[g]))
                if min(residual) >= 0:
                    expected.append((chosen, residual))
            assert cycles.z1_products_dividing(params, alpha, k, distinct) == expected


def test_factorial_theorem_small_fields():
    r = verify_factorial_theorem(RingParams(3, 2), 12, 5, QF)
    assert r.ok and not r.findings
    r = verify_factorial_theorem(RingParams(3, 2), 12, 5, FieldSpec.prime(5))
    assert r.ok and not r.findings
    assert r.factorial == 6


def test_factorial_theorem_char3_stratum_findings():
    r = verify_factorial_theorem(
        RingParams(7, 2), 0, 0, FieldSpec.prime(3), stratum=(1,) * 7
    )
    assert r.seed is None  # enumerated, not sampled
    assert r.ok  # 6*f = 0 mod 3 is trivially a boundary
    assert len(r.witnesses) == 630
    assert len(r.findings) == 630  # every unscaled witness escapes the boundaries


def test_factorial_stratum_builds_each_z1_generator_once(monkeypatch):
    # the (1^7) stratum at n=7, c=2 has 105 distinct two-term generators,
    # shared by its 630 witnesses (two factors each)
    built = []
    original = cycles.z1_generator

    def counting(*args):
        built.append(args[1:])
        return original(*args)

    monkeypatch.setattr(cycles, "z1_generator", counting)
    r = verify_factorial_theorem(
        RingParams(7, 2), 0, 0, FieldSpec.prime(3), stratum=(1,) * 7
    )
    assert len(built) == 105
    assert len(r.witnesses) == 630
    assert len(r.findings) == 630
    assert not r.failures


def _witness_flags_one_by_one(params, witnesses, field):
    """(is_zero, scaled flag, unscaled flag) of each witness, one chain and
    two boundary tests at a time: the product is built with wedge and
    monomial_scale, and each membership rebuilds its block.  Blocks are
    memoized by their matrix, which is all a rebuilt block can differ by."""
    fact = math.factorial(params.c + 1)
    spaces = {}
    original = cycles.ColumnSpace

    def shared(m, f):
        key = (m.nrows, m.ncols, tuple(m.entries), f)
        if key not in spaces:
            spaces[key] = original(m, f)
        return spaces[key]

    flags = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycles, "ColumnSpace", shared)
        for w in witnesses:
            z = z1_generator(params, w.b_monomials[0], *w.pairs[0])
            for b, pair in zip(w.b_monomials[1:], w.pairs[1:]):
                z = wedge(z, z1_generator(params, b, *pair))
            f = monomial_scale(z, w.b_monomials[params.c])
            if f.is_zero():
                flags.append((True, True, True))
            else:
                flags.append(
                    (False, is_boundary(integer_scale(f, fact), field), is_boundary(f, field))
                )
    return flags


@pytest.mark.parametrize("field", [FieldSpec.prime(3), FieldSpec.prime(5), QF], ids=FieldSpec.describe)
def test_stratum_flags_match_the_one_by_one_path(field):
    params = RingParams(7, 2)
    r = verify_factorial_theorem(params, 0, 0, field, stratum=(1,) * 7)
    assert len(r.witnesses) == 630
    got = [(w.is_zero, w.scaled_is_boundary, w.unscaled_is_boundary) for w in r.witnesses]
    assert got == _witness_flags_one_by_one(params, r.witnesses, field)


@pytest.mark.parametrize("n,c,samples", [(3, 2, 60), (4, 2, 40), (3, 3, 12)])
@pytest.mark.parametrize("field", [QF, FieldSpec.prime(2), FieldSpec.prime(5)], ids=FieldSpec.describe)
def test_sampled_flags_match_the_one_by_one_path(n, c, samples, field):
    params = RingParams(n, c)
    r = verify_factorial_theorem(params, samples, 7 * n + c, field)
    assert len(r.witnesses) == samples
    got = [(w.is_zero, w.scaled_is_boundary, w.unscaled_is_boundary) for w in r.witnesses]
    assert got == _witness_flags_one_by_one(params, r.witnesses, field)


def test_char3_witness_is_rational_boundary():
    # the same product chain is a boundary over the rationals but not mod 3
    p = RingParams(7, 2)
    z = wedge(
        z1_generator(p, unit_vector(7, 0), 1, 2),
        z1_generator(p, unit_vector(7, 3), 4, 5),
    )
    f = monomial_scale(z, unit_vector(7, 6))
    assert not f.is_zero()
    assert is_boundary(f, QF)
    assert not is_boundary(f, FieldSpec.prime(3))
    assert is_boundary(integer_scale(f, 6), FieldSpec.prime(3))  # 6f = 0 there


def test_sampled_cycles_are_nonzero_cycles():
    batch = sample_nonzero_cycles(30, seed=123)
    assert len(batch) == 30
    for z in batch:
        assert not z.is_zero()
        assert is_cycle(z)
    again = sample_nonzero_cycles(30, seed=123)
    assert [sorted(z.terms.items()) for z in again] == [
        sorted(z.terms.items()) for z in batch
    ]
