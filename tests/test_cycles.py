import math
import random

import pytest

from koszul.combinatorics import RingParams, monomial_table, unit_vector
from koszul.complex import KoszulBasisElement
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
    zero_element,
)
from koszul.exactla import FieldSpec

QF = FieldSpec.rational(policy="fraction_free")


def _rank(p, m):
    """Rank of the monomial m among the monomials of its degree."""
    return monomial_table(p.n, sum(m))[1][m]


def _random_chain(rng, params, t, nterms=4):
    """Arbitrary chain (not necessarily a cycle) for algebra identities."""
    terms = {}
    N = params.N
    if N < t:
        return zero_element(params, t)
    for _ in range(nterms):
        gens = tuple(sorted(rng.sample(range(N), t)))
        v = rng.choice(monomial_table(params.n, 2)[0])
        elem = KoszulBasisElement(v, gens)
        terms[elem] = terms.get(elem, 0) + rng.randint(-3, 3)
    return CycleElement(params, t, {e: c for e, c in terms.items() if c})


def test_z1_generator_form():
    p = RingParams(2, 2)
    b = (1, 0)  # x
    z = z1_generator(p, b, 0, 1)
    xy = _rank(p, (1, 1))
    xx = _rank(p, (2, 0))
    assert z.terms == {
        KoszulBasisElement((1, 0), (xy,)): 1,
        KoszulBasisElement((0, 1), (xx,)): -1,
    }
    assert apply_differential(z).is_zero()
    assert z.internal_degrees() == {p.c + 1}


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
    assert z.terms == {
        KoszulBasisElement(e3, (x1x1, x2x2)): 1,
        KoszulBasisElement(e2, (x1x1, x2x3)): -1,
        KoszulBasisElement(e1, (x1x2, x2x3)): 1,
        KoszulBasisElement(e2, (x1x2, x1x3)): -1,  # displayed +X_2[X_1X_3, X_1X_2]
        KoszulBasisElement(e1, (x1x3, x2x2)): -1,
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
    bracket = CycleElement(
        p, 3, {KoszulBasisElement((0, 0, 0), tuple(sorted(_rank(p, m) for m in a))): 1}
    )
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
    z = CycleElement(p, 3, {KoszulBasisElement((0, 0), ranks): 1})
    out = apply_differential(z)
    assert out.terms == {
        KoszulBasisElement(u[0], ranks[1:]): 1,
        KoszulBasisElement(u[1], (ranks[0], ranks[2])): -1,
        KoszulBasisElement(u[2], ranks[:2]): 1,
    }
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
    assert scaled.internal_degrees() == {p.c + 2}
    with pytest.raises(ValueError):
        add(z, wedge(z, z1_generator(p, (1, 0, 0), 1, 2)))


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
    assert coefficient_space_dim(zero_element(p, 1)) == 0
    assert coefficient_space_dim(z1_generator(p, (1, 0), 0, 1)) == 2


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
    assert r.exhaustive
    assert r.ok  # 6*f = 0 mod 3 is trivially a boundary
    assert len(r.witnesses) == 630
    assert len(r.findings) == 630  # every unscaled witness escapes the boundaries


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
