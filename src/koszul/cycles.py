"""Explicit integer chains in the complex, each inside one multidegree:
two-term degree-(c+1) generators of Z_1 (with the one walk that lists them
and their products dividing a multidegree, which the Z_t generator profiles
of koszul.homology share), the alternating-sum cycles built from
factorizations u = b*a, wedge products, differentials, boundary-membership
tests, and the verifier for the inclusion (c+1)! * m^(c-1) * Z_1^c inside
the boundaries, with one membership test per product.

A chain is its multidegree alpha and its coefficients at sorted brackets:
inside one multidegree the bracket fixes the monomial coefficient (see
koszul.complex), so the differential only drops bracket entries, a
monomial multiple only shifts alpha, a chain's coordinates in the block of
its multidegree are its terms, and its coefficient span has one dimension
per distinct coefficient monomial.  Monomials are ranked, listed and
sampled through combinatorics.monomial_table.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from itertools import chain, permutations, product
from typing import Iterable, Sequence

from .combinatorics import ExponentVec, RingParams, monomial_table, unit_vector, vec_add
from .complex import differential_block, products_dividing, sort_gens
from .exactla import ColumnSpace, FieldSpec, SizeGuardError

# The alternating-sum constructor iterates over (t+1)! permutations.
SPECIAL_CYCLE_T_GUARD = 6


@dataclass
class CycleElement:
    """Integer chain of homological degree t in multidegree alpha, as
    {sorted bracket: nonzero coefficient}.  Immutable by convention; all
    operations return fresh elements."""

    params: RingParams
    t: int
    alpha: ExponentVec
    terms: dict[tuple[int, ...], int]

    def is_zero(self) -> bool:
        return not self.terms


def _collect(
    params: RingParams, t: int, alpha: ExponentVec, items: Iterable[tuple[Sequence[int], int]]
) -> CycleElement:
    """The chain of (raw bracket ranks, coefficient) terms in multidegree
    alpha: brackets sorted with sign, merged, zeros dropped."""
    terms: dict[tuple[int, ...], int] = {}
    for gens_raw, coefficient in items:
        gens, sign = sort_gens(gens_raw)
        if not sign or not coefficient:
            continue
        value = terms.get(gens, 0) + sign * coefficient
        if value:
            terms[gens] = value
        else:
            del terms[gens]
    return CycleElement(params, t, tuple(alpha), terms)


def unit_element(params: RingParams) -> CycleElement:
    """The empty bracket with coefficient 1, the unit of the wedge algebra."""
    return CycleElement(params, 0, (0,) * params.n, {(): 1})


def z1_generator(params: RingParams, b: ExponentVec, i: int, j: int) -> CycleElement:
    """The two-term cycle X_i[X_j b] - X_j[X_i b] for a degree-(c-1) monomial b."""
    if i == j:
        raise ValueError(f"degenerate generator: variable indices coincide (i=j={i})")
    if not (0 <= i < params.n and 0 <= j < params.n):
        raise ValueError(f"variable indices out of range for n={params.n}")
    if sum(b) != params.c - 1:
        raise ValueError(f"expected a degree-{params.c - 1} monomial, got {b}")
    rank = monomial_table(params.n, params.c)[1]
    try:
        xj_b = vec_add(b, unit_vector(params.n, j))
        u_j, u_i = rank[xj_b], rank[vec_add(b, unit_vector(params.n, i))]
    except KeyError:
        raise ValueError(f"{b} is not a monomial in {params.n} variables") from None
    alpha = vec_add(xj_b, unit_vector(params.n, i))
    return CycleElement(params, 1, alpha, {(u_j,): 1, (u_i,): -1})


def z1_products_dividing(
    params: RingParams, alpha: ExponentVec, k: int, distinct: bool
) -> list[tuple[tuple[tuple[ExponentVec, tuple[int, int]], ...], ExponentVec]]:
    """(generators, residual) for every choice of k two-term Z_1 generators
    (b, (i, j)) of z1_generator(params, b, i, j), listed in rank order of b
    and then i < j and chosen in increasing position, without repetition
    when distinct, whose multidegrees together divide alpha; residual is
    alpha less their sum.  Listed in lexicographic order of the positions,
    by the walk that lists basis brackets (complex.products_dividing),
    whose fit test drops the generators that do not divide alpha."""
    n = params.n
    gens = [
        (b, (i, j)) for b in monomial_table(n, params.c - 1)[0]
        for i in range(n) for j in range(i + 1, n)
    ]
    degrees = [vec_add(b, vec_add(unit_vector(n, i), unit_vector(n, j))) for b, (i, j) in gens]
    return [
        (tuple(gens[pos] for pos in chosen), res)
        for chosen, res in products_dividing(degrees, alpha, k, distinct)
    ]


@dataclass(frozen=True)
class SpecialCycleSpec:
    """Data for the alternating-sum cycle: t+1 monomials a_* of degree s and
    t monomials b_* of degree c-s."""

    s: int
    a: tuple[ExponentVec, ...]
    b: tuple[ExponentVec, ...]

    @property
    def t(self) -> int:
        return len(self.b)

    def validate(self, params: RingParams) -> None:
        if not 1 <= self.s <= params.c:
            raise ValueError(f"need 1 <= s <= c, got s={self.s}")
        if self.t < 1:
            raise ValueError("need t >= 1")
        if len(self.a) != self.t + 1:
            raise ValueError(f"need {self.t + 1} monomials a_*, got {len(self.a)}")
        for name, monomials, degree in (("a", self.a, self.s), ("b", self.b, params.c - self.s)):
            for m in monomials:
                if len(m) != params.n or min(m) < 0:
                    raise ValueError(
                        f"{name}-monomial {m} is not a monomial in {params.n} variables"
                    )
                if sum(m) != degree:
                    raise ValueError(f"{name}-monomial {m} does not have degree {degree}")


def special_cycle(params: RingParams, spec: SpecialCycleSpec) -> CycleElement:
    """Alternating sum over all permutations sigma of {1..t+1} of
    sign(sigma) * a_{sigma(t+1)} [b_1 a_{sigma(1)}, ..., b_t a_{sigma(t)}].

    May normalize to the zero element; that is returned, not raised.
    """
    spec.validate(params)
    t = spec.t
    if t > SPECIAL_CYCLE_T_GUARD:
        raise SizeGuardError(
            f"alternating-sum cycles are guarded to t <= {SPECIAL_CYCLE_T_GUARD}"
        )
    rank = monomial_table(params.n, params.c)[1]
    items = []
    for perm in permutations(range(t + 1)):
        gens_raw = tuple(rank[vec_add(spec.b[k], spec.a[perm[k]])] for k in range(t))
        items.append((gens_raw, sort_gens(perm)[1]))
    # every term has the multidegree sum(a) + sum(b)
    return _collect(params, t, tuple(map(sum, zip(*spec.a, *spec.b))), items)


def add(z: CycleElement, w: CycleElement) -> CycleElement:
    if z.params != w.params:
        raise ValueError("mixed ring parameters")
    if z.t != w.t:
        raise ValueError(f"mixed homological degrees {z.t} and {w.t}")
    if z.alpha != w.alpha:
        raise ValueError(f"mixed multidegrees {z.alpha} and {w.alpha}")
    return _collect(z.params, z.t, z.alpha, chain(z.terms.items(), w.terms.items()))


def integer_scale(z: CycleElement, k: int) -> CycleElement:
    return CycleElement(z.params, z.t, z.alpha, {g: k * v for g, v in z.terms.items()} if k else {})


def monomial_scale(z: CycleElement, v: ExponentVec) -> CycleElement:
    """v * z: the same brackets and coefficients in multidegree alpha + v."""
    if len(v) != z.params.n or any(x < 0 for x in v):
        raise ValueError(f"not a monomial exponent vector: {v}")
    return CycleElement(z.params, z.t, vec_add(z.alpha, v), dict(z.terms))


def wedge(z: CycleElement, *rest: CycleElement) -> CycleElement:
    """Exterior product z ^ rest[0] ^ ... with shuffle signs, in the sum of
    the factors' multidegrees: one term per choice of a term of each
    factor, and repeated bracket entries drop out."""
    alpha, t = z.alpha, z.t
    for w in rest:
        if w.params != z.params:
            raise ValueError("mixed ring parameters")
        alpha, t = vec_add(alpha, w.alpha), t + w.t
    items = []
    for choice in product(z.terms.items(), *(w.terms.items() for w in rest)):
        raw: list[int] = []
        coeff = 1
        for gens, v in choice:
            raw += gens
            coeff *= v
        items.append((raw, coeff))
    return _collect(z.params, t, alpha, items)


def apply_differential(z: CycleElement) -> CycleElement:
    """Boundary of the chain: delete each bracket entry with alternating
    sign; the deleted monomial moves into the coefficient, which the
    multidegree already fixes."""
    if z.t < 1:
        raise ValueError("the differential needs homological degree t >= 1")
    items = (
        (gens[:k] + gens[k + 1 :], -v if k % 2 else v)
        for gens, v in z.terms.items()
        for k in range(z.t)
    )
    return _collect(z.params, z.t - 1, z.alpha, items)


def is_cycle(z: CycleElement) -> bool:
    if z.t == 0:
        return True
    return apply_differential(z).is_zero()


def _boundary_members(
    params: RingParams,
    t: int,
    alpha: ExponentVec,
    field: FieldSpec,
    chains: Iterable[dict[tuple[int, ...], int]],
) -> list[bool]:
    """Whether each chain of K_t in multidegree alpha, given by its terms,
    is a boundary over the field: the block of d_{t+1} at alpha, its
    column space, then one batched membership test."""
    blk = differential_block(params, t + 1, alpha)
    index = blk.row_index
    space = ColumnSpace(blk, field)
    del blk  # the chains stream through with only the span and its row index held
    return space.members({index[gens]: v for gens, v in terms.items()} for terms in chains)


def is_boundary(z: CycleElement, field: FieldSpec) -> bool:
    """True iff z lies in the image of the next differential over the field."""
    return _boundary_members(z.params, z.t, z.alpha, field, [z.terms])[0]


def coefficient_space_dim(z: CycleElement) -> int:
    """Dimension of the space spanned by the bracket coefficients of z.
    In one multidegree each coefficient is a multiple of the single
    monomial X^alpha / (product of the bracket), so this is the number of
    distinct bracket products."""
    monomials = monomial_table(z.params.n, z.params.c)[0]
    return len({tuple(map(sum, zip(*(monomials[r] for r in gens)))) for gens in z.terms})


# ---------------------------------------------------------------------------
# sampling verifier for the scaled boundary inclusion


@dataclass
class FactorialWitness:
    b_monomials: tuple[ExponentVec, ...]  # c factors then the outer monomial
    pairs: tuple[tuple[int, int], ...]
    is_zero: bool
    scaled_is_boundary: bool
    unscaled_is_boundary: bool


@dataclass
class FactorialReport:
    """Outcome of testing (c+1)! * b * z_1 ^ ... ^ z_c for boundary membership.

    A scaled element fails only where the field inverts (c+1)!, and is a bug
    there; an unscaled element failing is a recorded finding (in
    characteristic <= c+1, where the scaled one is 0, the scaling does work)."""

    factorial: int
    seed: int | None  # None when a stratum was enumerated
    witnesses: list[FactorialWitness]

    @property
    def failures(self) -> list[FactorialWitness]:
        return [w for w in self.witnesses if not w.scaled_is_boundary]

    @property
    def findings(self) -> list[FactorialWitness]:
        return [
            w
            for w in self.witnesses
            if not w.is_zero and not w.unscaled_is_boundary
        ]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_factorial_theorem(
    params: RingParams,
    samples: int,
    seed: int,
    field: FieldSpec,
    stratum: ExponentVec | None = None,
) -> FactorialReport:
    """Sample products f = b_{c+1} * z_{b_1}(X,X') ^ ... ^ z_{b_c}(X,X') and
    assert (c+1)! * f is a boundary over the field.

    With stratum set, every witness of that multidegree is enumerated
    instead of sampling.  Each witness also records whether the unscaled f
    is already a boundary; misses there are findings, not failures.  Each
    two-term generator is built once per run and shared by its witnesses.
    Witnesses are grouped by multidegree, read off their factors; each
    block with a nonzero product builds one column space, which tests each
    nonzero product f once, in one batch: over a field (c+1)! is zero or a
    unit, so (c+1)! * f is a boundary iff f is or the field kills (c+1)!.
    """
    c, n = params.c, params.n
    fact = math.factorial(c + 1)
    if stratum is not None:
        if len(stratum) != n or min(stratum) < 0:
            got = " ".join(map(str, stratum))
            raise ValueError(f"the stratum must be n={n} nonnegative integers, got {got}")
        degree = c * (c + 1) + c - 1
        if sum(stratum) != degree:
            raise ValueError(
                f"every witness at c={c} has degree {degree} = c(c+1) + c-1, "
                f"but the stratum has degree {sum(stratum)}"
            )
        # every witness, factors unordered: c generators, repeats allowed,
        # and the degree-(c-1) residual as the outer monomial
        combos = [
            (tuple(b for b, _ in chosen) + (residual,), tuple(pair for _, pair in chosen))
            for chosen, residual in z1_products_dividing(params, tuple(stratum), c, distinct=False)
        ]
    else:
        rng = random.Random(seed)
        monomials = monomial_table(n, c - 1)[0]
        combos = [
            (tuple(rng.choice(monomials) for _ in range(c + 1)),
             tuple(tuple(rng.sample(range(n), 2)) for _ in range(c)))
            for _ in range(samples)
        ]
    z1 = functools.cache(lambda b, pair: z1_generator(params, b, *pair))
    blocks: dict[ExponentVec, list[int]] = {}
    for w, (bs, prs) in enumerate(combos):
        # the multidegree of the witness, read off its factors
        alpha = map(sum, zip(bs[c], *(z1(b, pair).alpha for b, pair in zip(bs, prs))))
        blocks.setdefault(tuple(alpha), []).append(w)
    zero, unscaled = [True] * len(combos), [True] * len(combos)
    for alpha, block in blocks.items():

        def products():
            # the terms of b_{c+1} * z_1 ^ ... ^ z_c are those of the wedge
            for w in block:
                bs, prs = combos[w]
                terms = wedge(*(z1(b, pair) for b, pair in zip(bs, prs))).terms
                if terms:
                    zero[w] = False
                    yield terms

        found = products()
        first = next(found, None)
        if first is None:  # every product of the block vanishes: no span to build
            continue
        flags = _boundary_members(params, c, alpha, field, chain([first], found))
        for w, flag in zip([w for w in block if not zero[w]], flags):
            unscaled[w] = flag
    witnesses = [
        FactorialWitness(bs, prs, z, u or not field.inverts(fact), u)
        for (bs, prs), z, u in zip(combos, zero, unscaled)
    ]
    return FactorialReport(fact, None if stratum is not None else seed, witnesses)


# ---------------------------------------------------------------------------
# seeded cycle sampling (shared by the CLI verifier and the test suites)


def _random_z1(rng: random.Random, params: RingParams) -> CycleElement:
    b = rng.choice(monomial_table(params.n, params.c - 1)[0])
    i, j = rng.sample(range(params.n), 2)
    return z1_generator(params, b, i, j)


def sample_nonzero_cycles(
    count: int, seed: int, n_max: int = 4, c_max: int = 3
) -> list[CycleElement]:
    """Seeded stream of nonzero cycles of homological degree at most 3:
    two-term generators, alternating-sum cycles, and wedge products thereof.
    Zero normalizations are discarded and redrawn."""
    rng = random.Random(seed)
    out: list[CycleElement] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count:
            raise RuntimeError("cycle sampling stalled")
        n = rng.randint(2, n_max)
        c = rng.randint(1, c_max)
        params = RingParams(n, c)
        kind = rng.choice(("z1", "special", "wedge"))
        if kind == "z1":
            z = _random_z1(rng, params)
        elif kind == "wedge":
            z = _random_z1(rng, params)
            for _ in range(rng.randint(2, 3) - 1):
                z = wedge(z, _random_z1(rng, params))
        else:
            t = rng.randint(1, 3)
            s = rng.randint(1, c)
            a = tuple(rng.choice(monomial_table(n, s)[0]) for _ in range(t + 1))
            b = tuple(rng.choice(monomial_table(n, c - s)[0]) for _ in range(t))
            z = special_cycle(params, SpecialCycleSpec(s, a, b))
        if not z.is_zero():
            out.append(z)
    return out
