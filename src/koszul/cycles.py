"""Explicit integer chains in the complex: two-term degree-(c+1) generators
of Z_1 (and the list of those dividing a multidegree, which the Z_t
generator profiles of koszul.homology share), the alternating-sum cycles
built from factorizations u = b*a, wedge products, differentials,
boundary-membership tests, and the sampling verifier for the inclusion
(c+1)! * m^(c-1) * Z_1^c inside the boundaries.  Monomials are ranked,
listed and sampled through combinatorics.monomial_table.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Sequence

from . import exactla
from .combinatorics import (
    ExponentVec,
    RingParams,
    divides,
    monomial_table,
    unit_vector,
    vec_add,
    vec_sub,
)
from .complex import KoszulBasisElement, differential_block, sort_gens
from .exactla import ColumnSpace, FieldSpec, SizeGuardError, SparseIntMatrix

# The alternating-sum constructor iterates over (t+1)! permutations.
SPECIAL_CYCLE_T_GUARD = 6


@dataclass
class CycleElement:
    """Integer-coefficient chain of homological degree t, stored on the
    monomial basis.  Immutable by convention; all operations return fresh
    elements."""

    params: RingParams
    t: int
    terms: dict[KoszulBasisElement, int]

    def is_zero(self) -> bool:
        return not self.terms

    def components(self) -> dict[ExponentVec, "CycleElement"]:
        """Split into multihomogeneous parts, keyed by multidegree."""
        split: dict[ExponentVec, dict[KoszulBasisElement, int]] = {}
        for elem, coeff in self.terms.items():
            split.setdefault(elem.multidegree(self.params), {})[elem] = coeff
        return {
            alpha: CycleElement(self.params, self.t, part)
            for alpha, part in sorted(split.items())
        }

    def internal_degrees(self) -> set[int]:
        return {e.internal_degree(self.params) for e in self.terms}

    def __neg__(self) -> "CycleElement":
        return integer_scale(self, -1)

    def __add__(self, other: "CycleElement") -> "CycleElement":
        return add(self, other)

    def __sub__(self, other: "CycleElement") -> "CycleElement":
        return add(self, integer_scale(other, -1))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycleElement)
            and self.params == other.params
            and self.t == other.t
            and self.terms == other.terms
        )


def _collect(
    params: RingParams,
    t: int,
    items: Iterable[tuple[ExponentVec, Sequence[int], int]],
) -> CycleElement:
    """Normalize (coefficient vector, raw bracket ranks, coefficient) terms:
    sort brackets with sign, merge, drop zeros."""
    terms: dict[KoszulBasisElement, int] = {}
    for coeff_vec, gens_raw, coefficient in items:
        if coefficient == 0:
            continue
        gens, sign = sort_gens(gens_raw)
        if sign == 0:
            continue
        elem = KoszulBasisElement(tuple(coeff_vec), gens)
        value = terms.get(elem, 0) + sign * coefficient
        if value:
            terms[elem] = value
        else:
            terms.pop(elem, None)
    return CycleElement(params, t, terms)


def zero_element(params: RingParams, t: int) -> CycleElement:
    return CycleElement(params, t, {})


def unit_element(params: RingParams) -> CycleElement:
    """The empty bracket with coefficient 1, the unit of the wedge algebra."""
    one = KoszulBasisElement((0,) * params.n, ())
    return CycleElement(params, 0, {one: 1})


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
        u_j = rank[vec_add(b, unit_vector(params.n, j))]
        u_i = rank[vec_add(b, unit_vector(params.n, i))]
    except KeyError:
        raise ValueError(f"{b} is not a monomial in {params.n} variables") from None
    return _collect(
        params,
        1,
        [
            (unit_vector(params.n, i), (u_j,), 1),
            (unit_vector(params.n, j), (u_i,), -1),
        ],
    )


def z1_generators_dividing(
    params: RingParams, alpha: ExponentVec
) -> list[tuple[ExponentVec, tuple[int, int], ExponentVec]]:
    """(b, (i, j), multidegree) of every two-term Z_1 generator
    z1_generator(params, b, i, j) whose multidegree divides alpha, in rank
    order of b and then i < j."""
    n = params.n
    out = []
    for b in monomial_table(n, params.c - 1)[0]:
        for i in range(n):
            for j in range(i + 1, n):
                degree = vec_add(b, vec_add(unit_vector(n, i), unit_vector(n, j)))
                if divides(degree, alpha):
                    out.append((b, (i, j), degree))
    return out


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


def _parity(perm: Sequence[int]) -> int:
    inversions = sum(
        1
        for x in range(len(perm))
        for y in range(x + 1, len(perm))
        if perm[x] > perm[y]
    )
    return -1 if inversions % 2 else 1


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
        sign = _parity(perm)
        gens_raw = tuple(rank[vec_add(spec.b[k], spec.a[perm[k]])] for k in range(t))
        items.append((spec.a[perm[t]], gens_raw, sign))
    return _collect(params, t, items)


def add(z: CycleElement, w: CycleElement) -> CycleElement:
    if z.params != w.params:
        raise ValueError("mixed ring parameters")
    if z.t != w.t:
        raise ValueError(f"mixed homological degrees {z.t} and {w.t}")
    terms = dict(z.terms)
    for elem, coeff in w.terms.items():
        value = terms.get(elem, 0) + coeff
        if value:
            terms[elem] = value
        else:
            terms.pop(elem, None)
    return CycleElement(z.params, z.t, terms)


def integer_scale(z: CycleElement, k: int) -> CycleElement:
    if k == 0:
        return zero_element(z.params, z.t)
    return CycleElement(z.params, z.t, {e: k * v for e, v in z.terms.items()})


def monomial_scale(z: CycleElement, v: ExponentVec) -> CycleElement:
    if any(x < 0 for x in v):
        raise ValueError(f"not a monomial exponent vector: {v}")
    terms = {
        KoszulBasisElement(vec_add(e.coeff, v), e.gens): coeff
        for e, coeff in z.terms.items()
    }
    return CycleElement(z.params, z.t, terms)


def wedge(z: CycleElement, w: CycleElement) -> CycleElement:
    """Exterior product with shuffle signs; repeated bracket entries drop out."""
    if z.params != w.params:
        raise ValueError("mixed ring parameters")
    items = []
    for ez, cz in z.terms.items():
        for ew, cw in w.terms.items():
            items.append((vec_add(ez.coeff, ew.coeff), ez.gens + ew.gens, cz * cw))
    return _collect(z.params, z.t + w.t, items)


def apply_differential(z: CycleElement) -> CycleElement:
    """Boundary of the chain: delete each bracket entry with alternating sign,
    multiplying the deleted monomial into the coefficient."""
    if z.t < 1:
        raise ValueError("the differential needs homological degree t >= 1")
    params = z.params
    monomials = monomial_table(params.n, params.c)[0]
    items = []
    for elem, coeff in z.terms.items():
        sign = 1
        for k in range(z.t):
            u = monomials[elem.gens[k]]
            items.append(
                (vec_add(elem.coeff, u), elem.gens[:k] + elem.gens[k + 1 :], sign * coeff)
            )
            sign = -sign
    return _collect(params, z.t - 1, items)


def is_cycle(z: CycleElement) -> bool:
    if z.t == 0:
        return True
    return apply_differential(z).is_zero()


def is_boundary(
    z: CycleElement,
    field: FieldSpec,
    column_spaces: dict | None = None,
) -> bool:
    """True iff every multihomogeneous component lies in the image of the
    next differential over the field.  Components are tested block by
    block; pass a dict to reuse echelonized blocks (with their row index)
    across many tests."""
    params = z.params
    for alpha, component in z.components().items():
        key = (z.t + 1, alpha, field)
        memo = None if column_spaces is None else column_spaces.get(key)
        if memo is None:
            blk = differential_block(params, z.t + 1, alpha)
            memo = (
                ColumnSpace(SparseIntMatrix(blk.nrows, blk.ncols, blk.entries), field),
                {e.gens: pos for pos, e in enumerate(blk.rows)},
            )
            if column_spaces is not None:
                column_spaces[key] = memo
        space, index = memo
        vec = [0] * len(index)
        for elem, coeff in component.terms.items():
            vec[index[elem.gens]] = coeff
        if not space.contains(vec):
            return False
    return True


def coefficient_space_dim(z: CycleElement) -> int:
    """Dimension of the space spanned by the bracket coefficients of z,
    expanded in the monomial basis."""
    if z.is_zero():
        return 0
    by_gens: dict[tuple[int, ...], dict[ExponentVec, int]] = {}
    monomials: set[ExponentVec] = set()
    for elem, coeff in z.terms.items():
        by_gens.setdefault(elem.gens, {})[elem.coeff] = coeff
        monomials.add(elem.coeff)
    columns = sorted(monomials)
    col_index = {m: i for i, m in enumerate(columns)}
    span = exactla.VectorSpan(len(columns), FieldSpec.rational(policy="fraction_free"))
    for poly in by_gens.values():
        vec = [0] * len(columns)
        for m, coeff in poly.items():
            vec[col_index[m]] = coeff
        span.add(vec)
    return span.rank


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

    A scaled element failing over characteristic 0 or > c+1 is a bug; an
    unscaled element failing is a recorded finding (it shows the factorial
    scaling is doing real work in small characteristic)."""

    params: RingParams
    field: FieldSpec
    factorial: int
    seed: int | None
    exhaustive: bool
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


def _build_product(
    params: RingParams,
    bs: tuple[ExponentVec, ...],
    pairs: tuple[tuple[int, int], ...],
) -> CycleElement:
    z = z1_generator(params, bs[0], *pairs[0])
    for idx in range(1, params.c):
        z = wedge(z, z1_generator(params, bs[idx], *pairs[idx]))
    return monomial_scale(z, bs[params.c])


def _stratum_witnesses(
    params: RingParams, alpha: ExponentVec
) -> list[tuple[tuple[ExponentVec, ...], tuple[tuple[int, int], ...]]]:
    """Every product witness of multidegree alpha, factors unordered."""
    c = params.c
    choices = z1_generators_dividing(params, alpha)
    out = []

    def rec(start: int, residual: ExponentVec, chosen: list) -> None:
        if len(chosen) == c:
            if sum(residual) == c - 1:
                bs = tuple(b for b, _, _ in chosen) + (residual,)
                prs = tuple(p for _, p, _ in chosen)
                out.append((bs, prs))
            return
        if sum(residual) < (c - len(chosen)) * (c + 1):
            return
        for pos in range(start, len(choices)):
            b, pair, degree = choices[pos]
            if divides(degree, residual):
                chosen.append(choices[pos])
                rec(pos, vec_sub(residual, degree), chosen)
                chosen.pop()

    rec(0, tuple(alpha), [])
    return out


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
    is already a boundary; misses there are findings, not failures.
    """
    c, n = params.c, params.n
    fact = math.factorial(c + 1)
    if stratum is not None:
        if len(stratum) != n or min(stratum) < 0:
            got = " ".join(map(str, stratum))
            raise ValueError(f"the stratum must be n={n} nonnegative integers, got {got}")
        combos = _stratum_witnesses(params, tuple(stratum))
    else:
        rng = random.Random(seed)
        monomials = monomial_table(n, c - 1)[0]
        combos = []
        for _ in range(samples):
            bs = tuple(rng.choice(monomials) for _ in range(c + 1))
            prs = tuple(tuple(rng.sample(range(n), 2)) for _ in range(c))
            combos.append((bs, prs))
    spaces: dict = {}
    witnesses = []
    for bs, prs in combos:
        f = _build_product(params, bs, prs)
        if f.is_zero():
            witnesses.append(FactorialWitness(bs, prs, True, True, True))
            continue
        scaled = integer_scale(f, fact)
        witnesses.append(
            FactorialWitness(
                bs,
                prs,
                False,
                is_boundary(scaled, field, spaces),
                is_boundary(f, field, spaces),
            )
        )
    return FactorialReport(
        params, field, fact, None if stratum is not None else seed,
        stratum is not None, witnesses,
    )


# ---------------------------------------------------------------------------
# seeded cycle sampling (shared by the CLI verifier and the test suites)


def _random_z1(rng: random.Random, params: RingParams) -> CycleElement:
    b = rng.choice(monomial_table(params.n, params.c - 1)[0])
    i, j = rng.sample(range(params.n), 2)
    return z1_generator(params, b, i, j)


def sample_nonzero_cycles(
    count: int, seed: int, n_max: int = 4, c_max: int = 3, t_max: int = 3
) -> list[CycleElement]:
    """Seeded stream of nonzero cycles: two-term generators, alternating-sum
    cycles, and wedge products thereof.  Zero normalizations are discarded
    and redrawn."""
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
            for _ in range(rng.randint(2, t_max) - 1):
                z = wedge(z, _random_z1(rng, params))
        else:
            t = rng.randint(1, t_max)
            s = rng.randint(1, c)
            a = tuple(rng.choice(monomial_table(n, s)[0]) for _ in range(t + 1))
            b = tuple(rng.choice(monomial_table(n, c - s)[0]) for _ in range(t))
            z = special_cycle(params, SpecialCycleSpec(s, a, b))
        if not z.is_zero():
            out.append(z)
    return out
