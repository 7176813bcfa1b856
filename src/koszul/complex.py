"""Multigraded bases and differential blocks of the Koszul complex K(m^c).

K_t is the free module on brackets [u_1,...,u_t] of distinct degree-c
monomials; a K-basis of its multidegree-alpha slice consists of the
monomial elements v[u_1,...,u_t] with v * u_1 * ... * u_t = X^alpha.
Inside one multidegree the bracket fixes v, so the sorted bracket (the
ranks of u_1 < ... < u_t) is the whole coordinate: block_basis lists the
brackets of a slice, and differential_block indexes its rows and columns
by them.  The differential preserves the multidegree, so it decomposes
into independent blocks, one per alpha.  Blocks are generated on demand
and never assembled into the full graded component.  Bases and chains
(koszul.cycles, through products_dividing) share one divisor walk.

Every walk tests divisibility through fit tables (_Packing): for each
variable x_k and exponent x, the bitmask of the vectors (the degree-c
monomials, by rank) with at most x of x_k.  The vectors that divide a
residual are one AND of one entry per variable, and a walk that adds a
vector to a choice finds the child's fit set from its parent's with one
lookup per variable that vector uses.  Fit sets and faces are bitmasks of
monomial ranks.

The multidegree-alpha strand is the augmented chain complex of a simplicial
complex Delta_alpha, which algebraic Morse theory shrinks to a few critical
cells before any elimination runs (Strand).  Delta_alpha is never
enumerated: most strands are cones and stop after one face count that a
caller may memoize, and any other walks its survivors once.  The Morse
matrices come from the gradient flow (_image), one loop that lists and
sums each boundary once, over one flow memo per level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Iterator, NamedTuple, Sequence

from .combinatorics import ExponentVec, RingParams, monomial_count, monomial_table
from .exactla import SparseIntMatrix


def sort_gens(gens: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort bracket ranks, tracking the permutation sign.

    Returns (sorted_ranks, sign) with sign 0 when a rank repeats, so chain
    constructors may emit bracket entries in any order.
    """
    ranks = list(gens)
    sign = 1
    for i in range(1, len(ranks)):
        j = i
        while j > 0 and ranks[j - 1] > ranks[j]:
            ranks[j - 1], ranks[j] = ranks[j], ranks[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(ranks)):
        if ranks[i - 1] == ranks[i]:
            return tuple(ranks), 0
    return tuple(ranks), sign


def block_basis(params: RingParams, t: int, alpha: ExponentVec) -> list[tuple[int, ...]]:
    """Basis of the multidegree-alpha slice of K_t: the sorted brackets
    (strictly increasing ranks of degree-c monomials) whose product divides
    X^alpha, in lexicographic order.  The monomial coefficient of a bracket
    is X^alpha over that product, so the bracket alone is the coordinate.

    Empty when no element exists (in particular when |alpha| < t*c).  The
    brackets come from one walk (_divisor_walk) over the fit set of the
    degree-c monomials that divide X^alpha (_vertices), as the faces of a
    strand do.
    """
    if t < 0 or any(a < 0 for a in alpha) or sum(alpha) < t * params.c:
        return []
    fits, top, table = _vertices(params, alpha)
    return [chosen for chosen, _ in _divisor_walk(table, fits, top, t, distinct=True)]


def _divisor_walk(
    table: _Packing, fits: int, top: int, k: int, distinct: bool
) -> list[tuple[tuple[int, ...], int]]:
    """(positions, residual) for every choice of k of the positions in fits
    (a bitmask over table's vectors), in increasing order (nondecreasing
    when not distinct), whose vectors together divide top; residual is top
    less their sum.  Listed in lexicographic order of the positions.

    top is packed as in _vertices, with its guard bits set, and each vector
    in fits divides it.  The choices of k - 1 positions come from
    _choices, and the last entry is any position of their fit sets.
    """
    if not k:
        return [((), top)]
    for level in _choices(table, fits, top, k, distinct):
        pass
    packed = table.packed
    return [(chosen + (i,), res - packed[i]) for chosen, res, fits in level for i in _ranks(fits)]


def _choices(
    table: _Packing, fits: int, top: int, k: int, distinct: bool
) -> Iterator[list[tuple[tuple[int, ...], int, int]]]:
    """Yield, for j = 0 .. k-1, the list of (positions, residual, fit set)
    of the choices of j positions that _divisor_walk grows to k, in
    lexicographic order.

    A choice's fit set is the bitmask of the later positions (and its last
    one again, when not distinct) whose vectors still divide its residual:
    its parent's fit set from the added position on, ANDed with one
    fit-table lookup per variable the added vector uses, since no other
    field of the residual changed.  A choice is dropped once its fit set
    holds fewer positions than it still needs.
    """
    packed, uses, field = table.packed, table.uses, table.field
    level = [((), top, fits)]
    yield level
    for left in range(k - 1, 0, -1):
        need = left if distinct else 1
        nxt = []
        for chosen, res, fits in level:
            rest = fits
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                child = res - packed[i]
                later = rest ^ low if distinct else rest
                for shift, fit in uses[i]:
                    later &= fit[child >> shift & field]
                if later.bit_count() >= need:
                    nxt.append((chosen + (i,), child, later))
                rest ^= low
        level = nxt
        yield level


def products_dividing(
    vectors: Sequence[ExponentVec], alpha: ExponentVec, k: int, distinct: bool
) -> list[tuple[tuple[int, ...], ExponentVec]]:
    """(positions, residual) for every choice of k of the exponent vectors,
    in increasing position (nondecreasing when not distinct), whose sum
    divides alpha; residual is alpha less that sum.  Listed in lexicographic
    order of the positions, by the walk that lists basis brackets, over fit
    tables built for these vectors."""
    width = max((*alpha, *(x for v in vectors for x in v)), default=0).bit_length() + 1
    # a residual field never exceeds alpha's
    table = _packing(vectors, len(alpha), width, max(alpha, default=0) + 1)
    top = _pack(alpha, width) | table.guard
    return [
        (chosen, tuple(res >> s & table.field for s in range(0, len(alpha) * width, width)))
        for chosen, res in _divisor_walk(table, _fits(table, alpha), top, k, distinct)
    ]


@dataclass
class DifferentialBlock(SparseIntMatrix):
    """The boundary map K_t -> K_{t-1} restricted to one multidegree: a
    SparseIntMatrix, so every exactla routine takes it as it is.

    Rows and columns are the sorted brackets of block_basis, and row_index
    maps each row bracket to its position.  Every column carries exactly t
    entries, one per deleted bracket factor; the monomial coefficient picked
    up by the deletion is fixed by the multidegree, so entries are +1/-1 only.
    """

    rows: list[tuple[int, ...]]
    cols: list[tuple[int, ...]]
    row_index: dict[tuple[int, ...], int]


def differential_block(params: RingParams, t: int, alpha: ExponentVec) -> DifferentialBlock:
    """Sparse block of the t-th differential in multidegree alpha.

    Sign convention: deleting the k-th bracket entry (k = 1..t) contributes
    (-1)^(k-1), the standard exterior-algebra rule.
    """
    if t < 1:
        raise ValueError(f"differential blocks need t >= 1, got t={t}")
    cols = block_basis(params, t, alpha)
    rows = block_basis(params, t - 1, alpha)
    row_index = {gens: i for i, gens in enumerate(rows)}
    entries: list[tuple[int, int, int]] = []
    for j, gens in enumerate(cols):
        sign = 1
        for k in range(t):
            entries.append((row_index[gens[:k] + gens[k + 1 :]], j, sign))
            sign = -sign
    return DifferentialBlock(len(rows), len(cols), entries, rows, cols, row_index)


def graded_dim(params: RingParams, t: int, d: int) -> int:
    """dim of the internal-degree-d slice of K_t: binomial(N,t) choices of
    bracket times the count of coefficient monomials of degree d - t*c."""
    if t < 0 or d < t * params.c:
        return 0
    return math.comb(params.N, t) * monomial_count(params.n, d - t * params.c)


class _Packing(NamedTuple):
    """Exponent vectors (the degree-c monomials of a ring, in rank order)
    packed at one field width, with their fit tables.

    fit[k][x] is the bitmask of the positions whose exponent of x_k is at
    most x, for every x below the table length, so the vectors that divide
    a residual r are the AND of fit[k][r_k] over k: one lookup per
    variable.  uses[i] pairs (k * width, fit[k]) for each variable x_k the
    i-th vector uses, the only fields that subtracting it changes."""

    width: int
    monomials: tuple[ExponentVec, ...]
    packed: list[int]  # each vector, packed at width
    guard: int  # the guard bit of every field
    field: int  # the mask of the lowest field, its guard bit excluded
    fit: tuple[list[int], ...]
    uses: list[tuple[tuple[int, list[int]], ...]]


def _packing(vectors: Sequence[ExponentVec], n: int, width: int, length: int) -> _Packing:
    """The vectors (each of length n) packed at width, with fit tables of
    the given length, which must exceed every field looked up in them."""
    fit = []
    for k in range(n):
        at = [0] * length
        for i, v in enumerate(vectors):
            if v[k] < length:
                at[v[k]] |= 1 << i
        for x in range(1, length):
            at[x] |= at[x - 1]
        fit.append(at)
    field = (1 << (width - 1)) - 1
    return _Packing(
        width,
        tuple(vectors),
        [_pack(v, width) for v in vectors],
        _pack([field + 1] * n, width),
        field,
        tuple(fit),
        [tuple((k * width, fit[k]) for k, x in enumerate(v) if x) for v in vectors],
    )


@functools.lru_cache(maxsize=None)
def _monomial_table(n: int, c: int, width: int) -> _Packing:
    """The ring's degree-c monomials packed at width, with fit tables for
    every field below 2^(width-2): one table per ring and width, whatever
    the strand."""
    return _packing(monomial_table(n, c)[0], n, width, 1 << (width - 2))


def _fits(table: _Packing, alpha: ExponentVec) -> int:
    """The bitmask of the positions of table whose vectors divide X^alpha."""
    fits = (1 << len(table.packed)) - 1
    for at, a in zip(table.fit, alpha):
        fits &= at[a]
    return fits


def _ranks(mask: int) -> list[int]:
    """The positions of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _vertices(params: RingParams, alpha: ExponentVec) -> tuple[int, int, _Packing]:
    """(fits, top, table): the bitmask of the ranks of the degree-c monomials
    dividing X^alpha; alpha packed with its guard bits set; and the ring's
    table (_monomial_table) at the width alpha needs.

    Pack exponent vectors into one int, a guard bit above every field, so
    "m divides r" is one subtraction: no field of (r | guard) - m borrows.
    Fields are one bit wider than max(alpha) and c need: a monomial that
    does not divide never borrows past its own field, v + cap in _survivors
    (each field at most 2 max alpha) never carries into a guard, and no
    field of a residual reaches the fit tables' length, 2^(width-2).
    """
    table = _monomial_table(params.n, params.c, max(*alpha, params.c).bit_length() + 2)
    return _fits(table, alpha), _pack(alpha, table.width) | table.guard, table


def _survivors(
    table: _Packing, ranks: list[int], alpha: ExponentVec
) -> tuple[list[list[int]], list[list[int]]]:
    """(kept, lower): the faces of Delta_alpha that survive the element
    matching on its first vertex v0 (ranks: the vertices, in rank order),
    split by the matching on the second, v1 (there are two: a strand on one
    vertex is a cone).  One list of faces per face size in each, a face
    being the bitmask of its vertices' ranks; a list may be empty.

    A survivor is a face sigma without v0 whose residual alpha - prod sigma
    v0 does not divide (sigma + v0 is not a face).  A survivor sigma without
    v1 whose residual v1 divides is the lower face of a pair of the v1
    matching: sigma + v1 is a face, and it survives v0, since its residual
    is below sigma's.  Those are listed in lower; the survivors left to the
    later matchings are kept.  Faces grow in rank order, and each carries
    its fit set as _divisor_walk's choices do: the later vertices that
    divide its residual, from its parent's with one fit-table lookup per
    variable the added vertex uses.  The walk skips two kinds of subtree.
    One, once v0 divides the residual and the later vertices together
    cannot take enough of v0's support to change that: it holds no
    survivor.  Two, an upper face tau of a v1 pair (tau holds v1 and tau -
    v1 survives): every face below it in the walk is again one, since both
    conditions are monotone, so none is visited and each is counted through
    its lower partner.
    """
    width, monomials, packed, guard, field, _, uses = table
    v0 = monomials[ranks[0]]
    pv, pv1, b1 = packed[ranks[0]], packed[ranks[1]], 1 << ranks[1]
    support = [k for k, x in enumerate(v0) if x]
    # take[k]: what the vertices after r take of v0's support; need[r]: v0
    # plus that, capped at alpha; a residual above need[r] keeps v0
    # whatever follows r
    take = [0] * len(alpha)
    for r in ranks[1:]:
        for k in support:
            take[k] += monomials[r][k]
    need = [0] * len(packed)
    for r in ranks[1:]:
        for k in support:
            take[k] -= monomials[r][k]
        need[r] = pv + sum(min(take[k], alpha[k]) << (k * width) for k in support)
    kept, lower = [[]], [[]]  # v0 divides alpha: the empty face is matched
    level = [(0, _pack(alpha, width), sum(1 << r for r in ranks[1:]))]
    while level:
        keep, low, nxt = [], [], []
        for face, res, fits in level:
            rest = fits
            while rest:
                bit = rest & -rest
                rest ^= bit
                i = bit.bit_length() - 1
                child = res - packed[i]
                top = child | guard
                if (top - need[i]) & guard == guard:
                    continue
                grown = face | bit
                if (top - pv) & guard != guard:  # a survivor
                    if grown & b1:
                        if ((child + pv1 | guard) - pv) & guard != guard:
                            continue  # grown - v1 survives: the upper face of a v1 pair
                        keep.append(grown)
                    elif (top - pv1) & guard == guard:
                        low.append(grown)
                    else:
                        keep.append(grown)
                later = rest
                for shift, fit in uses[i]:
                    later &= fit[child >> shift & field]
                nxt.append((grown, child, later))
        if nxt:
            kept.append(keep)
            lower.append(low)
        level = nxt
    return kept, lower


def _pack(u: Sequence[int], width: int) -> int:
    return sum(x << (i * width) for i, x in enumerate(u))


def _subset_counts(cands: tuple[int, ...], top: int, guard: int) -> tuple[int, ...]:
    """The number of t-subsets of the packed vertices cands whose product
    divides the residual top (packed, guard bits set), by t.  A pure
    function of hashable arguments with an immutable result, so a
    HomologyEngine memoizes it for its strands.

    A subset-sum DP: states map a residual (guard bits set) to the number
    of subsets of each size that leave it, one vertex per pass over a
    snapshot of the states.  Those counts are one int, a digit of B bits
    per size t; a count is at most comb(len(cands), t) < 2^B, so digits
    never carry, multiplying by z is << B and adding is +.
    """
    B = len(cands) + 1
    states = {top: 1}
    for m in cands:
        for r, f in list(states.items()):
            k = r - m
            if k & guard == guard:
                states[k] = states.get(k, 0) + (f << B)
    total = sum(states.values())
    digit = (1 << B) - 1
    counts = []
    while total:
        counts.append(total & digit)
        total >>= B
    return tuple(counts)


def strand_key(params: RingParams, alpha: ExponentVec) -> ExponentVec:
    """The multidegree whose Strand stands for alpha's: alpha sorted in
    decreasing order, each part capped at M = params.M = binomial(n+c-1, c-1).

    Permuting the variables carries Delta_alpha onto the complex of the
    permuted alpha, so one sorted multidegree serves its orbit.  A face of
    Delta_alpha is a set of distinct degree-c monomials, so its product
    takes at most M of any variable, the sum over all of them.  A field
    alpha_k >= M never refuses a face, so Delta_alpha = Delta_min(alpha, M)
    with the same vertices in the same order, hence the same matchings,
    Morse matrices and records over every field.  A key whose first part is
    M has x_1^c as a cone point: a face without it takes at most M - c of
    x_1, so adding x_1^c keeps it a face.  That strand is acyclic and has
    no homology over any field.

    A tuple alpha that is its own key is returned itself, so a list that
    keeps both holds one tuple.
    """
    key = sorted_strand_key(params, tuple(sorted(alpha, reverse=True)))
    return alpha if key == alpha else key


def sorted_strand_key(params: RingParams, rep: ExponentVec) -> ExponentVec:
    """strand_key(params, rep) of a rep already in decreasing order, without
    the sort: each part capped at M, and rep itself when its first part is
    at most M."""
    cap = params.M
    if rep[0] <= cap:
        return rep
    k = 1
    while k < len(rep) and rep[k] > cap:
        k += 1
    return (cap,) * k + rep[k:]


class Strand:
    """The multidegree-alpha strand of K(m^c), Morse-reduced.

    Every multidegree with the same strand_key (alpha sorted, each part
    capped at M) has this strand up to relabelling the variables, so a
    HomologyEngine builds one per key, at the key itself.

    A face of Delta_alpha with t vertices is the basis element of K_t whose
    brackets are those vertices, so the strand is the augmented simplicial
    chain complex of Delta_alpha.  Element matchings for the vertices in
    rank order, applied one after another to the faces still unmatched,
    pair faces (sigma, sigma + v); such a sequence is acyclic (Jonsson,
    Simplicial Complexes of Graphs, LNM 1928) and every matched pivot is
    +-1.  By algebraic Morse theory (Skoldberg, 2006) each d_t is then
    equivalent over Z to the identity on the pairs[t] matched (t-1, t)
    pairs plus the integer Morse matrix morse(t) on the critical cells
    (crit[t-1] x crit[t]): rank d_t = pairs[t] + rank morse(t) over every
    field, and the elementary divisors of d_t are 1^pairs[t] together with
    those of morse(t).  record(rank) is that identity, the one place a
    strand's differential ranks are assembled.  Only the counts (faces, one
    per nonempty level; pairs and crit, indexed by t = 0 .. N+1) and the
    entries of the Morse matrices are kept.

    One AND per variable over the ring's fit tables (_vertices) lists the
    vertices, and a face is the bitmask of their ranks; summing their
    exponent columns once gives both the cone test and the link key; and
    one lookup per variable of v0 gives the later vertices that fit alpha -
    v0.  Delta_alpha is closed under taking subsets, so the first
    vertex v0 pairs every face of its star: every face is a survivor
    (_survivors), a face of lk v0 = {tau : tau + v0 in Delta_alpha}, or
    such a face plus v0, so f(Delta) = a(Delta) + (1 + z) f(lk v0), with a
    counting the survivors, and the first matching has one pair per face
    of lk v0.  The faces of lk v0 are the subsets of the later vertices
    whose product divides alpha - v0; counts (_subset_counts, or a memo of
    it) counts them without walking.  A field that v0 and those vertices
    together cannot take past alpha never binds, so it is cleared from the
    residual and every vertex first: strands that differ only in such
    slack fields ask counts the same question.  Most Delta_alpha are cones
    on v0: every later vertex fits alpha - v0, and every field of v0's
    support is slack.  A cone has no survivor, so its strand stops after
    the counts, with every crit 0 and no Morse entry.

    Otherwise the survivors are walked once, and the matching on v1 is
    made during that walk: its upper faces are never visited.  The later
    matchings run on the survivors it leaves, and each Morse column is the
    gradient flow of a critical face (_image) over one flow memo per level,
    dropped before the next level's columns are made.  A face matched with
    v0 flows to 0: every facet of its partner other than itself contains
    v0, so is the upper face of a pair.
    """

    __slots__ = ("faces", "pairs", "crit", "_entries")

    def __init__(
        self,
        params: RingParams,
        alpha: ExponentVec,
        counts: Callable[[tuple[int, ...], int, int], tuple[int, ...]] = _subset_counts,
    ):
        alpha = tuple(alpha)
        size = params.N + 2
        self.pairs = pairs = [0] * size
        self._entries = {}
        fits, top, table = _vertices(params, alpha)
        if not fits:
            # no vertex: the empty face is the only face, and critical
            self.faces = [1]
            self.crit = [1] + [0] * (size - 1)
            return
        width, monomials, packed, guard, field, _, _ = table
        ranks = _ranks(fits)
        v0 = monomials[ranks[0]]
        totals = [sum(column) for column in zip(*(monomials[r] for r in ranks))]
        # a cone when alpha covers v0 plus all the later vertices take of
        # v0's support: then every later vertex fits alpha - v0 too
        cone = all(total <= a for total, a, x in zip(totals, alpha, v0) if x)
        link_top = top - packed[ranks[0]]
        later = ranks[1:]
        if not cone:
            link_fits = fits ^ 1 << ranks[0]
            for shift, fit in table.uses[ranks[0]]:
                link_fits &= fit[link_top >> shift & field]
            later = _ranks(link_fits)
            totals = [sum(column) for column in zip(v0, *(monomials[r] for r in later))]
        keep = guard
        for k, total in enumerate(totals):
            if total > alpha[k]:  # a binding field
                keep |= field << (k * width)
        link = counts(tuple(packed[r] & keep for r in later), link_top & keep, guard)
        # the first matching pairs each face tau of lk v0 with tau + v0
        pairs[1 : len(link) + 1] = link
        if cone:
            self.faces = [x + y for x, y in zip((*link, 0), (0, *link))]
            self.crit = [0] * size
            return

        kept, lower = _survivors(table, ranks, alpha)
        # survivors: the kept faces, the lower faces of the v1 pairs, and
        # their upper faces, one size up
        a = [len(k) + len(low) for k, low in zip(kept, lower)] + [0]
        up: dict[int, int] = {}  # lower face of a later pair -> vertex bit of its partner
        for t, level in enumerate(lower):
            pairs[t + 1] += len(level)
            a[t + 1] += len(level)
            up.update(dict.fromkeys(level, 1 << ranks[1]))
        if not a[-1]:
            a.pop()
        self.faces = [sum(f) for f in zip_longest(a, (*link, 0), (0, *link), fillvalue=0)]
        alive = {face for level in kept for face in level}
        for r in ranks[2:]:  # the matchings after v1, rank order
            bit = 1 << r
            # the upper faces of this matching; alive shrinks fast enough
            # that indexing the survivors by vertex costs more than the scan
            for face in [f for f in alive if f & bit and f ^ bit in alive]:
                alive.discard(face)
                alive.discard(face ^ bit)
                up[face ^ bit] = bit
                pairs[face.bit_count()] += 1
        nlevels = len(self.faces)
        crit_levels = [sorted(f for f in level if f in alive) for level in kept]
        crit_levels += [[] for _ in range(nlevels - len(crit_levels))]
        self.crit = [len(level) for level in crit_levels] + [0] * (size - nlevels)
        index = {f: j for level in crit_levels for j, f in enumerate(level)}
        # morse(t) by columns, empty unless critical faces lie below to flow
        # onto; a level's flows are dropped before the next level's are made
        columns = []
        for t, level in enumerate(crit_levels):
            memo: dict[int, dict[int, int]] = {}  # the flow of each matched face of size t-1
            columns.append(
                [_image(f, index, up, memo, alpha) if t and self.crit[t - 1] else {} for f in level]
            )
        self._entries = {
            t: sorted((r, j, v) for j, col in enumerate(cols) for r, v in col.items())
            for t, cols in enumerate(columns)
            if any(cols)
        }
        for t in range(2, nlevels):
            _check_composite_zero(columns[t - 1], columns[t], t, alpha)

    def morse(self, t: int) -> SparseIntMatrix:
        """The Morse matrix of d_t, crit[t-1] x crit[t], for 1 <= t <= N+1."""
        return SparseIntMatrix(self.crit[t - 1], self.crit[t], self._entries.get(t, []))

    def record(self, rank: Callable[[SparseIntMatrix], int]) -> tuple[list[int], list[int]]:
        """The strand record (faces, ranks) over the field of rank:
        ranks[0] = 0 and ranks[t] = pairs[t] + rank(morse(t)), where an
        empty morse(t) (no critical cell on one side) ranks 0 uncalled."""
        ranks = [
            self.pairs[t] + (rank(self.morse(t)) if self.crit[t - 1] and self.crit[t] else 0)
            for t in range(1, len(self.faces))
        ]
        return self.faces, [0] + ranks


def _image(
    face: int, index: dict[int, int], up: dict[int, int], memo: dict[int, dict[int, int]],
    alpha: ExponentVec,
) -> dict[int, int]:
    """The Morse differential of the critical face: its boundary pushed onto
    the critical cells, {position in its level (index): coefficient}.

    It sums, over the alternating paths face -> tau_1 / tau_1 + v_1 -> ...
    -> critical cell, the products of boundary signs, with -1/[d(tau + v) :
    tau] at every matched step; a facet neither critical nor the lower face
    of a pair (up) flows to 0.  memo maps each matched face resolved so far
    to its flow; every matched face met is one size below the critical
    face, so a strand keeps one memo per level.  One loop lists each boundary and sums
    it as it goes, deleting the k-th smallest vertex with sign (-1)^(k-1)
    as differential_block does.  A matched facet not in memo suspends the
    sum on a stack and starts its partner's, which once done is memoized
    scaled; the suspended sum then resumes at that facet.  So each
    partner's boundary is summed once, at any depth, and a path back to a
    face still open on the stack (a cyclic matching) raises.
    """
    # suspended sums (face walked, facet it skips, bits left, sign, sum); the root skips itself
    stack: list[tuple[int, int, int, int, dict[int, int]]] = []
    x, skip, rest, sign, acc = face, face, face, 1, {}
    open_: set[int] = set()
    while True:
        while rest:
            low = rest & -rest
            facet = x ^ low
            j = index.get(facet)
            if j is not None:
                acc[j] = acc.get(j, 0) + sign
            elif facet in up and facet != skip:
                flow = memo.get(facet)
                if flow is None:
                    if facet in open_:
                        raise ArithmeticError(
                            f"cyclic gradient path in the Morse matching at "
                            f"t={facet.bit_count() + 1}, alpha={alpha}"
                        )
                    open_.add(facet)
                    stack.append((x, skip, rest, sign, acc))
                    x = rest = facet | up[facet]
                    skip, sign, acc = facet, 1, {}
                    continue
                for j, v in flow.items():
                    acc[j] = acc.get(j, 0) + sign * v
            rest ^= low
            sign = -sign
        if not stack:
            return {j: v for j, v in acc.items() if v}
        # the pivot [d partner : skip] is (-1)^(vertices of skip below the
        # matched one), so -1/pivot is -pivot
        scale = 1 if (skip & (up[skip] - 1)).bit_count() % 2 else -1
        memo[skip] = {j: scale * v for j, v in acc.items() if v}
        open_.discard(skip)
        x, skip, rest, sign, acc = stack.pop()


def _check_composite_zero(
    prev: list[dict[int, int]], cur: list[dict[int, int]], t: int, alpha: ExponentVec
) -> None:
    """Raise unless morse(t-1) * morse(t) = 0 over Z (columns as dicts)."""
    for col in cur:
        acc: dict[int, int] = {}
        for r, v in col.items():
            for r2, w in prev[r].items():
                acc[r2] = acc.get(r2, 0) + v * w
        if any(acc.values()):
            raise ArithmeticError(f"Morse matrices do not compose to zero at t={t}, alpha={alpha}")
