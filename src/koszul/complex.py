"""Multigraded bases and differential blocks of the Koszul complex K(m^c).

K_t is the free module on brackets [u_1,...,u_t] of distinct degree-c
monomials; a K-basis of its multidegree-alpha slice consists of the
monomial elements v[u_1,...,u_t] with v * u_1 * ... * u_t = X^alpha.
The differential preserves the multidegree, so it decomposes into
independent blocks, one per alpha.  Blocks are generated on demand and
never assembled into the full graded component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .combinatorics import (
    ExponentVec,
    RingParams,
    divides,
    enumerate_monomials,
    monomial_count,
    unrank_monomial,
    vec_add,
    vec_sub,
)


class KoszulBasisElement(NamedTuple):
    """A monomial element v[u_1,...,u_t]: coefficient exponent vector plus
    strictly increasing ranks of the degree-c bracket entries."""

    coeff: ExponentVec
    gens: tuple[int, ...]

    @property
    def t(self) -> int:
        return len(self.gens)

    def multidegree(self, params: RingParams) -> ExponentVec:
        alpha = self.coeff
        for r in self.gens:
            alpha = vec_add(alpha, unrank_monomial(params, r, params.c))
        return alpha

    def internal_degree(self, params: RingParams) -> int:
        return sum(self.coeff) + len(self.gens) * params.c


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


def block_basis(params: RingParams, t: int, alpha: ExponentVec) -> list[KoszulBasisElement]:
    """Basis of the multidegree-alpha slice of K_t, sorted by bracket ranks.

    Empty when no element exists (in particular when |alpha| < t*c).
    """
    if t < 0 or any(a < 0 for a in alpha):
        return []
    total = sum(alpha)
    if total < t * params.c:
        return []
    if t == 0:
        return [KoszulBasisElement(tuple(alpha), ())]

    candidates = [
        (r, m)
        for r, m in enumerate(enumerate_monomials(params, params.c))
        if divides(m, alpha)
    ]
    if len(candidates) < t:
        return []

    out: list[KoszulBasisElement] = []
    c = params.c

    def extend(start: int, residual: ExponentVec, left: int, chosen: tuple[int, ...]) -> None:
        if left == 0:
            out.append(KoszulBasisElement(residual, chosen))
            return
        if sum(residual) < left * c:
            return
        for idx in range(start, len(candidates) - left + 1):
            r, m = candidates[idx]
            if divides(m, residual):
                extend(idx + 1, vec_sub(residual, m), left - 1, chosen + (r,))

    extend(0, tuple(alpha), t, ())
    return out


@dataclass
class DifferentialBlock:
    """The boundary map K_t -> K_{t-1} restricted to one multidegree.

    Every column carries exactly t entries, one per deleted bracket factor;
    the monomial coefficient picked up by the deletion is absorbed into the
    row label, so entries are +1/-1 only.
    """

    t: int
    alpha: ExponentVec
    rows: list[KoszulBasisElement]
    cols: list[KoszulBasisElement]
    entries: list[tuple[int, int, int]]  # (row, col, sign)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.cols)


def differential_block(params: RingParams, t: int, alpha: ExponentVec) -> DifferentialBlock:
    """Sparse block of the t-th differential in multidegree alpha.

    Sign convention: deleting the k-th bracket entry (k = 1..t) contributes
    (-1)^(k-1), the standard exterior-algebra rule.
    """
    if t < 1:
        raise ValueError(f"differential blocks need t >= 1, got t={t}")
    cols = block_basis(params, t, alpha)
    rows = block_basis(params, t - 1, alpha)
    row_index = {e.gens: i for i, e in enumerate(rows)}
    entries: list[tuple[int, int, int]] = []
    for j, elem in enumerate(cols):
        sign = 1
        for k in range(t):
            reduced = elem.gens[:k] + elem.gens[k + 1 :]
            entries.append((row_index[reduced], j, sign))
            sign = -sign
    return DifferentialBlock(t, tuple(alpha), rows, cols, entries)


def graded_dim(params: RingParams, t: int, d: int) -> int:
    """dim of the internal-degree-d slice of K_t: binomial(N,t) choices of
    bracket times the count of coefficient monomials of degree d - t*c."""
    if t < 0 or d < t * params.c:
        return 0
    return math.comb(params.N, t) * monomial_count(params.n, d - t * params.c)
