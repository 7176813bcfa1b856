"""Constructors and chain operations that only the tests use.

No command reads these, so they live beside the tests rather than in
`koszul`: dense and triplet views of `exactla.SparseIntMatrix`, the unit,
sums and scalings of `cycles.CycleElement` chains, the cycle test, and
componentwise divisibility of exponent vectors.  `test_surface.py` keeps
the package free of names that only tests read.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

from koszul.combinatorics import ExponentVec, RingParams, vec_add
from koszul.cycles import CycleElement, _collect, apply_differential
from koszul.exactla import SparseIntMatrix


def from_triplets(
    nrows: int, ncols: int, triplets: Iterable[tuple[int, int, int]]
) -> SparseIntMatrix:
    """Merge duplicate cells and drop zeros."""
    acc: dict[tuple[int, int], int] = {}
    for r, c, v in triplets:
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise ValueError(f"triplet ({r},{c}) outside {nrows}x{ncols}")
        acc[r, c] = acc.get((r, c), 0) + v
    merged = sorted((r, c, v) for (r, c), v in acc.items() if v != 0)
    return SparseIntMatrix(nrows, ncols, merged)


def from_dense(rows: Sequence[Sequence[int]], ncols: int | None = None) -> SparseIntMatrix:
    nrows = len(rows)
    if ncols is None:
        ncols = len(rows[0]) if nrows else 0
    trips = [
        (i, j, int(v))
        for i, row in enumerate(rows)
        for j, v in enumerate(row)
        if v
    ]
    return SparseIntMatrix(nrows, ncols, trips)


def to_dense(m: SparseIntMatrix) -> list[list[int]]:
    A = [[0] * m.ncols for _ in range(m.nrows)]
    for r, c, v in m.entries:
        A[r][c] = v
    return A


def unit_element(params: RingParams) -> CycleElement:
    """The empty bracket with coefficient 1, the unit of the wedge algebra."""
    return CycleElement(params, 0, (0,) * params.n, {(): 1})


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


def is_cycle(z: CycleElement) -> bool:
    if z.t == 0:
        return True
    return apply_differential(z).is_zero()


def divides(m: ExponentVec, alpha: Sequence[int]) -> bool:
    """True when the monomial m divides X^alpha componentwise."""
    return all(x <= a for x, a in zip(m, alpha))
