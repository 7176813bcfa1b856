"""Enumeration, ranking and symmetry reduction of monomials and multidegrees.

Monomials in n variables are represented by exponent vectors (plain int
tuples).  A single global order is used everywhere: lexicographically
decreasing on the exponent vector.  Multidegrees of the ambient complex are
exponent vectors too, so the same utilities serve both roles.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

ExponentVec = tuple[int, ...]

@dataclass(frozen=True)
class RingParams:
    """Ambient polynomial ring in n variables, together with the power c."""

    n: int
    c: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one variable, got n={self.n}")
        if self.c < 1:
            raise ValueError(f"need a positive power, got c={self.c}")

    # computed at the first read: frozen fields, and cached_property writes
    # the instance dict directly
    @functools.cached_property
    def N(self) -> int:
        """Number of degree-c monomials, binomial(n+c-1, c)."""
        return math.comb(self.n + self.c - 1, self.c)

    @functools.cached_property
    def M(self) -> int:
        """The exponent of one variable summed over all degree-c monomials,
        c*N/n = binomial(n+c-1, c-1)."""
        return math.comb(self.n + self.c - 1, self.c - 1)


def monomial_count(n: int, d: int) -> int:
    """Number of degree-d monomials in n variables."""
    if d < 0:
        return 0
    return math.comb(n - 1 + d, n - 1)


def compositions(n: int, d: int) -> Iterator[ExponentVec]:
    """Yield every length-n exponent vector of total d, lex-decreasing."""
    if n < 1:
        raise ValueError("need n >= 1")
    if d < 0:
        return
    if n == 1:
        yield (d,)
        return
    for head in range(d, -1, -1):
        for tail in compositions(n - 1, d - head):
            yield (head,) + tail


@functools.lru_cache(maxsize=None)
def monomial_table(n: int, d: int) -> tuple[tuple[ExponentVec, ...], dict[ExponentVec, int]]:
    """The degree-d monomials in n variables in rank order, and the rank of
    each: one table per (n, d), shared by every caller, who must not change
    the dict."""
    monomials = tuple(compositions(n, d))
    return monomials, {m: r for r, m in enumerate(monomials)}


def vec_add(a: ExponentVec, b: ExponentVec) -> ExponentVec:
    return tuple(map(operator.add, a, b))


def vec_sub(a: ExponentVec, b: ExponentVec) -> ExponentVec:
    """Componentwise difference; caller guarantees divisibility."""
    return tuple(map(operator.sub, a, b))


def divides(m: ExponentVec, alpha: Sequence[int]) -> bool:
    """True when the monomial m divides X^alpha componentwise."""
    return all(x <= a for x, a in zip(m, alpha))


def unit_vector(n: int, i: int) -> ExponentVec:
    return tuple(1 if k == i else 0 for k in range(n))


def orbit_size(alpha: Sequence[int]) -> int:
    """Number of distinct coordinate permutations of alpha."""
    size = math.factorial(len(alpha))
    counts: dict[int, int] = {}
    for value in alpha:
        counts[value] = counts.get(value, 0) + 1
    for mult in counts.values():
        size //= math.factorial(mult)
    return size


def orbits_into(d: int, n: int) -> Iterator[tuple[ExponentVec, int]]:
    """Each weakly decreasing length-n vector of total d with its orbit
    size, orbit_size(rep) = n!/prod(mult!), in partitions_into order.

    The walk fills the parts one slot at a time, a level of prefixes per
    slot (each level in order, so the last lists the vectors in order), and
    divides n! down as it goes: a part equal to the one before it, the m-th
    of its run, divides the size by m.  The last two parts are placed
    together."""
    if n == 1:
        yield (d,), 1
        return
    # (prefix, remaining total, last part, its run length, size so far)
    level = [((), d, d, 0, math.factorial(n))]
    for slots in range(n, 2, -1):
        deeper = []
        add = deeper.append
        for prefix, remaining, cap, run, size in level:
            # a head below ceil(remaining / slots) leaves too much for the rest
            for head in range(min(remaining, cap), -(-remaining // slots) - 1, -1):
                run_h = run + 1 if head == cap else 1
                add((prefix + (head,), remaining - head, head, run_h, size // run_h))
        level = deeper
    for prefix, remaining, cap, run, size in level:
        for head in range(min(remaining, cap), -(-remaining // 2) - 1, -1):
            tail = remaining - head
            run_h = run + 1 if head == cap else 1
            size_h = size // run_h
            yield prefix + (head, tail), (size_h // (run_h + 1) if tail == head else size_h)


def partitions_into(d: int, n: int) -> Iterator[ExponentVec]:
    """Weakly decreasing length-n vectors of total d (one per orbit), lex-decreasing."""

    def rec(remaining: int, slots: int, cap: int):
        if slots == 1:
            if remaining <= cap:
                yield (remaining,)
            return
        for head in range(min(remaining, cap), -1, -1):
            if head * slots < remaining:
                break
            for tail in rec(remaining - head, slots - 1, head):
                yield (head,) + tail

    yield from rec(d, n, d)
