"""Exact sparse linear algebra over prime fields and the rationals.

Rank, kernel and column-space membership never touch floating point.  One
echelon routine per certified field, VectorSpan, serves all three: dense
int64 elimination over F_p, and fraction-free integer echelon form over the
rationals, with sparse rows, which aborts when a pivot outgrows
EXACT_PIVOT_BIT_GUARD.  One sparse format crosses this boundary: a matrix
is a SparseIntMatrix of its nonzero entries, and every vector that enters
or leaves a span (its rows, a column, a kernel vector, a membership probe)
is a dict {index: value}.  Membership costs the nonzeros of the vectors:
over F_p a batch subtracts, per nonzero at a pivot, one row of the reduced
echelon form; over the rationals each vector is reduced pivot by pivot.
The multiprime rational policy gives ranks only: the max rank over a
seeded set of random word-sized primes, a certified lower bound that
equals the rational rank unless every sampled prime is bad.  Smith normal
form is available behind a size guard for locating the characteristics
where ranks can jump.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

# Smith normal form refuses matrices above this many cells.
SNF_CELL_GUARD = 250_000
# The fraction-free echelon form aborts when a pivot outgrows this bit length.
EXACT_PIVOT_BIT_GUARD = 100_000

# A batched F_p membership test holds at most this many int64 cells per array.
MEMBER_BATCH_CELLS = 1024

# Random primes are drawn from [2^29, 2^30) so products of two reduced
# values stay far below the int64 limit during vectorized elimination.
_PRIME_LOW = 1 << 29
_PRIME_HIGH = 1 << 30

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class UnsupportedPolicyError(ValueError):
    """Operation not available under the requested rational policy."""


class SizeGuardError(RuntimeError):
    """Input exceeds a size guard; the message names the flag that raises it, if any."""


class ExactEliminationError(OverflowError):
    """The fraction-free elimination outgrew the entry-size guard."""


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond word size."""
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def multiprime_primes(seed: int, k: int) -> tuple[int, ...]:
    """The first k distinct random word-sized primes drawn from seed.

    Extending k keeps the earlier primes, so escalation reuses prior work.
    """
    rng = random.Random(seed)
    primes: list[int] = []
    while len(primes) < k:
        cand = rng.randrange(_PRIME_LOW, _PRIME_HIGH) | 1
        while not is_prime(cand):
            cand += 2
        if cand < _PRIME_HIGH and cand not in primes:
            primes.append(cand)
    return tuple(primes)


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: F_p, or the rationals under a rank policy; primes
    names the primes its ranks are taken at."""

    kind: str  # "prime" | "rational"
    p: int = 0
    policy: str = "multiprime"  # rational only: "multiprime" | "fraction_free"
    num_primes: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind == "prime":
            if self.p >= _PRIME_HIGH * 2 or not is_prime(self.p):
                raise ValueError(f"p={self.p} is not a word-sized prime")
        elif self.kind == "rational":
            if self.policy not in ("multiprime", "fraction_free"):
                raise ValueError(f"unknown rational policy {self.policy!r}")
            if self.policy == "multiprime" and self.num_primes < 1:
                raise ValueError("need at least one prime")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec(kind="prime", p=p)

    @staticmethod
    def rational(policy: str = "multiprime", num_primes: int = 2, seed: int = 0) -> "FieldSpec":
        return FieldSpec(kind="rational", policy=policy, num_primes=num_primes, seed=seed)

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == "prime" else 0

    @property
    def primes(self) -> tuple[int, ...]:
        """The primes ranks are taken at: (p,) over F_p, the seeded primes
        under multiprime, and none under fraction_free."""
        if self.kind == "prime":
            return (self.p,)
        if self.policy == "fraction_free":
            return ()
        return multiprime_primes(self.seed, self.num_primes)

    def inverts(self, k: int) -> bool:
        """Whether the integer k is a unit: k != 0 over Q, p does not divide k
        over F_p.  At k = (c+1)! this is the paper's hypothesis, char 0 or > c+1."""
        return k % self.p != 0 if self.kind == "prime" else k != 0

    @property
    def certified(self) -> bool:
        """Whether ranks and memberships under this spec are exact proofs."""
        return self.kind == "prime" or self.policy == "fraction_free"

    def describe(self) -> str:
        if self.kind == "prime":
            return f"prime({self.p})"
        if self.policy == "fraction_free":
            return "fraction_free"
        return f"multiprime(k={self.num_primes}, seed={self.seed})"


@dataclass
class SparseIntMatrix:
    """Integer matrix as its nonzero entries (row, col, value), at most one
    per cell: the one matrix type of this module, and of a raw differential
    block (complex.DifferentialBlock)."""

    nrows: int
    ncols: int
    entries: list[tuple[int, int, int]]
    # Not a dataclass field; rank_mod_p is always dense, the benchmark labels its calls by it.
    dense_threshold = math.inf

    @property
    def cells(self) -> int:
        return self.nrows * self.ncols

    def columns(self) -> list[dict[int, int]]:
        """The columns as sparse vectors, {row: value}."""
        cols: list[dict[int, int]] = [{} for _ in range(self.ncols)]
        for r, c, v in self.entries:
            cols[c][r] = v
        return cols


# ---------------------------------------------------------------------------
# rank


def rank_mod_p(m: SparseIntMatrix, p: int) -> int:
    """Exact rank over F_p: the echelon form of m's rows."""
    span = VectorSpan(m.ncols, FieldSpec.prime(p))
    span._extend_mod_p(m.nrows, ((r, c, x) for r, c, v in m.entries if (x := v % p)))
    return span.rank


def sampled_rank(f: FieldSpec, rank_at: Callable[[int], Sequence[int]]) -> list[int]:
    """The elementwise max of the rank vectors rank_at(p) over the primes of
    a multiprime spec (f.primes); escalates by one prime when the initial
    set disagrees anywhere."""
    ranks = [rank_at(p) for p in f.primes]
    if len({tuple(r) for r in ranks}) > 1:
        ranks.append(rank_at(multiprime_primes(f.seed, f.num_primes + 1)[-1]))
    return [max(col) for col in zip(*ranks)]


def rank_fraction_free(m: SparseIntMatrix) -> int:
    """Exact rational rank: the fraction-free echelon form of m's columns."""
    span = VectorSpan(m.nrows, FieldSpec.rational(policy="fraction_free"))
    span.extend(m.columns())
    return span.rank


# ---------------------------------------------------------------------------
# kernels


def kernel_basis(m: SparseIntMatrix, f: FieldSpec) -> list[dict[int, int]]:
    """Sparse vectors, {column: value}, spanning the null space; count is
    ncols - rank.

    Echelonizes the columns m_j (+) e_j: a row whose pivot lies past the
    first nrows coordinates is zero there, so its tail is a kernel vector,
    and these tails span the kernel.  Over F_p the entries are reduced
    residues; over the rationals (fraction-free policy only) the vectors
    are primitive integer vectors.
    """
    span = VectorSpan(m.nrows + m.ncols, f)
    cols = m.columns()
    for j, col in enumerate(cols):
        col[m.nrows + j] = 1
    span.extend(cols)
    return [{i - m.nrows: v for i, v in row.items()} for piv, row in span.rows() if piv >= m.nrows]


# ---------------------------------------------------------------------------
# spans and membership


def _entries_mod_p(vecs: Iterable[dict[int, int]], p: int) -> Iterable[tuple[int, int, int]]:
    """The nonzero entries (vector, index, value mod p) of sparse vectors,
    reduced as Python ints, so no value past int64 reaches numpy."""
    return ((k, i, r) for k, vec in enumerate(vecs) for i, v in vec.items() if (r := v % p))


class _ReducedForm(NamedTuple):
    """A span over F_p in reduced echelon form R: one row per pivot, 1 there
    and 0 at every other pivot, kept only at the non-pivot indices."""

    row_of: dict[int, int]  # pivot -> its row of R
    free: list[int]  # the non-pivot indices, increasing
    free_of: dict[int, int]  # non-pivot index -> its position in free
    R_free: np.ndarray  # R at the non-pivot indices


class VectorSpan:
    """Span of integer vectors in echelon form, with exact membership; the
    one echelon routine behind every rank, kernel and column space.

    Vectors enter (extend, members) and leave (rows) as {index: value}
    dicts; contains alone takes a dense vector.  Rows are kept by pivot,
    each zero before its pivot.  Over F_p the rows are int64 arrays with
    unit pivots, and extend eliminates a whole batch at once, column by
    column; values are reduced mod p as Python ints before they reach
    numpy.  Extend and members both reduce a vector v to
    v - sum over the pivots i of v_i R_i, mod p, with R the reduced echelon
    form of the rows, built once per change of the span: that is the one
    vector of v + span zero at every pivot, which reducing row by row would
    also leave.  Both form it the same way (_residuals_mod_p), from the
    vectors' nonzeros, gathering only the rows of R at their pivot entries.
    Over the rationals (fraction-free) rows are primitive
    integer vectors, stored sparse as {index: value} dicts, and incoming
    vectors are reduced pivot by pivot by cross-multiplication, so no
    fractions are ever formed and a reduction costs the nonzeros of the
    rows it uses; a pivot longer than EXACT_PIVOT_BIT_GUARD bits aborts it.
    Multiprime sampling proves no span, so that policy is refused.
    """

    def __init__(self, length: int, f: FieldSpec):
        if not f.certified:
            raise UnsupportedPolicyError(
                "multiprime rank sampling cannot certify a span, kernel or "
                "membership; use fraction_free or a prime field"
            )
        self.length = length
        self.field = f
        # pivot -> row: an int64 array over F_p, {index: nonzero} over the rationals
        self._rows: dict[int, object] = {}
        # F_p: the reduced echelon form, built on the first reduction after a change
        self._reduced: _ReducedForm | None = None

    @property
    def rank(self) -> int:
        return len(self._rows)

    def rows(self) -> list[tuple[int, dict[int, int]]]:
        """The echelon rows as (pivot, {index: nonzero}), in pivot order."""
        out = []
        for piv in sorted(self._rows):
            row = self._rows[piv]
            if self.field.kind == "prime":
                nz = row.nonzero()[0]
                out.append((piv, dict(zip(nz.tolist(), row[nz].tolist()))))
            else:
                out.append((piv, dict(sorted(row.items()))))
        return out

    def extend(self, vecs: Sequence[dict[int, int]]) -> None:
        """Insert every vector of vecs, each sparse, {index: value} with
        every index below length.  A fraction-free pivot longer than
        EXACT_PIVOT_BIT_GUARD bits raises ExactEliminationError."""
        if self.field.kind == "prime":
            self._extend_mod_p(len(vecs), _entries_mod_p(vecs, self.field.p))
            return
        for vec in vecs:
            reduced = self._reduce_rational({i: int(v) for i, v in vec.items() if v})
            if not reduced:
                continue
            piv = min(reduced)
            g = math.gcd(*reduced.values())
            if reduced[piv] < 0:
                g = -g
            row = {i: v // g for i, v in reduced.items()}
            if row[piv].bit_length() > EXACT_PIVOT_BIT_GUARD:
                raise ExactEliminationError(
                    f"fraction-free pivot exceeded the {EXACT_PIVOT_BIT_GUARD}-bit guard; "
                    "retry over a prime field, or with the multiprime policy where "
                    "a sampled rank suffices"
                )
            self._rows[piv] = row

    def _extend_mod_p(self, count: int, entries: Iterable[tuple[int, int, int]]) -> None:
        """Insert count vectors over F_p, given by their nonzero entries
        (vector, index, value mod p): their residuals against the span, then
        dense elimination of what is left, column by column."""
        p = self.field.p
        B = np.zeros((count, self.length), dtype=np.int64)
        if self._rows:
            # the vectors less their multiples of the span, zero at every pivot
            red = self._reduced_form()
            B[:, red.free] = self._residuals_mod_p(count, entries, red)
        else:
            E = np.array(list(entries), dtype=np.int64).reshape(-1, 3)
            B[E[:, 0], E[:, 1]] = E[:, 2]
        # A column zero in every row of B stays zero, so only the others can pivot.
        r = 0
        for col in B.any(axis=0).nonzero()[0].tolist():
            nz = B[r:, col].nonzero()[0]
            if nz.size == 0:
                continue
            piv = r + int(nz[0])
            if piv != r:
                B[[r, piv]] = B[[piv, r]]
            B[r] = B[r] * pow(int(B[r, col]), -1, p) % p
            below = r + 1 + B[r + 1 :, col].nonzero()[0]
            if below.size:
                B[below] = (B[below] - B[below, col, None] * B[r]) % p
            self._rows[col] = B[r]
            self._reduced = None
            r += 1
            if r == count:
                break

    def contains(self, vec: Sequence[int]) -> bool:
        return self.members([{i: v for i, v in enumerate(vec) if v}])[0]

    def members(self, vecs: Iterable[dict[int, int]]) -> list[bool]:
        """Whether each vector lies in the span, in order.  Vectors are
        sparse, {index: value} with every index below length; vecs may be
        any iterable.  Over F_p it is drawn in batches whose residuals, one
        entry per vector and non-pivot index, fill at most
        MEMBER_BATCH_CELLS cells."""
        if self.field.kind != "prime":
            return [
                not self._reduce_rational({i: int(v) for i, v in vec.items() if v})
                for vec in vecs
            ]
        p = self.field.p
        red = self._reduced_form()
        size = max(1, MEMBER_BATCH_CELLS // max(1, len(red.free)))
        out: list[bool] = []
        it = iter(vecs)
        while batch := list(islice(it, size)):
            residuals = self._residuals_mod_p(len(batch), _entries_mod_p(batch, p), red)
            out += (~residuals.any(axis=1)).tolist()
        return out

    def _residuals_mod_p(
        self, count: int, entries: Iterable[tuple[int, int, int]], red: _ReducedForm
    ) -> np.ndarray:
        """The residuals of count vectors, given by their nonzero entries
        (vector, index, value mod p), at the free indices.  The residual of
        v is v - sum of v_i R_i over its entries v_i at pivots i, zero at
        every pivot, so only its free columns are formed.  The s-th pivot
        entry of every vector is subtracted at once, reducing mod p after
        each term: every entry stays within p^2 < 2^62, exact in int64 for
        p < 2^31."""
        p = self.field.p
        ks: list[int] = []  # the entries at free columns: vector, column of R_free, value
        fs: list[int] = []
        vals: list[int] = []
        terms: list[tuple[list[int], list[int], list[int]]] = []  # likewise, rows of R
        seen = [0] * count  # pivot entries of each vector so far
        for k, i, v in entries:
            j = red.row_of.get(i)
            if j is None:
                ks.append(k)
                fs.append(red.free_of[i])
                vals.append(v)
                continue
            s = seen[k]
            seen[k] += 1
            if s == len(terms):
                terms.append(([], [], []))
            terms[s][0].append(k)
            terms[s][1].append(j)
            terms[s][2].append(v)
        B = np.zeros((count, len(red.free)), dtype=np.int64)
        B[ks, fs] = vals
        for term_ks, js, coeffs in terms:
            B[term_ks] = (B[term_ks] - red.R_free[js] * np.array(coeffs)[:, None]) % p
        return B

    def _reduced_form(self) -> _ReducedForm:
        if self._reduced is None:
            p = self.field.p
            pivots = sorted(self._rows)
            R = np.array([self._rows[q] for q in pivots], dtype=np.int64)
            R = R.reshape(len(pivots), self.length)
            # back substitution: clear each pivot column above its row
            for j in range(len(pivots) - 1, 0, -1):
                above = R[:j, pivots[j]].nonzero()[0]
                if above.size:
                    R[above] = (R[above] - R[above, pivots[j], None] * R[j]) % p
            row_of = {q: j for j, q in enumerate(pivots)}
            free = [i for i in range(self.length) if i not in row_of]
            free_of = {i: f for f, i in enumerate(free)}
            self._reduced = _ReducedForm(row_of, free, free_of, R[:, free])
        return self._reduced

    def _reduce_rational(self, out: dict[int, int]) -> dict[int, int]:
        """out, the nonzeros of a vector (consumed), less its multiples of
        the rows, pivot by pivot in increasing order: rows that meet a zero
        entry are skipped, and a row touches no index below its pivot."""
        rows = self._rows
        todo = [i for i in out if i in rows]
        heapq.heapify(todo)
        while todo:
            piv = heapq.heappop(todo)
            v = out.get(piv)
            if not v:  # pushed twice, or cancelled since
                continue
            row = rows[piv]
            rp = row[piv]
            scaled = rp != 1  # a unit pivot scales nothing up: skip the gcd
            if scaled:
                # rp*out - v*row is h times (rp/h)*out - (v/h)*row, h = gcd(rp, v):
                # both leave the same vector once divided by their gcd
                h = math.gcd(rp, v)
                rp //= h
                v //= h
                if rp != 1:
                    out = {i: rp * x for i, x in out.items()}
            for i, y in row.items():
                x = out.get(i, 0) - v * y
                if x:
                    if i not in out and i in rows:
                        heapq.heappush(todo, i)
                    out[i] = x
                else:
                    del out[i]
            if scaled:
                g = math.gcd(*out.values())
                if g > 1:
                    out = {i: x // g for i, x in out.items()}
        return out


class ColumnSpace:
    """Echelonized column span of a matrix, reusable for many membership
    tests; members tests a batch of sparse vectors at the cost of their
    nonzeros (VectorSpan.members)."""

    def __init__(self, m: SparseIntMatrix, f: FieldSpec):
        self.nrows = m.nrows
        self._span = VectorSpan(m.nrows, f)
        self._span.extend(m.columns())

    @property
    def rank(self) -> int:
        return self._span.rank

    def contains(self, b: Sequence[int]) -> bool:
        if len(b) != self.nrows:
            raise ValueError(f"vector length {len(b)} != nrows {self.nrows}")
        return self._span.contains(b)

    def members(self, vecs: Iterable[dict[int, int]]) -> list[bool]:
        return self._span.members(vecs)


# ---------------------------------------------------------------------------
# Smith normal form


def _least_entry(rows: list[dict[int, int]]) -> tuple[int, int]:
    """(row, column) of an entry of least magnitude: the first unit found."""
    best = None
    for r, row in enumerate(rows):
        for c, v in row.items():
            if best is None or abs(v) < best[0]:
                best = (abs(v), r, c)
                if best[0] == 1:
                    return r, c
    return best[1], best[2]


def elementary_divisors(m: SparseIntMatrix, max_cells: int = SNF_CELL_GUARD) -> list[int]:
    """Nonzero Smith normal form diagonal entries, ascending.

    One corner rule: an entry of least magnitude, the first unit found, is
    the corner.  Floor quotients reduce its column by row operations and
    then, the column clear, its row by column operations, which change that
    row alone; a remainder left is the next, smaller corner.  A non-unit
    corner is a divisor only if it divides every remaining entry; else a
    row that breaks this is added to its row, leaving a smaller remainder.
    The rank over F_p equals the number of divisors coprime to p.  Guarded:
    refuse oversized inputs instead of grinding.
    """
    if m.cells > max_cells:
        raise SizeGuardError(
            f"matrix has {m.cells} cells, over the Smith normal form guard "
            f"{max_cells} (--snf-guard)"
        )
    by_row: dict[int, dict[int, int]] = {}
    for r, c, v in m.entries:
        by_row.setdefault(r, {})[c] = v
    rows = list(by_row.values())
    diag: list[int] = []
    while rows:
        i, j = _least_entry(rows)
        top = rows[i]
        p = top[j]
        for row in rows:
            if row is not top and j in row and (q := row[j] // p):
                for c, v in top.items():
                    x = row.get(c, 0) - q * v
                    if x:
                        row[c] = x
                    else:
                        del row[c]
        if any(j in row for row in rows if row is not top):
            continue  # a remainder in the column: a smaller entry exists
        # the column is clear, so column operations change the corner's row alone
        rest = {c: x for c, v in top.items() if c != j and (x := v % p)}
        if not rest and abs(p) > 1:  # a unit needs no divisibility check
            culprit = next((row for row in rows if any(v % p for v in row.values())), {})
            rest = {c: x for c, v in culprit.items() if (x := v % p)}
        if rest:
            rows[i] = {j: p} | rest
            continue
        diag.append(abs(p))
        rows = [row for row in rows if row and row is not top]
    return sorted(diag)
