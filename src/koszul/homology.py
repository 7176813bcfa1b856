"""Homology dimensions assembled from strand records, and everything
downstream: Betti tables of Veronese modules, the duality check, the
syzygy-linearity (Green-Lazarsfeld) index scan, Green-type degree bounds,
and minimal generator profiles of the cycle modules Z_t.

Throughout, dim H_t in internal degree d is computed multidegree by
multidegree: each orbit of multidegrees under variable permutation
contributes orbit_size * (faces_t - rank d_t - rank d_{t+1}), read from the
record of its strand (koszul.cache), which holds the face count and the
differential rank of every level.  A record is keyed by complex.strand_key:
the sorted representative with each part capped at M = binomial(n+c-1, c-1),
since no face takes more of a variable than that, so orbits that differ only
above M share one record.  HomologyEngine.orbit_dims gives these
contributions and dim H_t(d) is their sum.  The duality
dim H_t(d) = dim H_{N-n-t}(Nc-n-d) lets a query be served from its partner:
a side without t-chains (d < tc) first, since it reads 0 at no cost, and
otherwise the lower internal degree, whose strands have fewer faces.  Fewer
faces need not mean less work: at n=3, c=5 the strand (17,17,16) has fewer
faces than its dual (17,17,18) but a 10.5M-cell Morse matrix, against 0.61M.
It can be switched off to force direct computation (the duality and
vanishing suites do exactly that).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import complex, cycles, exactla
from .cache import RankCache
from .combinatorics import (
    ExponentVec,
    RingParams,
    orbit_size,
    partitions_into,
    unit_vector,
    vec_sub,
)
from .complex import Strand, differential_block, graded_dim, strand_key
from .exactla import FieldSpec, SizeGuardError, UnsupportedPolicyError

# Generator profiles build every block kernel up to degree t(c+1); factorial
# growth in t makes large t pointless.
Z_PROFILE_T_GUARD = 4
# They scan this many degrees past t(c+1), so that the absence of later
# generators is observed rather than assumed.
Z_PROFILE_DEGREES_PAST_TOP = 2


@dataclass
class HomologyTable:
    """Map (homological degree t, internal degree d) -> dimension."""

    params: RingParams
    entries: dict[tuple[int, int], int]
    computed_directly: bool = False

    def dim(self, t: int, d: int) -> int:
        return self.entries.get((t, d), 0)


@dataclass
class BettiTable:
    """Graded Betti numbers of the Veronese module V(c,k); entry (i,j) is
    the homology dimension in internal degree j*c + k, never recomputed
    independently."""

    params: RingParams
    k: int
    field: FieldSpec
    entries: dict[tuple[int, int], int]

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def max_degrees(self) -> dict[int, int | None]:
        """Per column i, the largest j with a nonzero entry (t_i)."""
        out: dict[int, int | None] = {}
        for (i, j), v in self.entries.items():
            if v:
                cur = out.get(i)
                out[i] = j if cur is None else max(cur, j)
            else:
                out.setdefault(i, None)
        return out


def duality_partner(params: RingParams, i: int, j: int) -> tuple[int, int]:
    """Mirror position of (homological degree i, internal degree j)."""
    return params.N - params.n - i, params.N * params.c - params.n - j


def homology_vector(record) -> list[int]:
    """dim H_t = faces[t] - ranks[t] - ranks[t+1] of a (faces, ranks) strand
    record, for t = 0 .. len(faces) - 1."""
    faces, ranks = record
    r = (*ranks, 0)  # rank d_{t+1} = 0 above the top level
    return [f - r[t] - r[t + 1] for t, f in enumerate(faces)]


def proves_rational(dims) -> bool:
    """Whether an F_p strand record, of homology vector dims, is also the
    strand's record over Q.

    Over Q each rank is rank_p d_t + delta_t with delta_t >= 0, so
    h_t(Q) = h_t(F_p) - delta_t - delta_{t+1} >= 0 bounds delta_t by
    min(h_{t-1}(F_p), h_t(F_p)).  Every delta_t is then 0 unless the F_p
    homology is nonzero at two adjacent levels."""
    return not any(low and high for low, high in zip(dims, dims[1:]))


class HomologyEngine:
    """Shared context for a run: ring, field, strand-record memo, and
    whether the duality shortcut may serve a query.

    Records are keyed by complex.strand_key (the sorted representative,
    each part capped at M), so the orbits of one key share one record.
    Each key's record over the engine field is resolved (_resolve) at most
    once per engine and kept with its homology vector, derived once; the
    orbit list of each degree, with each orbit's key, is listed once too.
    Without a cache argument the records are stored in memory.  A record
    missing from the cache is that of the Morse-reduced strand at its key
    (complex.Strand.record), built only for it, shared by its sampled
    primes, and then dropped.  A key whose first part is M is a cone on
    x_1^c, so its record must show no homology: _resolve raises
    ArithmeticError on one that does, as a bad cache record would.  Under
    the multiprime policy one prime usually proves the rational record
    (proves_rational), which is then stored once under p = 0; only the
    strands it leaves open are sampled at every seeded prime and stored per
    prime.

    The engine's strands share one memo of their link face counts
    (complex._subset_counts, keyed by the masked link): many strands of a
    ring ask the same question.  It lives and dies with the engine, so a
    new engine counts afresh.
    """

    def __init__(
        self,
        params: RingParams,
        field: FieldSpec,
        cache=None,
        use_duality: bool = True,
    ):
        self.params = params
        self.field = field
        self.cache = RankCache(None) if cache is None else cache
        self.use_duality = use_duality
        self.stats = {"eliminations": 0, "cache_hits": 0}
        self._records: dict[ExponentVec, tuple] = {}  # strand key -> record over field
        # d -> (sorted rep, orbit size, strand key) of each orbit
        self._orbits: dict[int, list[tuple[ExponentVec, int, ExponentVec]]] = {}
        self._subset_counts = functools.cache(complex._subset_counts)

    # -- block level --------------------------------------------------------

    def _cached(self, key: ExponentVec, p: int):
        got = self.cache.get(self.params.n, self.params.c, key, p)
        if got is not None:
            self.stats["cache_hits"] += 1
        return got

    def _put(self, key: ExponentVec, p: int, record) -> None:
        self.cache.put(self.params.n, self.params.c, key, p, *record)

    def _rank_mod_p(self, key: ExponentVec, p: int, strand: Callable[[], Strand]):
        """key's record over F_p, read from the cache or, on a miss, ranked on
        strand(); never stored here, since _resolve stores every record."""
        got = self._cached(key, p)
        if got is None:
            got = strand().record(lambda m: exactla.rank_mod_p(m, p))
            self.stats["eliminations"] += 1
        return got

    def _record(self, key: ExponentVec):
        """(faces, ranks, dims) of the strand at key (complex.strand_key) over
        the engine field, dims its homology vector; resolved once per engine,
        and a later call is a memo hit, counted as a cache hit."""
        got = self._records.get(key)
        if got is None:
            got = self._records[key] = self._resolve(key)
        else:
            self.stats["cache_hits"] += 1
        return got

    def _resolve(self, key: ExponentVec):
        """key's record over the engine field with its homology vector
        (faces, ranks, dims), and the one place records are stored.  Its
        strand is built at most once, by the first strand() of a miss, and
        shared by every prime this call ranks at (field.primes).

        A p = 0 record is a proof of the rational record: fraction-free
        elimination wrote it, or proves_rational accepted it at one prime.
        Over Q a p = 0 miss reads or builds the record at the first seeded
        prime; when proves_rational accepts it, it is stored under p = 0
        alone (so a cache of per-prime records is upgraded as it is read).
        Otherwise each sampled prime's record is stored under that prime.
        Storing a record the cache already holds changes nothing.

        Every record it returns, read or built, passes the closed-form
        oracle of strand_key: at a key whose first part is M the homology
        vector is 0, else ArithmeticError.
        """
        f = self.field
        char = f.characteristic
        got = None if char else self._cached(key, 0)
        if got is None:
            made = None

            def strand() -> Strand:
                nonlocal made
                if made is None:
                    made = Strand(self.params, key, self._subset_counts)
                return made

            primes = f.primes
            if primes:
                got = self._rank_mod_p(key, primes[0], strand)
            else:  # fraction-free
                got = strand().record(exactla.rank_fraction_free)
                self.stats["eliminations"] += 1
            if char or not primes or proves_rational(homology_vector(got)):
                # the record over F_p, or a proof of the rational record
                self._put(key, char, got)
            else:

                def ranks_at(p: int):
                    record = got if p == primes[0] else self._rank_mod_p(key, p, strand)
                    self._put(key, p, record)
                    return record[1]

                got = got[0], exactla.sampled_rank(f, ranks_at)
        dims = homology_vector(got)
        if key[0] == self.params.M and any(dims):
            raise ArithmeticError(
                f"strand record at alpha={key}, p={char} has homology {dims}, but "
                f"x_1^{self.params.c} is a cone point of its complex "
                f"(alpha_1 = M = {self.params.M}); a corrupt cache record, or a fault"
            )
        return (*got, dims)

    def block_rank(self, t: int, alpha: ExponentVec) -> int:
        """Rank of the t-th differential block at alpha over the engine field."""
        ranks = self._record(strand_key(self.params, alpha))[1]
        return ranks[t] if 0 < t < len(ranks) else 0

    def block_dim(self, t: int, alpha: ExponentVec) -> int:
        """Homology dimension of the single multidegree-alpha block:
        faces[t] - ranks[t] - ranks[t+1] of alpha's strand record."""
        dims = self._record(strand_key(self.params, alpha))[2]
        return dims[t] if 0 <= t < len(dims) else 0

    # -- degree level --------------------------------------------------------

    def _side(self, t: int, d: int) -> tuple[int, int]:
        """The position that serves dim H_t(d): (t, d) or, with duality on,
        its partner when that sorts first by (has t-chains, internal
        degree); on a tie the query stays put."""
        params = self.params
        if self.use_duality and 0 < t <= params.N - params.n:  # t = 0: closed form
            td, dd = duality_partner(params, t, d)
            if (dd >= td * params.c, dd) < (d >= t * params.c, d):
                return td, dd
        return t, d

    def homology_dim(self, t: int, d: int) -> int:
        """dim H_t in internal degree d: the sum of orbit_dims on the side
        of the duality that _side picks."""
        return sum(self.orbit_dims(*self._side(t, d)).values())

    def _orbits_of(self, d: int) -> list[tuple[ExponentVec, int, ExponentVec]]:
        """(sorted representative, orbit size, strand key) of every orbit of
        degree-d multidegrees, in partitions_into order; listed once per
        engine."""
        orbits = self._orbits.get(d)
        if orbits is None:
            params = self.params
            orbits = self._orbits[d] = [
                (rep, orbit_size(rep), strand_key(params, rep))
                for rep in partitions_into(d, params.n)
            ]
        return orbits

    def orbit_dims(self, t: int, d: int) -> dict[ExponentVec, int]:
        """Map sorted representative -> orbit_size * dim H_t of its block in
        degree d, for every orbit that contributes; each strand is computed
        directly, not served from its dual.  With duality on, a degree above
        N*c - n, whose dual degree is negative, is 0 without any strand."""
        params = self.params
        if t < 0 or d < t * params.c:
            return {}
        if t > params.N - params.n:
            # depth sensitivity of the complex over the polynomial ring
            return {}
        if self.use_duality and d > params.N * params.c - params.n:
            return {}
        if t == 0:
            # H_0 is the quotient by the degree-c power: every monomial of
            # degree >= c is divisible by one of the generators
            if d >= params.c:
                return {}
            return {rep: weight for rep, weight, _ in self._orbits_of(d)}

        faces_t = 0
        parts: dict[ExponentVec, int] = {}
        for rep, weight, key in self._orbits_of(d):
            faces, _, dims = self._record(key)
            if t < len(faces):
                faces_t += weight * faces[t]
                if dims[t]:
                    parts[rep] = weight * dims[t]
        chain_dim = graded_dim(params, t, d)
        if faces_t != chain_dim:
            # the strands partition the basis of K_t in degree d
            raise ArithmeticError(
                f"strand face counts sum to {faces_t}, not dim K_{t} = {chain_dim}, "
                f"at t={t}, d={d}"
            )
        return parts

    def homology_table(self, t_max: int, d_max: int) -> HomologyTable:
        """All dims for t <= t_max and t*c <= d <= d_max."""
        entries: dict[tuple[int, int], int] = {}
        for t in range(t_max + 1):
            for d in range(t * self.params.c, d_max + 1):
                entries[(t, d)] = self.homology_dim(t, d)
        return HomologyTable(self.params, entries, computed_directly=not self.use_duality)

    # -- Betti tables ---------------------------------------------------------

    def betti(self, k: int, i: int, j: int) -> int:
        """beta_{i,j} of the Veronese module V(c,k)."""
        if not 0 <= k < self.params.c:
            raise ValueError(f"need 0 <= k < c, got k={k}")
        return self.homology_dim(i, j * self.params.c + k)

    def betti_window(self, k: int, i: int) -> range:
        """Structurally feasible column degrees j for beta_{i,.}: the degree
        must reach i*c and stay within the dual window."""
        c, structural_top = self.params.c, self.params.N * self.params.c - self.params.n
        j_lo = max(0, -((k - i * c) // c))  # ceil((i*c - k) / c)
        j_hi = (structural_top - k) // c
        return range(j_lo, j_hi + 1)

    def betti_table(self, k: int, i_max: int) -> BettiTable:
        entries: dict[tuple[int, int], int] = {}
        for i in range(i_max + 1):
            for j in self.betti_window(k, i):
                entries[(i, j)] = self.betti(k, i, j)
        return BettiTable(self.params, k, self.field, entries)

    # -- index scan -----------------------------------------------------------

    def gl_index(self, i_max: int | None = None) -> "GLIndexResult":
        """Largest p such that beta_{i,j}(V(c,0)) = 0 for all j > i+1, i <= p.

        For each i only finitely many j need checking: nonzero entries force
        j*c < i*c + i + c (degree bound on cycle generators) and
        j*c <= N*c - n (dual window), so a clean scan is a certificate.

        Closed-form oracle: where the field inverts (c+1)!, Bruns-Conca-Roemer
        prove ind >= c+1, so a first failure at i <= c+1 raises ArithmeticError.
        """
        params = self.params
        hard_top = params.N - params.n
        i_max = hard_top if i_max is None else min(i_max, hard_top)
        for i in range(1, i_max + 1):
            degree_top = min(i * params.c + i + params.c - 1, params.N * params.c - params.n)
            j = i + 2
            while j * params.c <= degree_top:
                beta = self.betti(0, i, j)
                if beta:
                    if i <= params.c + 1 and self.field.inverts(math.factorial(params.c + 1)):
                        raise ArithmeticError(
                            f"beta[{i},{j}] = {beta} gives ind = {i - 1}, but ind >= "
                            f"{params.c + 1} over {self.field.describe()}, where "
                            f"{params.c + 1}! is a unit (Bruns-Conca-Roemer); "
                            "a corrupt cache record, or a fault"
                        )
                    return GLIndexResult(i_max, i - 1, (i, j, beta))
                j += 1
        return GLIndexResult(i_max, None, None)

    # -- structural checks ------------------------------------------------------

    def euler_characteristic(self, d: int) -> tuple[int, int]:
        """(alternating homology sum, alternating chain-dimension sum) at
        degree d; the two must agree."""
        params = self.params
        lhs = sum(
            (-1) ** t * self.homology_dim(t, d)
            for t in range(params.N - params.n + 1)
        )
        rhs = sum(
            (-1) ** t * graded_dim(params, t, d) for t in range(d // params.c + 1)
        )
        return lhs, rhs

    # -- Z_t generator profile ---------------------------------------------------

    def z_generator_profile(self, t: int) -> "ZGeneratorProfile":
        """Minimal generator counts of the cycle module Z_t by degree.

        In each degree d the count is dim Z_{t,d} minus the dimension of the
        image of multiplication S_1 (x) Z_{t,d-1} -> Z_{t,d}, computed per
        multidegree from kernel bases.  The scan runs
        Z_PROFILE_DEGREES_PAST_TOP degrees past t(c+1), and tests whether the
        degree-t(c+1) layer is spanned by wedge products of the two-term
        generators of Z_1 modulo the multiplication image.

        Only the sorted representative of each orbit is examined, its count
        weighted by the orbit size: permuting the variables is an
        automorphism of the complex that preserves Z_t, the multiplication
        image and the Z_1 wedge products up to sign, so both the count and
        the spanning test are constant on an orbit, over every field.  The
        kernel of each representative and of each neighbour alpha - e_i its
        multiplication image needs is computed once per call; so is each
        two-term Z_1 generator.
        """
        params, field = self.params, self.field
        if t == 0:
            return ZGeneratorProfile({0: 1}, 0, None)
        if not field.certified:
            raise UnsupportedPolicyError(
                "generator profiles need a certified field "
                "(prime or fraction_free), not multiprime sampling"
            )
        if t > Z_PROFILE_T_GUARD:
            raise SizeGuardError(
                f"generator profiles are limited to t <= {Z_PROFILE_T_GUARD}, a fixed limit"
            )
        top = t * (params.c + 1)
        z1 = functools.cache(lambda b, pair: cycles.z1_generator(params, b, *pair))
        # composition -> (basis brackets, kernel basis) of K_t there, for
        # the degrees d - 1 and d of the scan
        memo: dict[ExponentVec, tuple[list, list]] = {}

        def kernel(alpha: ExponentVec) -> tuple[list, list]:
            got = memo.get(alpha)
            if got is None:
                blk = differential_block(params, t, alpha)
                got = memo[alpha] = blk.cols, (exactla.kernel_basis(blk, field) if blk.cols else [])
            return got

        counts: dict[int, int] = {}
        top_spanned = True
        for d in range(t * params.c, top + Z_PROFILE_DEGREES_PAST_TOP + 1):
            memo = {alpha: got for alpha, got in memo.items() if sum(alpha) == d - 1}
            new_gens = 0
            for rep, weight, _ in self._orbits_of(d):
                cols, kern = kernel(rep)
                if not kern:
                    continue
                index = {gens: pos for pos, gens in enumerate(cols)}
                images = []
                for var in range(params.n):
                    if rep[var]:
                        b_cols, b_kern = kernel(vec_sub(rep, unit_vector(params.n, var)))
                        images += ({index[b_cols[i]]: v for i, v in vec.items()} for vec in b_kern)
                span = exactla.VectorSpan(len(cols), field)
                span.extend(images)
                new_gens += weight * (len(kern) - span.rank)
                if d == top and top_spanned:
                    # the wedges of t distinct two-term generators summing to rep
                    products = cycles.z1_products_dividing(params, rep, t, distinct=True)
                    wedges = (
                        cycles.wedge(*(z1(b, pair) for b, pair in chosen)).terms
                        for chosen, residual in products
                        if not any(residual)
                    )
                    span.extend([{index[gens]: v for gens, v in w.items()} for w in wedges])
                    top_spanned = all(span.members(kern))
            counts[d] = new_gens
        return ZGeneratorProfile(counts, top, top_spanned)


@dataclass
class GLIndexResult:
    """Outcome of an index scan: the exact value, or a certified lower bound
    when no linearity failure occurs up to i_max."""

    i_max: int
    value: int | None
    witness: tuple[int, int, int] | None  # (i, j, beta) of the first failure

    def __str__(self) -> str:
        if self.value is None:
            return f"ind >= {self.i_max} (certified up to i_max = {self.i_max})"
        i, j, beta = self.witness
        return f"ind = {self.value} (N_{self.value} holds; N_{i} fails: beta[{i},{j}] = {beta})"


@dataclass
class ZGeneratorProfile:
    counts: dict[int, int]
    top_degree: int
    top_layer_in_z1_span: bool | None  # None when t = 0

    def generator_degrees(self) -> list[int]:
        return sorted(d for d, v in self.counts.items() if v)


@dataclass
class DualityReport:
    checked: int
    direct: int
    mirrored: int
    mismatches: list[tuple[int, int, int, int]]  # (t, d, dim, partner_dim)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_duality(table: HomologyTable, engine: HomologyEngine) -> DualityReport:
    """Verify dim(t,d) == dim(partner) for every table entry.

    Partners already in a directly-computed table count as independent
    confirmations.  A missing partner is computed directly, unless the
    engine's duality is on and would serve the partner from the entry
    itself: then it is counted as mirrored, since that path restates the
    identity being checked.
    """
    checked = direct = mirrored = 0
    mismatches = []
    for (t, d), dim in sorted(table.entries.items()):
        td, dd = duality_partner(table.params, t, d)
        partner = table.entries.get((td, dd)) if table.computed_directly else None
        if partner is not None:
            direct += 1
        elif engine.use_duality and engine._side(td, dd) == (t, d):
            partner = engine.homology_dim(td, dd)
            mirrored += 1
        else:
            partner = sum(engine.orbit_dims(td, dd).values())
            direct += 1
        checked += 1
        if partner != dim:
            mismatches.append((t, d, dim, partner))
    return DualityReport(checked, direct, mirrored, mismatches)


@dataclass
class GreenBoundViolation:
    i: int
    t_i: int
    bound: Fraction
    sharpened: bool


@dataclass
class GreenBoundReport:
    columns_checked: int
    violations: list[GreenBoundViolation]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_green_bound(btable: BettiTable) -> GreenBoundReport:
    """Assert every t_i of the table satisfies t_i < 1 + i + (i-k)/c, with the
    sharper (i-k-1)/c version when the field inverts (c+1)! and i >= c.
    A violation is a build-stopping bug, reported not raised."""
    c = btable.params.c
    sharp_ok = btable.field.inverts(math.factorial(c + 1))
    violations: list[GreenBoundViolation] = []
    columns = 0
    for i, t_i in sorted(btable.max_degrees().items()):
        columns += 1
        if t_i is None:
            continue
        bound = 1 + i + Fraction(i - btable.k, c)
        if not t_i < bound:
            violations.append(GreenBoundViolation(i, t_i, bound, False))
        if sharp_ok and i >= c:
            sharp = 1 + i + Fraction(i - btable.k - 1, c)
            if not t_i < sharp:
                violations.append(GreenBoundViolation(i, t_i, sharp, True))
    return GreenBoundReport(columns, violations)


@dataclass
class VanishingReport:
    checked: int
    failures: list[tuple[int, int, int]]  # (t, d, dim)
    sharp_checked: int
    sharp_failures: list[tuple[int, int, int]]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.sharp_failures


def verify_vanishing(params: RingParams, field: FieldSpec, cache=None) -> VanishingReport:
    """Directly compute H_t(tc+j) for all t <= N-n and j >= t+c and confirm
    the zeros.  The scan covers the degrees where chains exist on both
    sides of the dual window, and c degrees past its top; beyond that the
    dual-degree basis is empty.  The sharper char-0 statement
    (j = t+c-1 for t >= c) is included when the field inverts (c+1)!."""
    engine = HomologyEngine(params, field, cache=cache, use_duality=False)
    structural_top = params.N * params.c - params.n
    checked = 0
    failures = []
    for t in range(params.N - params.n + 1):
        j = t + params.c
        while t * params.c + j <= structural_top + params.c:
            d = t * params.c + j
            dim = engine.homology_dim(t, d)
            checked += 1
            if dim:
                failures.append((t, d, dim))
            j += 1
    sharp_checked = 0
    sharp_failures = []
    if field.inverts(math.factorial(params.c + 1)):
        for t in range(params.c, params.N - params.n + 1):
            d = t * params.c + t + params.c - 1
            dim = engine.homology_dim(t, d)
            sharp_checked += 1
            if dim:
                sharp_failures.append((t, d, dim))
    return VanishingReport(checked, failures, sharp_checked, sharp_failures)

