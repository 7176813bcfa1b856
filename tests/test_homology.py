import itertools

import pytest

from koszul import complex, cycles, exactla, homology
from koszul.cache import RankCache
from koszul.combinatorics import (
    RingParams,
    compositions,
    monomial_table,
    orbit_size,
    partitions_into,
    unit_vector,
    vec_sub,
)
from koszul.complex import differential_block
from koszul.exactla import FieldSpec, UnsupportedPolicyError
from koszul.homology import (
    Z_PROFILE_DEGREES_PAST_TOP,
    HomologyEngine,
    check_duality,
    check_green_bound,
    duality_partner,
    verify_vanishing,
)

QM = FieldSpec.rational(policy="multiprime", num_primes=3, seed=0)
QF = FieldSpec.rational(policy="fraction_free")


def engine(n, c, field=QM, **kw):
    return HomologyEngine(RingParams(n, c), field, **kw)


def test_h0_is_the_quotient_hilbert_function():
    e = engine(3, 3)
    assert [e.homology_dim(0, d) for d in range(5)] == [1, 3, 6, 0, 0]


def test_one_variable_ring():
    e = engine(1, 3)
    assert [e.homology_dim(0, d) for d in range(5)] == [1, 1, 1, 0, 0]
    for t in (1, 2):
        for d in range(8):
            assert e.homology_dim(t, d) == 0


def test_two_variable_quadrics():
    e = engine(2, 2)
    assert e.homology_dim(1, 3) == 2


def test_table_values():
    e = engine(3, 3)
    assert e.homology_dim(1, 4) == 15
    assert e.homology_dim(2, 8) == 105
    assert e.homology_dim(3, 12) == 189
    assert e.homology_dim(7, 27) == 1
    assert e.homology_dim(1, 6) == 27


def test_char3_jump_with_orbit_support():
    e3 = engine(7, 2, FieldSpec.prime(3))
    assert e3.homology_dim(2, 7) == 1
    parts = e3.orbit_dims(2, 7)
    assert parts == {(1, 1, 1, 1, 1, 1, 1): 1}
    e0 = engine(7, 2)
    assert e0.homology_dim(2, 7) == 0


def test_orbit_dims_sum_to_homology_dim():
    e = engine(3, 2)
    for t in (0, 1, 2):
        for d in (0, 1, 4, 5, 6, 7):
            parts = e.orbit_dims(t, d)
            assert e.homology_dim(t, d) == sum(parts.values())
            assert all(v > 0 for v in parts.values())


def test_duality_partner_involution():
    p = RingParams(3, 3)
    assert duality_partner(p, 0, 0) == (7, 27)
    assert duality_partner(p, 1, 4) == (6, 23)
    for i in range(9):
        for j in range(0, 28, 5):
            assert duality_partner(p, *duality_partner(p, i, j)) == (i, j)


def test_duality_dimensions_spot():
    e = engine(3, 3, use_duality=False)
    assert e.homology_dim(1, 4) == e.homology_dim(6, 23) == 15
    assert e.homology_dim(0, 0) == e.homology_dim(7, 27) == 1


def test_check_duality_direct_small():
    e = engine(3, 2, use_duality=False)
    table = e.homology_table(3, 9)
    report = check_duality(table, e)
    assert report.ok
    assert report.mirrored == 0
    assert report.checked == len(table.entries)


def test_duality_acceleration_picks_cheap_side():
    e = engine(4, 2)
    # the high corner flips to the trivial degree-0 computation
    before = dict(e.stats)
    assert e.homology_dim(6, 16) == 1
    assert e.stats["eliminations"] == before["eliminations"]


# Over one prime, stats["eliminations"] counts the strand records an engine
# resolves, one per strand key (sorted, each part capped at M).
FP = FieldSpec.prime(32003)


def test_duality_side_keeps_the_table_and_resolves_fewer_records():
    e = HomologyEngine(RingParams(3, 3), FP)
    table = e.homology_table(7, 27)
    assert e.stats["eliminations"] == 112
    direct = HomologyEngine(RingParams(3, 3), FP, use_duality=False)
    assert table.entries == direct.homology_table(7, 27).entries


def test_duality_side_index_scan_resolves_fewer_records():
    e = HomologyEngine(RingParams(6, 2), FP)
    result = e.gl_index()
    assert e.stats["eliminations"] == 250
    assert result.value == 5
    assert result.witness == (6, 8, 1764)


def test_duality_side_prefers_a_chainless_partner():
    # H_2 in degree 21 has chains; its partner (19, 28) has none (28 < 38)
    # and reads 0 at once, though its degree is the higher one
    e = HomologyEngine(RingParams(7, 2), FieldSpec.prime(3))
    assert e.homology_dim(2, 21) == 0
    assert e.stats["eliminations"] == 0


def test_euler_characteristic():
    e = engine(3, 3)
    for d in (0, 1, 5, 9, 12, 20, 27):
        lhs, rhs = e.euler_characteristic(d)
        assert lhs == rhs


def test_betti_examples():
    e = engine(3, 3)
    assert e.betti(0, 1, 2) == 27
    assert e.betti(0, 0, 0) == 1
    assert e.betti(0, 0, 1) == 0  # generated in degree 0
    e22 = engine(2, 2)
    assert e22.betti(1, 1, 1) == 2
    with pytest.raises(ValueError):
        e.betti(3, 1, 1)


def test_gl_index_values():
    assert engine(3, 3).gl_index().value == 6
    res = engine(3, 3).gl_index()
    assert res.witness == (7, 9, 1)
    res42 = engine(4, 2).gl_index()
    assert res42.value == 5 and res42.witness == (6, 8, 1)
    res2 = engine(2, 3).gl_index()
    assert res2.value is None and res2.i_max == 2
    for c in (2, 3, 4):
        r = engine(2, c).gl_index()
        assert r.value is None  # two variables: linear syzygies forever


def test_gl_index_lower_bound_consistency():
    # index >= c+1 at the small acceptance configurations
    for n, c in [(3, 2), (3, 3), (4, 2)]:
        res = engine(n, c).gl_index()
        value = res.value if res.value is not None else res.i_max
        assert value >= c + 1


def test_green_bound_tables():
    for k in (0, 1, 2):
        report = check_green_bound(engine(3, 3).betti_table(k, 7))
        assert report.ok, report.violations


def test_green_bound_char3_entry_within_unsharpened():
    e = engine(7, 2, FieldSpec.prime(3))
    bt = e.betti_table(1, 2)
    assert bt.beta(2, 3) == 1  # characteristic-dependent, inside the plain bound
    report = check_green_bound(bt)
    assert report.ok


def test_vanishing_suite_small():
    rep = verify_vanishing(RingParams(3, 2), QM)
    assert rep.ok and rep.checked > 0 and rep.sharp_checked > 0


FIELDS = [QM, QF, *(FieldSpec.prime(p) for p in (2, 3, 5, 7, 32003))]


@pytest.mark.parametrize("field", FIELDS, ids=FieldSpec.describe)
@pytest.mark.parametrize("n,c", [(3, 2), (3, 3)])
def test_sharp_checks_run_in_char_0_or_above_c_plus_1(n, c, field):
    # the paper's hypothesis, written out: char K = 0 or char K > c+1
    char = field.characteristic
    sharp = char == 0 or char > c + 1
    params = RingParams(n, c)
    report = verify_vanishing(params, field)
    assert report.ok
    assert (report.sharp_checked > 0) == sharp
    # beta[c+1, c+3] lies inside the plain bound c+3 < 1 + (c+1) + (c+1)/c
    # and on the sharpened one, 1 + (c+1) + c/c = c+3
    probe = homology.BettiTable(params, 0, field, {(c + 1, c + 3): 1})
    violations = [(v.i, v.t_i, v.sharpened) for v in check_green_bound(probe).violations]
    assert violations == ([(c + 1, c + 3, True)] if sharp else [])


def _betti_with(monkeypatch, i, j):
    """Make every engine report beta[i,j](V(c,0)) = 1 over its true table."""
    original = HomologyEngine.betti

    def betti(self, k, i_, j_):
        return 1 if (k, i_, j_) == (0, i, j) else original(self, k, i_, j_)

    monkeypatch.setattr(HomologyEngine, "betti", betti)


def test_index_below_c_plus_2_raises_where_the_field_inverts_the_factorial(monkeypatch):
    # for i <= c the degree bound leaves no j > i+1 to scan, so the first
    # position with i <= c+1 that the scan reads is (c+1, c+3) = (4, 6)
    _betti_with(monkeypatch, 4, 6)
    for field in (QM, QF, FieldSpec.prime(5)):
        with pytest.raises(ArithmeticError, match=r"beta\[4,6\] = 1 gives ind = 3, but ind >= 4"):
            engine(3, 3, field).gl_index()
    for p in (2, 3):  # p divides 4! = 24: the theorem says nothing
        res = engine(3, 3, FieldSpec.prime(p)).gl_index()
        assert (res.value, res.witness) == (3, (4, 6, 1))


def test_index_of_c_plus_1_agrees_with_the_theorem(monkeypatch):
    # a first failure at i = c+2 gives ind = c+1, which the scan returns
    _betti_with(monkeypatch, 5, 7)
    res = engine(3, 3, QF).gl_index()
    assert (res.value, res.witness) == (4, (5, 7, 1))


def test_z_profile_trivial_and_guarded():
    prof = engine(2, 2, QF).z_generator_profile(0)
    assert prof.counts == {0: 1}
    assert prof.top_layer_in_z1_span is None
    with pytest.raises(UnsupportedPolicyError):
        engine(2, 2, QM).z_generator_profile(1)


def test_z_profile_two_variables():
    prof = engine(2, 2, QF).z_generator_profile(1)
    assert prof.counts[3] == 2
    assert all(v == 0 for d, v in prof.counts.items() if d != 3)
    assert prof.top_layer_in_z1_span is True


def test_z_profile_matches_kernel_dimensions():
    # degree-3 generators of Z_1 at n=3, c=2: dim Z_{1,3} = 18 - 10 = 8,
    # nothing below, nothing above
    prof = engine(3, 2, QF).z_generator_profile(1)
    assert prof.generator_degrees() == [3]
    assert prof.counts[3] == 8


def test_mod_p_profile_agrees_with_rational_here():
    pf = engine(3, 2, FieldSpec.prime(10007)).z_generator_profile(2)
    qf = engine(3, 2, QF).z_generator_profile(2)
    assert pf.counts == qf.counts


def _dense(vec, length):
    out = [0] * length
    for i, v in vec.items():
        out[i] = v
    return out


def _profile_over_compositions(e, t):
    """(counts, top_layer_in_z1_span) of Z_t from every composition of each
    degree, unweighted: the scan the orbit profile replaced, kept as its
    oracle."""
    params, field = e.params, e.field
    top = t * (params.c + 1)
    z1_gens = [
        cycles.z1_generator(params, b, i, j)
        for b in monomial_table(params.n, params.c - 1)[0]
        for i in range(params.n)
        for j in range(i + 1, params.n)
    ]
    counts, spanned, prev = {}, True, {}
    for d in range(t * params.c, top + Z_PROFILE_DEGREES_PAST_TOP + 1):
        cur, counts[d] = {}, 0
        for alpha in compositions(params.n, d):
            blk = differential_block(params, t, alpha)
            if not blk.cols:
                continue
            index = {gens: pos for pos, gens in enumerate(blk.cols)}
            kern = exactla.kernel_basis(blk, field)
            cur[alpha] = blk.cols, kern
            if not kern:
                continue
            images = []
            for var in range(params.n):
                b_cols, b_kern = prev.get(vec_sub(alpha, unit_vector(params.n, var)), ((), ()))
                for vec in b_kern:
                    mapped = [0] * len(index)
                    for pos, value in vec.items():
                        mapped[index[b_cols[pos]]] = value
                    images.append({i: v for i, v in enumerate(mapped) if v})
            span = exactla.VectorSpan(len(index), field)
            span.extend(images)
            counts[d] += len(kern) - span.rank
            if d == top:
                # every wedge of t distinct generators whose degrees sum to alpha
                wedges = [
                    cycles.wedge(*chosen).terms
                    for chosen in itertools.combinations(z1_gens, t)
                    if tuple(map(sum, zip(*(z.alpha for z in chosen)))) == alpha
                ]
                span.extend([{index[gens]: v for gens, v in w.items()} for w in wedges])
                spanned = spanned and all(span.contains(_dense(v, len(index))) for v in kern)
        prev = cur
    return counts, spanned


@pytest.mark.parametrize(
    "field", [QF, FieldSpec.prime(2), FieldSpec.prime(3), FP], ids=lambda f: f.describe()
)
@pytest.mark.parametrize("n, c, t", [(2, 2, 1), (3, 2, 1), (3, 2, 2), (3, 2, 3), (4, 2, 2), (3, 3, 2)])
def test_orbit_profile_matches_the_composition_scan(n, c, t, field):
    e = HomologyEngine(RingParams(n, c), field)
    prof = e.z_generator_profile(t)
    assert (prof.counts, prof.top_layer_in_z1_span) == _profile_over_compositions(e, t)


@pytest.mark.parametrize(
    "n, c, t, field, counts",
    [
        (4, 2, 2, QF, {4: 0, 5: 36, 6: 50, 7: 0, 8: 0}),
        (5, 2, 2, FP, {4: 0, 5: 126, 6: 175, 7: 0, 8: 0}),
        (3, 3, 3, FieldSpec.prime(3), {9: 0, 10: 0, 11: 147, 12: 28, 13: 0, 14: 0}),
    ],
)
def test_z_profile_pinned(n, c, t, field, counts):
    prof = HomologyEngine(RingParams(n, c), field).z_generator_profile(t)
    assert prof.counts == counts
    assert prof.top_layer_in_z1_span is True


def test_z_profile_builds_each_kernel_and_z1_generator_once(monkeypatch):
    # one kernel per orbit representative and per neighbour alpha - e_i it
    # needs, one build per two-term generator; the per-composition scan
    # took 440 kernels and 444 builds
    calls = {"kernel": 0, "z1": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(exactla, "kernel_basis", counting("kernel", exactla.kernel_basis))
    monkeypatch.setattr(cycles, "z1_generator", counting("z1", cycles.z1_generator))
    prof = engine(4, 2, QF).z_generator_profile(2)
    assert prof.counts == {4: 0, 5: 36, 6: 50, 7: 0, 8: 0}
    assert calls == {"kernel": 74, "z1": 20}


def test_engine_counts_one_link_per_strand(monkeypatch):
    # the (4,2) vanishing suite resolves 597 orbits but only 113 strand keys,
    # one strand each, and each strand counts its link once; with their
    # slack fields cleared those are 92 distinct questions, and a second
    # engine asks them all again
    asked = []
    strands = []
    subset_counts, strand = complex._subset_counts, complex.Strand

    def count_link(*args):
        asked.append(args)
        return subset_counts(*args)

    def build(*args):
        strands.append(args)
        return strand(*args)

    monkeypatch.setattr(complex, "_subset_counts", count_link)
    monkeypatch.setattr(homology, "Strand", build)
    assert verify_vanishing(RingParams(4, 2), QM).ok
    assert (len(strands), len(asked), len(set(asked))) == (113, 113, 92)
    assert verify_vanishing(RingParams(4, 2), QM).ok
    assert (len(strands), len(asked), len(set(asked))) == (226, 226, 92)


def test_acceleration_matches_direct():
    e = engine(4, 2)
    direct = engine(4, 2, use_duality=False)
    for t in range(0, 7):
        for d in range(2 * t, 17, 3):
            assert e.homology_dim(t, d) == direct.homology_dim(t, d)


@pytest.mark.parametrize("n, c, top", [(1, 3, None), (2, 2, None), (3, 3, None), (4, 2, None), (7, 2, 24)])
def test_orbit_lists_match_the_one_rep_at_a_time_oracle(n, c, top):
    # every degree up to N*c - n + c (at (7,2) up to 24), where the first
    # parts pass M and the keys are capped
    params = RingParams(n, c)
    e = HomologyEngine(params, QM)
    top = params.N * c - n + c if top is None else top
    capped = 0
    for d in range(top + 1):
        oracle = [(rep, orbit_size(rep), complex.strand_key(params, rep))
                  for rep in partitions_into(d, n)]
        orbits = e._orbits_of(d)
        assert orbits == oracle, d
        # a rep that is its own key is kept as one tuple
        assert all(key is rep for rep, _, key in orbits if rep[0] <= params.M)
        capped += sum(rep[0] > params.M for rep, _, _ in orbits)
    assert capped


def test_default_engine_memoizes_ranks():
    e = HomologyEngine(RingParams(3, 3), QM)
    assert e.homology_dim(2, 8) == 105
    before = dict(e.stats)
    assert before["eliminations"] > 0
    assert e.homology_dim(2, 8) == 105
    assert e.stats["eliminations"] == before["eliminations"]
    assert e.stats["cache_hits"] > before["cache_hits"]


def test_warm_engine_reads_each_record_once():
    # a warm 2-prime engine reads the p=0 record of each sorted
    # representative once, however many (t, d) its strand serves: at (3,3)
    # one prime proves every strand's rational record, so no per-prime
    # record exists to be read
    params, field = RingParams(3, 3), FieldSpec.rational(num_primes=2, seed=0)
    cache = RankCache(None)
    cold = HomologyEngine(params, field, cache=cache).homology_table(7, 27)
    gets = []
    get = cache.get

    def spy(n, c, alpha, p):
        got = get(n, c, alpha, p)
        gets.append((tuple(alpha), p, got is not None))
        return got

    cache.get = spy
    warm = HomologyEngine(params, field, cache=cache)
    assert warm.homology_table(7, 27).entries == cold.entries
    reps = {alpha for alpha, _, _ in gets}
    assert len(gets) == len(reps)
    assert all(hit for _, _, hit in gets)
    assert {p for _, p, _ in gets} == {0}
    assert warm.stats["eliminations"] == 0


def test_one_prime_record_is_stored_once_under_p0():
    # a cold 2-prime engine proves each (3,3) strand record at the first
    # seeded prime and stores it under p=0 alone, with one elimination each
    params, field = RingParams(3, 3), FieldSpec.rational(num_primes=2, seed=0)
    cache = RankCache(None)
    e = HomologyEngine(params, field, cache=cache)
    assert e.homology_dim(2, 8) == 105
    assert set(cache._mem) == {(3, 3, rep, 0) for rep in e._records}
    assert e.stats["eliminations"] == len(e._records)


def test_one_cache_serves_two_fields():
    # records are keyed by p: the F_3 engine and the sampled primes share a
    # cache without reading each other's ranks, whichever fills it first
    params, f3 = RingParams(7, 2), FieldSpec.prime(3)
    for fields in ((f3, QM), (QM, f3)):
        cache = RankCache(None)
        for _ in range(2):  # the second pair of engines replays the first's records
            engines = [HomologyEngine(params, f, cache=cache) for f in fields]
            for _ in range(2):
                dims = [e.homology_dim(2, 7) for e in engines]
                assert dims == [1 if f is f3 else 0 for f in fields]
