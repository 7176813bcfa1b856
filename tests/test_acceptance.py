"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  The characteristic-5
stretch check runs in the default gate: its largest block, 14,028 x 10,234
at (2,...,2), reduces to a 276 x 1,008 Morse matrix.
"""

import time

import pytest

from koszul.cli import RankCache, main
from koszul.combinatorics import RingParams
from koszul.cycles import (
    coefficient_space_dim,
    sample_nonzero_cycles,
    verify_factorial_theorem,
)
from koszul.exactla import FieldSpec
from koszul.homology import (
    HomologyEngine,
    HomologyTable,
    check_duality,
    check_green_bound,
    verify_vanishing,
)

QF = FieldSpec.rational(policy="fraction_free")


def Q3(seed: int = 0) -> FieldSpec:
    return FieldSpec.rational(policy="multiprime", num_primes=3, seed=seed)


# Expected dim H(m^3) diagram for n = 3: entry (t, j) is the dimension in
# internal degree 3t + j.  The (1,2) entry and its dual (6,4) are pinned by
# the Euler characteristic in degree 5: dim K_0 - dim K_1 = 21 - 60 = -39
# with H_0(5) = 0 and no higher chains, so dim H_1(deg 5) = 39; the rank of
# the multiplication matrix S_2 (x) S_3 -> S_5 confirms it independently.
DIAGRAM_33 = {
    0: {0: 1, 1: 3, 2: 6},
    1: {1: 15, 2: 39, 3: 27},
    2: {1: 21, 2: 105, 3: 105, 4: 21},
    3: {2: 147, 3: 189, 4: 105},
    4: {2: 105, 3: 189, 4: 147},
    5: {2: 21, 3: 105, 4: 105, 5: 21},
    6: {3: 27, 4: 39, 5: 15},
    7: {4: 6, 5: 3, 6: 1},
}


@pytest.fixture(scope="module")
def run33():
    """Criterion-1 run: direct (no duality shortcut) full table over the
    3-prime multiprime rational policy, with its engine and elapsed time."""
    engine = HomologyEngine(
        RingParams(3, 3), Q3(), cache=RankCache(None), use_duality=False
    )
    started = time.monotonic()
    table = engine.homology_table(7, 27)
    elapsed = time.monotonic() - started
    return engine, table, elapsed


@pytest.fixture(scope="module")
def run42():
    engine = HomologyEngine(
        RingParams(4, 2), Q3(), cache=RankCache(None), use_duality=False
    )
    table = engine.homology_table(6, 16)
    return engine, table


def test_criterion_01_paper_diagram(run33):
    engine, table, elapsed = run33
    # validate the table convention before using it: the t = 0 column is the
    # Hilbert function of the length-10 quotient, and the duality corners match
    assert [table.dim(0, j) for j in range(4)] == [1, 3, 6, 0]
    assert table.dim(0, 0) == table.dim(7, 27) == 1
    assert table.dim(1, 4) == table.dim(6, 23) == 15

    mismatches = []
    nonzero = 0
    for t in range(8):
        for j in range(8):
            d = 3 * t + j
            expected = DIAGRAM_33.get(t, {}).get(j, 0)
            got = table.dim(t, d)
            if got != expected:
                mismatches.append((t, j, got, expected))
            nonzero += 1 if got else 0
    assert not mismatches, mismatches
    assert nonzero == 26

    # certification: every strand the engine resolved carries a p=0 record,
    # which only a proof writes (fraction-free elimination, or one prime's
    # record with no two adjacent nonzero homology levels), and no sampled
    # per-prime record is left
    keys = engine.cache._mem
    strands = set(engine._records)
    assert strands
    uncertified = [alpha for alpha in strands if (3, 3, alpha, 0) not in keys]
    assert not uncertified, f"{len(uncertified)} strands lack a certified record"
    sampled = [key for key in keys if key[3] > 0]
    assert not sampled, f"{len(sampled)} per-prime records left"

    assert elapsed < 300, f"criterion-1 run took {elapsed:.0f}s"
    print(f"\nPASS criterion 1: diagram exact (26 nonzero entries, "
          f"{len(strands)} strands certified at one prime, {elapsed:.1f}s)")


def test_criterion_02_index_n3_c3():
    res = HomologyEngine(RingParams(3, 3), Q3(), cache=RankCache(None)).gl_index()
    assert res.value == 6 == 3 * 3 - 3
    assert res.witness == (7, 9, 1)
    print("\nPASS criterion 2: ind = 6 at (n,c) = (3,3), failure witness beta[7,9] = 1")


def test_criterion_03_index_n4_c2():
    engine = HomologyEngine(RingParams(4, 2), Q3(), cache=RankCache(None))
    started = time.monotonic()
    res = engine.gl_index()
    elapsed = time.monotonic() - started
    assert res.value == 5
    assert res.witness == (6, 8, 1)
    assert elapsed < 600, f"criterion-3 run took {elapsed:.0f}s"
    print(f"\nPASS criterion 3: ind = 5 at (n,c) = (4,2) in {elapsed:.1f}s")


@pytest.mark.parametrize(
    "n, c, value, witness", [(6, 2, 5, (6, 8, 1764)), (7, 2, 5, (6, 8, 24696))]
)
def test_criterion_03_index_sampled_rows(n, c, value, witness):
    # a sampled rank never exceeds the true rank, so every sampled zero below
    # the index is a proof and the "N_5 holds" half is certified; the witness
    # Betti number itself is sampled (3-prime agreement), not certified
    res = HomologyEngine(RingParams(n, c), Q3(), cache=RankCache(None)).gl_index()
    assert res.value == value and res.witness == witness
    assert res.value >= c + 1
    print(f"\nPASS criterion 3: ind = {value} at (n,c) = ({n},{c}), "
          f"sampled failure witness beta[{witness[0]},{witness[1]}] = {witness[2]}")


@pytest.mark.parametrize("n, c, value, witness", [(5, 2, 5, (6, 8, 70)), (3, 4, 9, (10, 12, 55))])
def test_criterion_03_index_fast_rows(n, c, value, witness):
    # fraction-free ranks certify the witness Betti number as well as the index
    res = HomologyEngine(RingParams(n, c), QF, cache=RankCache(None)).gl_index()
    assert res.value == value and res.witness == witness
    assert res.value >= c + 1
    if c >= 3:
        assert res.value == 3 * c - 3
    print(f"\nPASS criterion 3: ind = {value} at (n,c) = ({n},{c}), "
          f"failure witness beta[{witness[0]},{witness[1]}] = {witness[2]}")


@pytest.fixture(scope="module")
def run72():
    """Criterion-4 runs at n=7, c=2 over F_3 and over the rationals."""
    p = RingParams(7, 2)
    e3 = HomologyEngine(p, FieldSpec.prime(3), cache=RankCache(None))
    parts3 = e3.orbit_dims(2, 7)
    dim3 = sum(parts3.values())
    e0 = HomologyEngine(p, Q3(), cache=RankCache(None))
    parts0 = e0.orbit_dims(2, 7)
    dim0 = sum(parts0.values())
    return (e3, dim3, parts3), (e0, dim0, parts0)


def test_criterion_04_char3_jump(run72):
    (_, dim3, parts3), (_, dim0, parts0) = run72
    assert dim3 == 1
    assert parts3 == {(1, 1, 1, 1, 1, 1, 1): 1}
    assert dim0 == 0 and parts0 == {}
    print("\nPASS criterion 4: dim H_2(deg 7) = 1 over F_3 supported at "
          "(1,1,1,1,1,1,1); 0 over the rationals")


def test_criterion_05_duality(run33, run42, run72):
    engine33, table33, _ = run33
    rep33 = check_duality(table33, engine33)
    assert rep33.ok and rep33.mirrored == 0
    assert rep33.checked == len(table33.entries)

    engine42, table42 = run42
    rep42 = check_duality(table42, engine42)
    assert rep42.ok and rep42.mirrored == 0

    # the n=7 entries: partners live at t=19, degree 42, far past direct
    # feasibility, so those equalities ride the mirrored path (flagged)
    (e3, dim3, _), (e0, dim0, _) = run72
    t3 = HomologyTable(e3.params, {(2, 7): dim3})
    t0 = HomologyTable(e0.params, {(2, 7): dim0})
    rep3 = check_duality(t3, e3)
    rep0 = check_duality(t0, e0)
    assert rep3.ok and rep0.ok
    print(f"\nPASS criterion 5: duality holds on {rep33.checked} + {rep42.checked}"
          f" direct entries and {rep3.checked + rep0.checked} mirrored entries")


def test_criterion_06_vanishing():
    total = sharp = 0
    for n, c in [(3, 2), (3, 3), (4, 2)]:
        report = verify_vanishing(RingParams(n, c), Q3(), cache=RankCache(None))
        assert report.ok, (n, c, report.failures, report.sharp_failures)
        total += report.checked
        sharp += report.sharp_checked
    print(f"\nPASS criterion 6: {total} window zeros and {sharp} sharpened zeros confirmed")


def test_criterion_07_factorial():
    checked = 0
    for n, c in [(3, 2), (4, 2), (3, 3)]:
        params = RingParams(n, c)
        for field in (QF, FieldSpec.prime(5)):  # 5 is the smallest prime > c+1 here
            report = verify_factorial_theorem(params, 20, seed=20 * n + c, field=field)
            assert report.ok, (n, c, field.describe(), len(report.failures))
            assert len(report.witnesses) == 20
            checked += 20
    stratum = verify_factorial_theorem(
        RingParams(7, 2), 0, 0, FieldSpec.prime(3), stratum=(1,) * 7
    )
    assert stratum.ok  # the scaled elements vanish mod 3, hence bound
    assert len(stratum.findings) >= 1
    print(f"\nPASS criterion 7: {checked} scaled witnesses bound over Q and F_5; "
          f"{len(stratum.findings)}/{len(stratum.witnesses)} unscaled non-boundary "
          f"witnesses over F_3 at n=7")


def test_criterion_08_coefficient_dimension():
    cycles = sample_nonzero_cycles(200, seed=8)
    assert len(cycles) == 200
    for z in cycles:
        dim = coefficient_space_dim(z)
        assert dim >= z.t + 1, (z.params, z.t, dim)
    print("\nPASS criterion 8: coefficient span >= t+1 on 200 seeded nonzero cycles")


def test_criterion_09_green_bound(run72):
    tables = []
    for n, c, ks in [(3, 3, (0, 1, 2)), (4, 2, (0,))]:
        params = RingParams(n, c)
        engine = HomologyEngine(params, Q3(), cache=RankCache(None))
        for k in ks:
            tables.append(engine.betti_table(k, params.N - n))
    (e3, _, _), _ = run72
    bt = e3.betti_table(1, 2)
    assert bt.beta(2, 3) == 1  # char-3 entry, within the unsharpened bound
    tables.append(bt)
    tables.append(e3.betti_table(0, 2))
    for table in tables:
        report = check_green_bound(table)
        assert report.ok, (table.params, table.k, report.violations)
    print(f"\nPASS criterion 9: degree bounds hold on {len(tables)} Betti tables "
          f"(incl. the characteristic-3 entry beta[2,3](V(2,1)) = 1)")


def test_criterion_10_z_generator_profiles():
    for n, c, t in [(2, 2, 1), (3, 2, 1), (3, 2, 2), (3, 3, 1)]:
        engine = HomologyEngine(RingParams(n, c), QF, cache=RankCache(None))
        profile = engine.z_generator_profile(t)
        late = [d for d in profile.generator_degrees() if d > profile.top_degree]
        assert not late, (n, c, t, late)
        assert profile.top_layer_in_z1_span is True, (n, c, t)
    print("\nPASS criterion 10: Z_t generated within degree t(c+1), top layer "
          "spanned by Z_1 powers, at all four configurations")


def test_criterion_11_structural_invariants(run33):
    engine, _, _ = run33
    for d in range(28):
        lhs, rhs = engine.euler_characteristic(d)
        assert lhs == rhs, (d, lhs, rhs)
    print("\nPASS criterion 11: Euler characteristic consistent in every degree")


def test_criterion_12_stretch_char5_jump():
    p = RingParams(7, 2)
    dim5 = HomologyEngine(p, FieldSpec.prime(5), cache=RankCache(None)).homology_dim(5, 14)
    dim0 = HomologyEngine(p, Q3(), cache=RankCache(None)).homology_dim(5, 14)
    assert dim5 != 0
    assert dim0 == 0
    print(f"\nPASS criterion 12: beta[5,7] jumps to {dim5} in characteristic 5")


def test_criterion_12_chardep_names_5(capsys):
    # the Smith form of the 276 x 1,008 Morse matrix at (2,...,2), t = 6, has
    # one divisor 5; under the default guard its 278,208 cells are skipped
    base = ["chardep", "--n", "7", "--c", "2", "--t", "5", "--deg", "14"]
    assert main([*base, "--snf-guard", "300000"]) == 0
    assert capsys.readouterr().out == "characteristics where dimensions can jump: 5\n"
    assert main(base) == 0
    assert capsys.readouterr().out == (
        "characteristics where dimensions can jump: unknown (partial: 1 skipped, listed below)\n"
        "  skipped block t=6 alpha=(2, 2, 2, 2, 2, 2, 2) (278208 cells over --snf-guard)\n"
    )
    print("\nPASS criterion 12: chardep names the prime 5")
