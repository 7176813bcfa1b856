import json
import os
import re
import sys
from pathlib import Path

import pytest

from koszul import complex, exactla
from koszul.cache import cache_path
from koszul.cli import (
    ENGINE_VERSION,
    RankCache,
    RunConfig,
    build_parser,
    main,
    render_diagram,
    structural_zero,
)
from koszul.combinatorics import RingParams
from koszul.cycles import sample_nonzero_cycles


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_homology_command_char3(capsys):
    code, out = run_cli(
        capsys, "homology", "--n", "7", "--c", "2", "--t", "2", "--deg", "7", "--char", "3"
    )
    assert code == 0
    assert "= 1" in out
    assert "(1, 1, 1, 1, 1, 1, 1)" in out


def test_homology_command_json(capsys):
    code, out = run_cli(
        capsys, "homology", "--n", "7", "--c", "2", "--t", "2", "--deg", "7",
        "--char", "3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"query", "result", "meta"}
    assert payload["result"][0]["dim"] == 1
    assert payload["result"][0]["orbits"] == [{"rep": [1, 1, 1, 1, 1, 1, 1], "dim": 1}]
    assert payload["meta"]["char_policy"] == "prime(3)"
    assert payload["meta"]["primes_used"] == [3]
    assert payload["meta"]["engine_version"] == ENGINE_VERSION


def test_table_diagram_small(capsys):
    code, out = run_cli(capsys, "table", "--n", "2", "--c", "2", "--char", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("|")[1].split() == ["0", "1"]
    assert lines[2].split("|")[1].split() == ["1", "-"]
    assert lines[3].split("|")[1].split() == ["2", "2"]  # two linear syzygies
    assert lines[4].split("|")[1].split() == ["-", "1"]


def test_table_csv_sorted(capsys):
    code, out = run_cli(
        capsys, "table", "--n", "2", "--c", "2", "--char", "0", "--format", "csv"
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "t,d,dim"
    keys = [tuple(map(int, r.split(",")[:2])) for r in rows[1:]]
    assert keys == sorted(keys)


def test_index_command(capsys):
    code, out = run_cli(capsys, "index", "--n", "4", "--c", "2", "--char", "0")
    assert code == 0
    assert out.startswith("ind = 5")


def test_verify_duality_ok(capsys):
    code, out = run_cli(
        capsys, "verify", "duality", "--n", "3", "--c", "2", "--tmax", "4", "--char", "0"
    )
    assert code == 0
    assert out.startswith("OK (")
    # the CLI engine has duality off, so partners past the direct-work cap or
    # past N-n are still computed directly, and are counted as such
    code, out = run_cli(capsys, "verify", "duality", "--n", "5", "--c", "2", "--tmax", "2")
    assert code == 0 and out == "OK (72 entries checked, 72 direct, 0 mirrored)\n"


def test_verify_vanishing_ok(capsys):
    code, out = run_cli(capsys, "verify", "vanishing", "--n", "3", "--c", "2", "--char", "0")
    assert code == 0
    assert out.startswith("OK (")


def test_verify_zgen_ok(capsys):
    code, out = run_cli(
        capsys, "verify", "zgen", "--n", "2", "--c", "2", "--t", "1", "--char", "0"
    )
    assert code == 0
    assert "3:2" in out
    assert "OK" in out


def test_verify_factorial_char3_reports_findings(capsys):
    code, out = run_cli(
        capsys, "verify", "factorial", "--n", "7", "--c", "2", "--char", "3",
        "--stratum", "1", "1", "1", "1", "1", "1", "1",
    )
    assert code == 0  # expected findings, not failures
    assert "findings: 630" in out



@pytest.mark.parametrize("stratum", [["4", "3"], ["3", "2", "2", "5"], ["9", "-1", "-1"]])
def test_verify_factorial_stratum_must_be_n_nonnegative_integers(capsys, stratum):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "factorial", "--n", "3", "--c", "2", "--stratum", *stratum])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n=3" in captured.err


def test_verify_coeffdim(capsys):
    code, out = run_cli(
        capsys, "verify", "coeffdim", "--n", "3", "--c", "2", "--samples", "25", "--seed", "5"
    )
    assert code == 0
    assert out.startswith("OK (25 nonzero cycles with n <= 3, c <= 2")
    code, out = run_cli(
        capsys, "verify", "coeffdim", "--n", "9", "--c", "9", "--samples", "25", "--seed", "5"
    )
    assert code == 0
    assert out.startswith("OK (25 nonzero cycles with n <= 9, c <= 9")
    sampled = sample_nonzero_cycles(25, 5, n_max=3, c_max=2)
    assert all(z.params.n <= 3 and z.params.c <= 2 for z in sampled)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "coeffdim", "--n", "1", "--c", "2"])
    assert exc.value.code == 2


def test_verify_greenbound(capsys):
    code, out = run_cli(capsys, "verify", "greenbound", "--n", "3", "--c", "2", "--char", "0")
    assert code == 0
    assert out.startswith("OK (")


def test_chardep_finds_three(capsys):
    code, out = run_cli(
        capsys, "chardep", "--n", "7", "--c", "2", "--t", "2", "--deg", "7", "--char", "0"
    )
    assert code == 0
    first = out.strip().splitlines()[0]
    assert "3" in first
    assert "5" not in first  # no prime above c+1 shows up


def test_chardep_with_a_skipped_block_is_partial(capsys):
    # the 189-cell block at (1^7) carries the prime 3; skipped, it leaves the
    # answer open instead of "none"
    code, out = run_cli(
        capsys, "chardep", "--n", "7", "--c", "2", "--t", "2", "--deg", "7", "--snf-guard", "100"
    )
    assert code == 0
    assert out == (
        "characteristics where dimensions can jump: unknown (partial: 1 skipped, listed below)\n"
        "  skipped block t=3 alpha=(1, 1, 1, 1, 1, 1, 1) (189 cells over --snf-guard)\n"
    )


def test_chardep_primes_beside_a_skipped_block_are_a_lower_bound(capsys, monkeypatch):
    # at n=5, c=2, deg 7 the Morse blocks of t=2 and 3 have 2 and 12 cells;
    # the guard skips the larger, and the smaller is made to carry a 3
    monkeypatch.setattr(exactla, "elementary_divisors", lambda m, max_cells: [1, 3])
    _, out = run_cli(
        capsys, "chardep", "--n", "5", "--c", "2", "--t", "2", "--deg", "7", "--snf-guard", "5"
    )
    assert out.splitlines()[0] == (
        "characteristics where dimensions can jump: 3 and possibly others "
        "(partial: 1 skipped, listed below)"
    )


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "3"])  # missing --c
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "3", "--c", "2", "--char", "9"])  # 9 not prime
    assert exc.value.code == 2



def test_parser_is_reused_and_left_unchanged(capsys):
    # one parser serves every call of a process; a call's options never
    # leak into the next one's defaults
    assert build_parser() is build_parser()
    table = ["table", "--n", "3", "--c", "2", "--format", "json"]
    code, out = run_cli(capsys, *table, "--exact", "--primes", "3", "--seed", "7")
    assert code == 0
    assert json.loads(out)["query"]["exact"] is True
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "3"])  # missing --c
    assert exc.value.code == 2
    capsys.readouterr()
    code, out = run_cli(capsys, *table)
    assert code == 0
    query = json.loads(out)["query"]
    assert (query["exact"], query["primes"], query["seed"]) == (False, 2, 0)


def test_structural_zero_positions():
    p = RingParams(3, 3)
    assert not structural_zero(p, 1, 3)  # linear-strand zero is computed, not structural
    assert not structural_zero(p, 1, 4)
    assert structural_zero(p, 1, 10)  # j = 7 >= t+c
    assert structural_zero(p, 8, 24)  # above depth bound
    assert structural_zero(p, 2, 5)  # below t*c: no chains


def test_render_diagram_alignment():
    p = RingParams(2, 2)
    entries = {(0, 0): 1, (1, 3): 2, (2, 6): 1, (0, 1): 2}
    text = render_diagram(p, entries, 2, 2)
    assert "|" in text.splitlines()[0]


def record(alpha, p, faces, ranks, **extra):
    rec = {"n": 2, "c": 2, "alpha": alpha, "p": p, "faces": faces, "ranks": ranks,
           "engine": ENGINE_VERSION}
    return json.dumps(dict(rec, **extra)) + "\n"


def test_cache_roundtrip(tmp_path):
    # the strand at (2,2,0) of m^2 in three variables: vertices x^2, xy, y^2
    # and the edge {x^2, y^2}
    path = str(tmp_path / "ranks.jsonl")
    cache = RankCache(path)
    cache.put(3, 2, (2, 2, 0), 0, [1, 3, 1], [0, 1, 1])
    cache.put(3, 2, (2, 2, 0), 7, [1, 3, 1], [0, 1, 1])
    assert cache.get(3, 2, (2, 2, 0), 0) == ((1, 3, 1), (0, 1, 1))
    assert cache.get(3, 2, (2, 2, 0), 7) == ((1, 3, 1), (0, 1, 1))
    assert cache.get(3, 2, (2, 2, 0), 11) is None  # p mismatch -> miss
    reloaded = RankCache(path)
    assert reloaded.get(3, 2, (2, 2, 0), 0) == ((1, 3, 1), (0, 1, 1))
    assert len(reloaded) == 2


def test_cache_skips_corrupt_lines(tmp_path, caplog):
    path = tmp_path / "ranks.jsonl"
    path.write_text(
        record([2, 0], 0, [1, 1], [0, 1])
        + "this is not json\n"
        + json.dumps({"n": 1}) + "\n"
        + record([1, 1], 0, [1, 1], [0, 9], engine="other")
    )
    cache = RankCache(str(path))
    assert cache.get(2, 2, (2, 0), 0) == ((1, 1), (0, 1))
    assert len(cache) == 1
    assert caplog.text.count("skipping corrupt cache line") == 2


def test_cache_skips_non_integer_keys(tmp_path, caplog):
    path = tmp_path / "ranks.jsonl"
    path.write_text(
        record([2, 0], 0, [1, 1], [0, 1], n="2")
        + record([2, False], 0, [1, 1], [0, 1])
        + record([2, 0], 0.0, [1, 1], [0, 1])
    )
    assert len(RankCache(str(path))) == 0
    assert caplog.text.count("skipping corrupt cache line (n, c, alpha and p must be integers)") == 3


def test_warm_command_loads_only_its_own_ring(tmp_path, monkeypatch, capsys, caplog):
    cache_dir = str(tmp_path)
    argv = ["homology", "--n", "3", "--c", "3", "--t", "1", "--deg", "5", "--cache-dir", cache_dir]
    code, cold = run_cli(capsys, *argv)
    assert code == 0
    code, _ = run_cli(capsys, "homology", "--n", "4", "--c", "2", "--t", "1", "--deg", "4",
                      "--cache-dir", cache_dir)
    assert code == 0
    own = Path(cache_path(cache_dir, 3, 3)).read_text()
    assert own and os.path.getsize(cache_path(cache_dir, 4, 2))
    # a cache file of the old layout, holding every ring, is no longer read
    (tmp_path / "rank_cache.jsonl").write_text(
        own + Path(cache_path(cache_dir, 4, 2)).read_text() + "this is not json\n"
    )
    loaded = []
    load = RankCache._load

    def spy(cache, path):
        load(cache, path)
        loaded.append((path, set(cache._mem)))

    monkeypatch.setattr(RankCache, "_load", spy)
    code, warm = run_cli(capsys, *argv)
    assert code == 0 and warm == cold
    assert [path for path, _ in loaded] == [cache_path(cache_dir, 3, 3)]
    keys = loaded[0][1]
    assert len(keys) == len(own.splitlines())
    assert {key[:2] for key in keys} == {(3, 3)}
    assert not caplog.records


def test_warm_cache_replays_without_eliminations(tmp_path, monkeypatch):
    def enumerated(*args):
        raise AssertionError("a warm engine built a strand or walked its faces")

    # a cache hit builds no strand: every name bound to either one traps
    traps = (complex._survivors, complex.Strand)

    # with 3 primes the warm run reads certified p=0 records; with 2 it reads
    # the per-prime records, whose face counts it must reuse
    for primes in (2, 3):
        cfg = RunConfig(n=3, c=3, cache_dir=str(tmp_path / str(primes)), primes=primes)
        engine = cfg.engine()
        cold = engine.homology_table(7, 27)
        assert engine.stats["eliminations"] > 0
        with monkeypatch.context() as patch:
            for module in [m for name, m in sys.modules.items() if name.startswith("koszul")]:
                for attr, value in vars(module).items():
                    if any(value is trap for trap in traps):
                        patch.setattr(module, attr, enumerated)
            warm_engine = cfg.engine()
            warm = warm_engine.homology_table(7, 27)
        assert warm_engine.stats["eliminations"] == 0
        assert warm.entries == cold.entries


def test_output_determinism(capsys):
    argv = ["table", "--n", "3", "--c", "2", "--char", "0", "--seed", "4"]
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second  # diagram output carries no timing

    argv_json = argv + ["--format", "json"]
    _, a = run_cli(capsys, *argv_json)
    _, b = run_cli(capsys, *argv_json)
    pa, pb = json.loads(a), json.loads(b)
    pa["meta"].pop("elapsed_ms")
    pb["meta"].pop("elapsed_ms")
    assert pa == pb


@pytest.mark.parametrize(
    "flag, key, value",
    [(["--no-orbit"], "no_orbit", True), (["--threads", "4"], "threads", 4),
     (["--max-degree", "5"], "max_degree", 5)],
    ids=["no-orbit", "threads", "max-degree"],
)
def test_no_orbit_changes_nothing_visible(capsys, flag, key, value):
    # accepted for compatibility and ignored: only the JSON query echo differs
    base = ["table", "--n", "3", "--c", "2", "--char", "0"]
    _, plain = run_cli(capsys, *base, "--format", "csv")
    _, flagged = run_cli(capsys, *base, "--format", "csv", *flag)
    assert plain == flagged
    _, out = run_cli(capsys, *base, "--format", "json", *flag)
    assert json.loads(out)["query"][key] == value


def test_env_cache_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KOSZ_CACHE_DIR", str(tmp_path))
    code, _ = run_cli(capsys, "homology", "--n", "2", "--c", "2", "--t", "1", "--deg", "3")
    assert code == 0
    assert os.path.exists(cache_path(str(tmp_path), 2, 2))


def test_unusable_cache_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--n", "2", "--c", "2", "--t", "1", "--deg", "3",
              "--cache-dir", str(blocker / "sub")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("kosz: error: ")


def test_failed_cache_append_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    # a dangling link: nothing to load, and the first append fails
    os.symlink(blocker / "sub", cache_path(str(cache_dir), 2, 2))
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--n", "2", "--c", "2", "--t", "1", "--deg", "3",
              "--cache-dir", str(cache_dir)])
    assert exc.value.code == 2
    assert "cannot append to cache" in capsys.readouterr().err


def test_corrupt_cached_rank_is_recomputed(tmp_path, capsys, caplog):
    argv = ["homology", "--n", "2", "--c", "2", "--t", "1", "--deg", "3",
            "--cache-dir", str(tmp_path)]
    code, clean = run_cli(capsys, *argv)
    assert code == 0
    path = Path(cache_path(str(tmp_path), 2, 2))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records
    path.write_text("".join(
        json.dumps(dict(r, ranks=[0] + [999] * (len(r["ranks"]) - 1))) + "\n" for r in records
    ))
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == clean
    # one warning per skipped record, naming the file, the line, alpha and p
    warnings = [r.getMessage() for r in caplog.records]
    assert warnings == [
        f"{path}:{line}: skipping cache record for alpha={tuple(r['alpha'])}, p={r['p']} "
        f"(rank d_1 = 999 above a face count or negative)"
        for line, r in enumerate(records, 1)
    ]
    appended = [json.loads(line) for line in path.read_text().splitlines()][len(records):]
    assert appended == records
    caplog.clear()
    size = path.stat().st_size
    code, out = run_cli(capsys, *argv)  # the appended records win on reload
    assert code == 0 and out == clean
    assert not caplog.records
    assert path.stat().st_size == size


def test_cache_line_not_utf8_is_skipped(tmp_path, capsys, caplog):
    # one undecodable line is corrupt like any other: the rest of the file
    # still serves the table, and the warning names the file and the line
    argv = ["table", "--n", "2", "--c", "2", "--cache-dir", str(tmp_path)]
    code, clean = run_cli(capsys, *argv)
    assert code == 0
    path = Path(cache_path(str(tmp_path), 2, 2))
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) > 1
    path.write_bytes(lines[0] + b"\xff\xfe\n" + b"".join(lines[1:]))
    size = path.stat().st_size
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out == clean
    warnings = [r.getMessage() for r in caplog.records]
    assert len(warnings) == 1
    assert warnings[0].startswith(f"{path}:2: skipping corrupt cache line (")
    assert "can't decode byte 0xff" in warnings[0]
    assert path.stat().st_size == size  # every record was read: nothing recomputed


def test_over_large_cached_rank_is_recomputed(tmp_path, capsys, caplog):
    # d_1 at (2,1,1) maps onto the single empty face, so a rank of 2 is corrupt
    # even though it leaves the block dimension non-negative
    argv = ["homology", "--n", "3", "--c", "2", "--t", "1", "--deg", "4", "--char", "5",
            "--cache-dir", str(tmp_path)]
    code, clean = run_cli(capsys, *argv)
    assert code == 0 and "degree 4 = 6 " in clean
    path = Path(cache_path(str(tmp_path), 3, 2))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    target = [r for r in records if r["alpha"] == [2, 1, 1]]
    assert [r["ranks"][1] for r in target] == [1]
    bad = dict(target[0], ranks=[0, 2] + target[0]["ranks"][2:])
    path.write_text("".join(json.dumps(bad if r in target else r) + "\n" for r in records))
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out == clean
    warnings = [r.getMessage() for r in caplog.records]
    line = records.index(target[0]) + 1
    assert warnings == [
        f"{path}:{line}: skipping cache record for alpha=(2, 1, 1), p=5 "
        f"(rank d_1 = 2 above a face count or negative)"
    ]
    appended = [json.loads(line) for line in path.read_text().splitlines()][len(records):]
    assert appended == target


def test_wrong_cached_face_count_exits_1(tmp_path, capsys):
    # a face count raised by one passes every check on load, but the strands
    # of a degree then no longer add up to the basis of K_t
    argv = ["homology", "--n", "3", "--c", "2", "--t", "1", "--deg", "4", "--char", "5",
            "--cache-dir", str(tmp_path)]
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    path = Path(cache_path(str(tmp_path), 3, 2))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    target = next(r for r in records if r["alpha"] == [2, 1, 1])
    target["faces"][1] += 1
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert len(RankCache(str(path))) == len(records)  # the record passes its checks
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("kosz: error: ") and captured.err.count("\n") == 1
    assert "t=1, d=4" in captured.err


def test_cache_skips_negative_ranks(tmp_path, caplog):
    path = tmp_path / "ranks.jsonl"
    path.write_text(record([2, 0], 0, [1, 1], [0, -1]))
    cache = RankCache(str(path))
    assert len(cache) == 0
    assert f"{path}:1: skipping cache record for alpha=(2, 0), p=0" in caplog.text
    assert "rank d_1 = -1 " in caplog.text


@pytest.mark.parametrize("faces, ranks, fault", [
    ([1, 3, 1], [0, 1], "need as many faces as ranks"),
    ([2, 3, 1], [0, 1, 1], "from 1 face and rank 0"),
    ([1, 3, 1], [1, 1, 1], "from 1 face and rank 0"),
    ([1, 3, 1], [0, 1, 2], "rank d_2 = 2 above a face count"),
    ([1, 3, 3], [0, 1, 3], "rank d_1 + rank d_2 above 3 faces"),
    ([1, 3, 1], [0, "1", 1], "faces and ranks must be integers"),
    ([True, 3, 1], [0, 1, 1], "faces and ranks must be integers"),
    ([1, 3.0, 1], [0, 1, 1], "faces and ranks must be integers"),
])
def test_cache_checks_every_record(tmp_path, caplog, faces, ranks, fault):
    path = tmp_path / "ranks.jsonl"
    path.write_text(record([2, 2], 0, faces, ranks))
    assert len(RankCache(str(path))) == 0
    assert fault in caplog.text and "alpha=(2, 2), p=0" in caplog.text


def test_cache_reports_conflicting_records(tmp_path, caplog):
    path = tmp_path / "ranks.jsonl"
    path.write_text(
        record([2, 2], 3, [1, 3, 1], [0, 1, 1])
        + record([2, 2], 3, [1, 3, 1], [0, 1, 1])  # a repeat is no conflict
        + record([2, 2], 3, [1, 3, 1], [0, 1, 0])
    )
    cache = RankCache(str(path))
    assert cache.get(2, 2, (2, 2), 3) == ((1, 3, 1), (0, 1, 0))
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}:3: cache record for alpha=(2, 2), p=3 differs from line 2; keeping line 3"
    ]


def test_high_degrees_need_no_flag(capsys):
    # (2,8) reaches internal degree 65; --max-degree is accepted and ignored
    code, out = run_cli(capsys, "verify", "vanishing", "--n", "2", "--c", "8")
    assert code == 0 and out == "OK (316 window zeros checked, 0 sharpened)\n"
    code, out = run_cli(capsys, "verify", "duality", "--n", "2", "--c", "8", "--max-degree", "3")
    assert code == 0 and out == "OK (344 entries checked, 344 direct, 0 mirrored)\n"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "duality", "--n", "2", "--c", "8", "--max-degree", "0"])
    assert exc.value.code == 2


def test_zgen_limit_names_no_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "zgen", "--n", "3", "--c", "2", "--t", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "t <= 4" in err
    for flag in re.findall(r"--[a-z-]+", err):  # any flag it names must parse
        build_parser().parse_args(["verify", "zgen", "--n", "3", "--c", "2", flag, "6"])


def test_exact_pivot_guard_exits_2(monkeypatch, capsys):
    def tripped(m):
        raise exactla.ExactEliminationError("pivot guard tripped")

    monkeypatch.setattr(exactla, "rank_fraction_free", tripped)
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "2", "--c", "2", "--exact"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "kosz: error: pivot guard tripped\n"


def test_exact_pivot_guard_covers_kernels(monkeypatch, capsys):
    # generator profiles echelonize kernels over Q, not block ranks
    monkeypatch.setattr(exactla, "EXACT_PIVOT_BIT_GUARD", 0)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "zgen", "--n", "2", "--c", "2", "--t", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("kosz: error: ") and captured.err.count("\n") == 1
