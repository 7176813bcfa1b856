import argparse
import hashlib
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from koszul import cli, complex, cycles, exactla
from koszul.cache import cache_path
from koszul.cli import (
    ENGINE_VERSION,
    RankCache,
    _engine,
    _field,
    build_parser,
    main,
    render_diagram,
    structural_zero,
)
from koszul.combinatorics import RingParams, partitions_into
from koszul.complex import Strand
from koszul.cycles import sample_nonzero_cycles
from koszul.exactla import FieldSpec, multiprime_primes
from koszul.homology import (
    DualityReport,
    GreenBoundReport,
    GreenBoundViolation,
    HomologyEngine,
    VanishingReport,
    ZGeneratorProfile,
)


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


def test_index_n4_c3_is_pinned(capsys, tmp_path):
    # c = 3 strands, most of them cones with several slack fields, each
    # degree's face counts checked against dim K_t by the orbit sum
    code, out = run_cli(capsys, "index", "--n", "4", "--c", "3", "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == "ind = 6 (N_6 holds; N_7 fails: beta[7,9] = 220)\n"


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


def _report(report):
    # a stand-in for a suite's report function, whatever it is called with
    return lambda *args, **kwargs: report


_COEFFDIM_VIOLATIONS = "".join(
    f"VIOLATION: t={t} coefficient span 1 < {t + 1}\n" for t in (3, 1, 1, 1, 1, 2, 1, 2, 2, 2)
)


@pytest.mark.parametrize(
    "argv, target, name, fake, expected",
    [
        (["duality"], cli, "check_duality",
         _report(DualityReport(4, 2, 2, [(1, 4, 3, 2), (2, 6, 0, 1)])),
         "MISMATCH: dim(t=1, d=4) = 3 but partner has 2\n"
         "MISMATCH: dim(t=2, d=6) = 0 but partner has 1\n"),
        (["vanishing"], cli, "verify_vanishing",
         _report(VanishingReport(5, [(1, 5, 2)], 1, [(2, 7, 1)])),
         "NONZERO: dim H_1 in degree 5 = 2\nNONZERO: dim H_2 in degree 7 = 1\n"),
        # twelve failing samples, of which the first ten are listed
        (["coeffdim", "--samples", "12", "--seed", "5"], cli.cycles, "coefficient_space_dim",
         lambda z: 1, _COEFFDIM_VIOLATIONS),
        (["greenbound"], cli, "check_green_bound",
         _report(GreenBoundReport(3, [
             GreenBoundViolation(2, 5, Fraction(7, 2), False),
             GreenBoundViolation(2, 5, Fraction(3), True),
         ])),
         "VIOLATION (plain): t_2 = 5 not < 7/2\nVIOLATION (sharpened): t_2 = 5 not < 3\n"),
        (["zgen"], cli.HomologyEngine, "z_generator_profile",
         _report(ZGeneratorProfile({2: 3, 3: 0, 5: 1}, 4, True)),
         "Z_1 generator degrees: 2:3, 3:0, 5:1\nVIOLATION: generators above degree 4: [5]\n"),
        (["zgen"], cli.HomologyEngine, "z_generator_profile",
         _report(ZGeneratorProfile({2: 3, 3: 0}, 4, False)),
         "Z_1 generator degrees: 2:3, 3:0\nVIOLATION: top layer not spanned by Z_1 powers\n"),
        (["zgen"], cli.HomologyEngine, "z_generator_profile",
         _report(ZGeneratorProfile({2: 3, 5: 1, 6: 2}, 4, False)),
         "Z_1 generator degrees: 2:3, 5:1, 6:2\n"
         "VIOLATION: generators above degree 4: [5, 6]\n"
         "VIOLATION: top layer not spanned by Z_1 powers\n"),
    ],
    ids=["duality", "vanishing", "coeffdim", "greenbound", "zgen-late", "zgen-unspanned",
         "zgen-both"],
)
def test_verify_failure_output_is_pinned(capsys, monkeypatch, argv, target, name, fake, expected):
    # each suite's report is made to fail: exit 1 and one line per problem
    monkeypatch.setattr(target, name, fake)
    code, out = run_cli(capsys, "verify", argv[0], "--n", "3", "--c", "2", *argv[1:])
    assert code == 1
    assert out == expected


STRATUM_1_7 = ["--n", "7", "--c", "2", "--stratum", "1", "1", "1", "1", "1", "1", "1"]


def test_verify_factorial_char3_reports_findings(capsys):
    # the README example: the whole stdout, witness line included
    code, out = run_cli(capsys, "verify", "factorial", *STRATUM_1_7, "--char", "3")
    assert code == 0  # expected findings, not failures
    assert out == (
        "factorial check: 630 witnesses, scale 6, prime(3), exhaustive\n"
        "  findings: 630 unscaled witnesses outside the boundaries\n"
        "    e.g. b=((1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1)) "
        "pairs=((1, 2), (4, 5))\n"
    )


@pytest.mark.parametrize(
    "argv,header",
    [
        # the README's sampled example
        (["--n", "3", "--c", "2", "--char", "0", "--samples", "50"],
         "50 witnesses, scale 6, fraction_free, seed 0"),
        (STRATUM_1_7 + ["--char", "5"], "630 witnesses, scale 6, prime(5), exhaustive"),
    ],
)
def test_verify_factorial_stdout_is_pinned(capsys, argv, header):
    code, out = run_cli(capsys, "verify", "factorial", *argv)
    assert code == 0
    assert out == (
        f"factorial check: {header}\n"
        "  findings: none (every unscaled witness already a boundary)\n"
    )



@pytest.mark.parametrize("stratum", [["4", "3"], ["3", "2", "2", "5"], ["9", "-1", "-1"]])
def test_verify_factorial_stratum_must_be_n_nonnegative_integers(capsys, stratum):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "factorial", "--n", "3", "--c", "2", "--stratum", *stratum])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n=3" in captured.err


def _exits_2(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_verify_factorial_stratum_of_the_wrong_degree_exits_2(capsys):
    # every witness at c=2 has degree c(c+1) + c-1 = 7
    err = _exits_2(capsys, "verify", "factorial", "--n", "3", "--c", "2", "--stratum", "2", "2", "2")
    assert "degree 7" in err
    # the right degree with no witness is a true, empty check
    code, out = run_cli(capsys, "verify", "factorial", "--n", "3", "--c", "2", "--stratum", "7", "0", "0")
    assert code == 0
    assert out.startswith("factorial check: 0 witnesses")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "zgen", "--n", "3", "--c", "2", "--t", "-1"], "--t"),
        (["verify", "factorial", "--n", "3", "--c", "2", "--samples", "-5"], "--samples"),
        (["verify", "coeffdim", "--n", "3", "--c", "2", "--samples", "-1"], "--samples"),
        (["verify", "factorial", "--n", "1", "--c", "2"], "--n >= 2"),
    ],
)
def test_vacuous_verifier_inputs_exit_2(capsys, argv, flag):
    assert flag in _exits_2(capsys, *argv)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["table", "--n", "3", "--c", "2", "--tmax", "-1"], "--tmax"),
        (["table", "--n", "3", "--c", "2", "--jmax", "-1"], "--jmax"),
        (["betti", "--n", "3", "--c", "2", "--imax", "-1"], "--imax"),
        (["index", "--n", "3", "--c", "2", "--imax", "-1"], "--imax"),
        (["verify", "duality", "--n", "3", "--c", "2", "--tmax", "-1"], "--tmax"),
        (["verify", "greenbound", "--n", "3", "--c", "2", "--imax", "-1"], "--imax"),
        (["homology", "--n", "3", "--c", "2", "--t", "-1", "--deg", "4"], "--t"),
        (["homology", "--n", "3", "--c", "2", "--t", "1", "--deg", "-1"], "--deg"),
        (["chardep", "--n", "3", "--c", "2", "--t", "-1", "--deg", "4"], "--t"),
        (["chardep", "--n", "3", "--c", "2", "--t", "1", "--deg", "-1"], "--deg"),
        (["chardep", "--n", "3", "--c", "2", "--t", "1", "--deg", "4", "--snf-guard", "-1"],
         "--snf-guard"),
    ],
)
def test_negative_bounds_exit_2(capsys, argv, flag):
    # a negative bound would check nothing and report success
    err = _exits_2(capsys, *argv)
    assert err == f"kosz: error: {flag} must be nonnegative, got -1\n"


@pytest.mark.parametrize("command", [["betti"], ["verify", "greenbound"]])
@pytest.mark.parametrize("k", [-1, 2, 5, 7])
def test_shift_outside_0_to_c_exits_2_before_any_work(capsys, tmp_path, monkeypatch, command, k):
    # k >= c used to leave an empty Betti window: an all-zero table, or an
    # OK over 0 columns, with exit 0
    def built(*args):
        raise AssertionError("an engine was built for an invalid --k")

    monkeypatch.setattr(cli, "_engine", built)
    cache_dir = tmp_path / "cache"
    argv = [*command, "--n", "2", "--c", "2", "--k", str(k), "--cache-dir", str(cache_dir)]
    assert _exits_2(capsys, *argv) == f"kosz: error: need 0 <= k < c, got k={k}\n"
    assert not cache_dir.exists()


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["vanishing", "--tmax", "1"], "unrecognized arguments: --tmax 1"),
        (["zgen", "--imax", "0"], "unrecognized arguments: --imax 0"),
        (["zgen", "--k", "1"], "unrecognized arguments: --k 1"),
        (["duality", "--samples", "3"], "unrecognized arguments: --samples 3"),
        (["greenbound", "--t", "2"], "unrecognized arguments: --t 2"),
        (["coeffdim", "--stratum", "7", "0", "0"], "unrecognized arguments: --stratum 7 0 0"),
        (["factorial", "--stratum", "7", "0", "0", "--samples", "3"],
         "argument --samples: not allowed with argument --stratum"),
        # the default value given explicitly is refused as well
        (["factorial", "--stratum", "7", "0", "0", "--samples", "200"],
         "argument --samples: not allowed with argument --stratum"),
        # an exhaustive check draws no sample, so it has no use for a seed
        (["factorial", "--stratum", "3", "2", "2", "--seed", "5"],
         "--seed would be ignored with --stratum"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_verify_suite_refuses_flags_it_does_not_read(capsys, argv, refusal):
    # a bound given to the wrong suite would otherwise be dropped silently
    suite, *flags = argv
    err = _exits_2(capsys, "verify", suite, "--n", "3", "--c", "2", *flags)
    assert err.splitlines()[-1].endswith(f"error: {refusal}")


@pytest.mark.parametrize(
    "argv",
    [
        *(f"chardep --t 1 --deg 4 {flag}" for flag in (
            "--char 5", "--exact", "--primes 3", "--seed 1", "--cache-dir DIR", "--format json")),
        *(f"verify coeffdim --samples 2 {flag}" for flag in (
            "--char 3", "--exact", "--primes 3", "--cache-dir DIR", "--format json")),
        *(f"verify zgen {flag}" for flag in (
            "--exact", "--primes 3", "--seed 1", "--cache-dir DIR", "--format json")),
        *(f"verify factorial --stratum 7 0 0 {flag}" for flag in (
            "--exact", "--primes 3", "--cache-dir DIR", "--format json")),
        "verify duality --format json",
        "verify vanishing --format json",
        "verify greenbound --format json",
        "index --format csv",
    ],
)
def test_commands_refuse_flags_they_do_not_read(capsys, tmp_path, argv):
    # each flag would be accepted and ignored, as if it had been honoured
    words = argv.replace("DIR", str(tmp_path / "cache")).split()
    command = 2 if words[0] == "verify" else 1
    err = _exits_2(capsys, *words[:command], "--n", "3", "--c", "2", *words[command:])
    flag = next(w for w in reversed(words) if w.startswith("--"))
    assert flag in err.splitlines()[-1]
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize(
    "argv",
    ["homology --t 1 --deg 3", "table", "betti", "index",
     "verify duality", "verify vanishing", "verify greenbound"],
)
def test_exact_with_a_prime_char_exits_2(capsys, tmp_path, argv):
    # --exact names a policy over Q: over F_2 it would be dropped without a word
    words = argv.split()
    command = 2 if words[0] == "verify" else 1
    cache = tmp_path / "cache"
    err = _exits_2(capsys, *words[:command], "--n", "2", "--c", "2", *words[command:],
                   "--char", "2", "--exact", "--cache-dir", str(cache))
    assert err.startswith("kosz: error: ") and err.count("\n") == 1
    assert "--exact" in err and "--char" in err
    assert not cache.exists()


@pytest.mark.parametrize(
    "argv",
    ["homology --t 1 --deg 3", "table", "betti", "index",
     "verify duality", "verify vanishing", "verify greenbound"],
)
@pytest.mark.parametrize("field", ["--exact", "--char 3"])
@pytest.mark.parametrize("sampling", ["--primes 5", "--seed 4", "--primes 2 --seed 0"])
def test_sampling_flags_with_a_certified_field_exit_2(capsys, tmp_path, argv, field, sampling):
    # only the multiprime policy samples primes: under --exact or a prime
    # --char, --primes and --seed would be dropped, their defaults included
    words = argv.split()
    command = 2 if words[0] == "verify" else 1
    cache = tmp_path / "cache"
    err = _exits_2(capsys, *words[:command], "--n", "2", "--c", "2", *words[command:],
                   *field.split(), *sampling.split(), "--cache-dir", str(cache))
    flags = " and ".join(w for w in sampling.split() if w.startswith("--"))
    assert err == f"kosz: error: {flags} would be ignored with {field}\n"
    assert not cache.exists()


@pytest.mark.parametrize("char", ["4", "4294967311"])
def test_char_that_is_not_a_word_sized_prime_exits_2(capsys, tmp_path, char):
    cache = tmp_path / "cache"
    err = _exits_2(capsys, "table", "--n", "2", "--c", "2", "--char", char,
                   "--cache-dir", str(cache))
    # one refusal shape, from cli.main: the usage line, then the --char bound
    assert err.startswith("usage: kosz ")
    refusal = f"kosz: error: --char must be 0 or a prime below 2^31, got {char}"
    assert err.splitlines()[-1] == refusal
    assert not cache.exists()


@pytest.mark.parametrize(
    "argv",
    ["homology --t 1 --deg 3 --char 0 --exact", "verify zgen --char 3",
     "table --char 0 --seed 5", "index --primes 3 --seed 1",
     "verify factorial --char 3 --seed 3 --samples 5", "verify coeffdim --seed 3 --samples 5"],
)
def test_exact_at_char_0_and_zgen_over_a_prime_still_run(capsys, argv):
    # zgen, like factorial, is certified by default and takes no --exact;
    # --seed and --primes stay valid wherever a rank or a sample reads them
    words = argv.split()
    command = 2 if words[0] == "verify" else 1
    code, out = run_cli(capsys, *words[:command], "--n", "3", "--c", "2", *words[command:])
    assert code == 0 and out


def test_zgen_reads_no_cache(capsys, tmp_path, monkeypatch):
    # a generator profile reads no strand record, so it opens no cache
    missing = tmp_path / "missing"
    monkeypatch.setenv("KOSZ_CACHE_DIR", str(missing))
    code, out = run_cli(capsys, "verify", "zgen", "--n", "2", "--c", "2", "--t", "1")
    assert code == 0 and "OK" in out
    assert not missing.exists()


def _commands(parser, prefix=()):
    """(command words, subparser) of every command under parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(prefix), parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from _commands(child, prefix + (name,))


def test_readme_flag_table_matches_the_parser():
    # one row per command: the flags it reads and the output formats it offers
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = line.split("|")[1:-1]
        if len(cells) == 4 and cells[0].strip().startswith("`"):
            formats = re.search(r"--format \{([a-z,]+)\}", line)
            rows[cells[0].strip(" `")] = (
                set(re.findall(r"--[a-z-]+", line)),
                tuple(formats.group(1).split(",")) if formats else None,
            )
    everywhere = {"--n", "--c", "--threads", "-h", "--help"}
    parsed = {}
    for name, parser in _commands(build_parser()):
        options = {opt for a in parser._actions for opt in a.option_strings}
        formats = next((a.choices for a in parser._actions if a.dest == "fmt"), None)
        parsed[name] = (options - everywhere, formats)
    assert parsed == rows


def _readme_commands() -> list[list[str]]:
    """The argv of every `kosz ...` line of the README's command-line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("kosz ")]


def test_readme_commands_parse():
    # every `kosz ...` line of the README's command-line block is a valid call
    commands = _readme_commands()
    assert len(commands) >= 11
    for argv in commands:
        assert build_parser().parse_args(argv).func.__module__ == "koszul.cli"


# SHA-256 of the stdout of every README example, and of the other formats of
# the commands that offer --format, with JSON's meta.elapsed_ms set to 0
_README_STDOUT = {
    "table --n 3 --c 3 --char 0":
        "bb25bd8e1091382d2cf8659b31c75dc6e7a2e8c78b6d50d8b6d2274ffe643d63",
    "homology --n 7 --c 2 --t 2 --deg 7 --char 3":
        "a3d741f2ab970922ab5cce79d6367932bee2c87cf1eb29dcd6f0e4ce2fcbff30",
    "betti --n 3 --c 3 --k 1 --char 0 --format csv":
        "835b0f09124cc5145ddcaa868ead5da131ecc1e3fa8e24706aac90062e329452",
    "index --n 4 --c 2 --char 0":
        "73dcdcd7f7792d8b5778eb3db825ee072d9d7f84d9729a69b36df09366f81117",
    "verify duality --n 3 --c 2 --char 0":
        "797ced8df3eb84030b45d057c4246770ab8c81216da2f3733db7f93479149995",
    "verify vanishing --n 3 --c 3 --char 0":
        "5dd445cd211ad146225c2893a5612dc235253dd7c292cac3f3ae2b09c1344832",
    "verify factorial --n 3 --c 2 --char 0 --samples 50":
        "7219cbd924d30d9bd1255fae33418c0789a94e1b41bfabae5edac19c892aa23e",
    "verify factorial --n 7 --c 2 --char 3 --stratum 1 1 1 1 1 1 1":
        "89bfbe402efdf51356d517b9ae31d82863b246fcdd7a97d7be24a896b6cfc8ab",
    "verify coeffdim --n 3 --c 2 --samples 200":
        "fd3835355de7da7e97d5ceee817fb051eff0c761e3f1c83033ec0cda3ec610a4",
    "verify greenbound --n 3 --c 3 --k 0 --char 0":
        "d25c90d1d63bd4eab6e3fbbf2abfa0b74854033e57dafd4c2e49407a6b0c206a",
    "verify zgen --n 3 --c 2 --t 2 --char 0":
        "cb1b06180fff66b03e8a5ea995b7b4fd6b93d393eb13d9d9057e13e843338f75",
    "chardep --n 7 --c 2 --t 2 --deg 7":
        "7505205d7b114cc679f401fae2ff1892c943d3658bec935171b9a77e4dde2f75",
    "homology --n 7 --c 2 --t 2 --deg 7 --char 3 --format csv":
        "e5927b83dd7905c06aafaaa4fb84c35d4fa5f75b72bf4c24883a8b86be390dde",
    "homology --n 7 --c 2 --t 2 --deg 7 --char 3 --format json":
        "146325bd0316ffd3f555710dc852df56b0c222ac625d3110b92d5a835fc2cfdc",
    "table --n 3 --c 3 --char 0 --format csv":
        "cf3b71d71212c939662857940d46f6ec9f332b98d84b1fbea5c25781bd61cd6e",
    "table --n 3 --c 3 --char 0 --format json":
        "54cefe150dd7169b16bbf0c3a951ec917da5bbb371d725a9ebcbab99167767dd",
    "betti --n 3 --c 3 --k 1 --char 0":
        "d8bf680faa99625c36f80633eefb000c355a558f3d90d4cf1cb6b597e5f6ee01",
    "betti --n 3 --c 3 --k 1 --char 0 --format json":
        "c1e7c7f67161a16305b1c0a863dfb0bd7cdc4fac36b59ea49303aa27e331ed69",
    "index --n 4 --c 2 --char 0 --format json":
        "08b5beae811c9d4e8536e82e42eecc62f9b6af30d10393e052e30f890a889be6",
}


def test_readme_examples_print_the_pinned_stdout(capsys, monkeypatch):
    # each README example runs, exits 0 and prints what it printed when pinned
    monkeypatch.delenv("KOSZ_CACHE_DIR", raising=False)
    readme = [" ".join(argv) for argv in _readme_commands()]
    assert set(readme) <= set(_README_STDOUT)
    for command, digest in _README_STDOUT.items():
        code, out = run_cli(capsys, *command.split())
        out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


# SHA-256 of the stdout of verify factorial at c = 3, where (c+1)! = 24 is a
# unit over F_5, zero over F_2 and nonzero over Q; the stratum (5,5,4) has 359
# witnesses.  Each exits 0.
_FACTORIAL_C3_STDOUT = {
    "verify factorial --n 3 --c 3 --char 5 --stratum 5 5 4":
        "5a1310b20cd20501503ab9dd158e22a1de9e5be8189f6b70e1e22848271aae53",
    "verify factorial --n 3 --c 3 --char 2 --stratum 5 5 4":
        "5e86b5d4c0972c4b74792e539ddcfddc26a17de177dd3ba37c83f73bd9e21131",
    "verify factorial --n 3 --c 3 --char 0 --stratum 5 5 4":
        "b78a23a98235f6a4a864fd99480fb4136e264e6f8c01471bf5ea23a74d9c9a72",
    "verify factorial --n 3 --c 3 --char 0 --samples 50":
        "f43e6139d60f3ead672554fc5908a950cfbd25d77a3cbb693dfc795ce7e488c8",
}


@pytest.mark.parametrize("command", _FACTORIAL_C3_STDOUT)
def test_verify_factorial_at_c3_prints_the_pinned_stdout(capsys, command):
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _FACTORIAL_C3_STDOUT[command]


@pytest.mark.parametrize("char", ["0", "2", "5"])
def test_verify_factorial_failure_exits_1_in_every_characteristic(capsys, monkeypatch, char):
    # a scaled non-boundary is a fault wherever it shows: over F_2 the
    # scaled product is 0, so there it can only come from a broken verifier
    witness = cycles.FactorialWitness(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1), (1, 2)),
                                      False, False, False)
    monkeypatch.setattr(cycles, "verify_factorial_theorem",
                        lambda *a, **kw: cycles.FactorialReport(6, 0, [witness]))
    code, out = run_cli(capsys, "verify", "factorial", "--n", "3", "--c", "2", "--char", char)
    assert code == 1
    assert out.splitlines()[1:] == [
        "  SCALED NON-BOUNDARY: b=((1, 0, 0), (0, 1, 0), (0, 0, 1)) pairs=((0, 1), (1, 2))"
    ]


def test_index_below_the_theorem_exits_1(capsys, monkeypatch):
    # beta[4,6] of V(3,0) at n = 3 would give ind = 3 < c+1 over Q
    original = HomologyEngine.betti
    monkeypatch.setattr(HomologyEngine, "betti", lambda self, k, i, j: (
        1 if (k, i, j) == (0, 4, 6) else original(self, k, i, j)))
    with pytest.raises(SystemExit) as exc:
        main(["index", "--n", "3", "--c", "3", "--char", "0"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith(
        "kosz: error: beta[4,6] = 1 gives ind = 3, but ind >= 4 over multiprime(k=2, seed=0), "
        "where 4! is a unit (Bruns-Conca-Roemer)"
    )


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
        capsys, "chardep", "--n", "7", "--c", "2", "--t", "2", "--deg", "7"
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
    code, out = run_cli(capsys, *table, "--primes", "3", "--seed", "7")
    assert code == 0
    query = json.loads(out)["query"]
    assert (query["primes"], query["seed"]) == (3, 7)
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
    assert len(reloaded._mem) == 2


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
    assert len(cache._mem) == 1
    assert caplog.text.count("skipping corrupt cache line") == 2


def test_cache_skips_non_integer_keys(tmp_path, caplog):
    path = tmp_path / "ranks.jsonl"
    path.write_text(
        record([2, 0], 0, [1, 1], [0, 1], n="2")
        + record([2, False], 0, [1, 1], [0, 1])
        + record([2, 0], 0.0, [1, 1], [0, 1])
    )
    assert len(RankCache(str(path))._mem) == 0
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

    # with 2 or 3 primes one prime proves every (3,3) record, so the warm run
    # reads the p=0 records alone
    for primes in (2, 3):
        args = build_parser().parse_args([
            "table", "--n", "3", "--c", "3", "--cache-dir", str(tmp_path / str(primes)),
            "--primes", str(primes),
        ])
        engine = _engine(args, _field(args))
        cold = engine.homology_table(7, 27)
        assert engine.stats["eliminations"] > 0
        with monkeypatch.context() as patch:
            for module in [m for name, m in sys.modules.items() if name.startswith("koszul")]:
                for attr, value in vars(module).items():
                    if any(value is trap for trap in traps):
                        patch.setattr(module, attr, enumerated)
            warm_engine = _engine(args, _field(args))
            warm = warm_engine.homology_table(7, 27)
        assert warm_engine.stats["eliminations"] == 0
        assert warm.entries == cold.entries


def test_strand_open_to_one_prime_is_sampled_per_prime(capsys, tmp_path):
    # (3,3,1,1,1) has homology in degrees 3 and 4 at (5,2), so one prime
    # cannot prove its record: its records stay per prime, and the sampled
    # dimension is the fraction-free one
    exact = HomologyEngine(RingParams(5, 2), FieldSpec.rational(policy="fraction_free"))
    assert [exact.block_dim(t, (3, 3, 1, 1, 1)) for t in range(5)] == [0, 0, 0, 1, 1]
    argv = ["homology", "--n", "5", "--c", "2", "--t", "3", "--deg", "9"]
    code, out = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 0 and out.startswith(f"dim H_3 in degree 9 = {exact.homology_dim(3, 9)} ")
    lines = Path(cache_path(str(tmp_path), 5, 2)).read_text().splitlines()
    ps = {}
    for rec in map(json.loads, lines):
        ps.setdefault(tuple(rec["alpha"]), set()).add(rec["p"])
    assert ps[3, 3, 1, 1, 1] == set(multiprime_primes(0, 2))
    assert {0} in ps.values()
    assert all(p in ({0}, set(multiprime_primes(0, 2))) for p in ps.values())


def forbid_strands(monkeypatch) -> None:
    """Make building a strand or walking its faces fail, in every koszul
    module that holds either."""

    def built(*args):
        raise AssertionError("a replay built a strand or walked its faces")

    # read both before the first patch replaces complex's own
    targets = complex.Strand, complex._survivors
    for module in [m for name, m in sys.modules.items() if name.startswith("koszul")]:
        for attr, value in vars(module).items():
            if any(value is target for target in targets):
                monkeypatch.setattr(module, attr, built)


def test_per_prime_cache_is_upgraded_on_read(capsys, tmp_path, monkeypatch):
    # a cache holding the records of each seeded prime and no p=0 record, as
    # versions that stored every sampled prime wrote it
    legacy, fresh = str(tmp_path / "legacy"), str(tmp_path / "fresh")
    table = ["table", "--n", "3", "--c", "3"]
    for p in multiprime_primes(0, 2):
        assert main([*table, "--char", str(p), "--cache-dir", legacy]) == 0
    capsys.readouterr()
    path = Path(cache_path(legacy, 3, 3))
    per_prime = path.read_text().splitlines()
    _, cold = run_cli(capsys, *table, "--cache-dir", fresh)
    proven = Path(cache_path(fresh, 3, 3)).read_text().splitlines()

    with monkeypatch.context() as patch:
        forbid_strands(patch)
        code, replay = run_cli(capsys, *table, "--cache-dir", legacy)
    assert code == 0 and replay == cold
    # the replay appends the p=0 record of every strand, proven at one prime
    lines = path.read_text().splitlines()
    assert lines[: len(per_prime)] == per_prime
    assert sorted(lines[len(per_prime):]) == sorted(proven)
    assert {json.loads(line)["p"] for line in proven} == {0}

    gets = []
    get = RankCache.get

    def spy(cache, n, c, alpha, p):
        gets.append(p)
        return get(cache, n, c, alpha, p)

    monkeypatch.setattr(RankCache, "get", spy)
    code, again = run_cli(capsys, *table, "--cache-dir", legacy)
    assert code == 0 and again == cold
    assert gets and set(gets) == {0}  # a second replay reads p=0 records only
    assert path.read_text().splitlines() == lines


def test_cache_of_uncapped_reps_replays(capsys, tmp_path, monkeypatch, caplog):
    # a cache written as versions that keyed records by the sorted
    # representative wrote it: the p=0 record of every rep up to degree
    # N*c, parts above M = 5 included.  Each capped key is itself a rep of
    # no higher degree, so a warm run reads them all, builds no strand and
    # appends nothing.
    params = RingParams(4, 2)
    argv = ["verify", "vanishing", "--n", "4", "--c", "2"]
    _, cold = run_cli(capsys, *argv)
    path = Path(cache_path(str(tmp_path), 4, 2))
    legacy = RankCache(str(path))
    for d in range(params.N * params.c + 1):
        for rep in partitions_into(d, params.n):
            legacy.put(4, 2, rep, 0, *Strand(params, rep).record(exactla.rank_fraction_free))
    written = path.read_bytes()
    forbid_strands(monkeypatch)
    code, warm = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 0 and warm == cold
    assert path.read_bytes() == written
    assert not caplog.records


def test_homology_at_a_cone_key_exits_1(capsys, tmp_path):
    # at (2,2) M = 3, so the key (3, 1) is a cone on x^2, with faces
    # [1, 2, 1] and ranks [0, 1, 1].  Ranks [0, 1, 0] pass the loader's
    # checks but leave homology, which the vanishing suite would report as a
    # window failure at degree 5, read through the orbit of (4, 1).
    path = Path(cache_path(str(tmp_path), 2, 2))
    path.write_text(record([3, 1], 0, [1, 2, 1], [0, 1, 0]))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "vanishing", "--n", "2", "--c", "2", "--cache-dir", str(tmp_path)])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith(
        "kosz: error: strand record at alpha=(3, 1), p=0 has homology [0, 1, 1], "
        "but x_1^2 is a cone point"
    )


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


_COMMON_ECHO = {"n": 3, "c": 2, "char": 0, "threads": 1, "seed": 0, "format": "json",
                "exact": False, "primes": 2}


@pytest.mark.parametrize(
    "argv, query, meta",
    [
        (["homology", "--t", "1", "--deg", "4"],
         dict(_COMMON_ECHO, command="homology", t=1, deg=4),
         {"char_policy": "multiprime(k=2, seed=0)", "primes_used": [950524921, 988456229],
          "engine_version": ENGINE_VERSION, "seed": 0}),
        (["table", "--seed", "3", "--tmax", "1"],
         dict(_COMMON_ECHO, seed=3, command="table", tmax=1, jmax=2),
         {"char_policy": "multiprime(k=2, seed=3)", "primes_used": [792383497, 676911427],
          "engine_version": ENGINE_VERSION, "seed": 3}),
        (["betti", "--k", "1", "--char", "5", "--threads", "4"],
         dict(_COMMON_ECHO, char=5, threads=4, command="betti", k=1, imax=3),
         {"char_policy": "prime(5)", "primes_used": [5], "engine_version": ENGINE_VERSION,
          "seed": 0}),
        (["index", "--exact", "--imax", "2"],
         dict(_COMMON_ECHO, exact=True, command="index", imax=2),
         {"char_policy": "fraction_free", "primes_used": [], "engine_version": ENGINE_VERSION,
          "seed": 0}),
        (["index", "--primes", "3", "--seed", "5"],
         dict(_COMMON_ECHO, seed=5, primes=3, command="index", imax=3),
         {"char_policy": "multiprime(k=3, seed=5)",
          "primes_used": [811152949, 921845521, 568015037],
          "engine_version": ENGINE_VERSION, "seed": 5}),
    ],
    ids=["homology", "table", "betti", "index-exact", "index-primes"],
)
def test_json_echoes_query_and_meta(capsys, argv, query, meta):
    # the echo keeps its key order: the common flags, then the command and
    # its own bounds
    command, *rest = argv
    code, out = run_cli(capsys, command, "--n", "3", "--c", "2", "--format", "json", *rest)
    assert code == 0
    payload = json.loads(out)
    assert list(payload["query"].items()) == list(query.items())
    assert isinstance(payload["meta"].pop("elapsed_ms"), int)
    assert list(payload["meta"].items()) == list(meta.items())


@pytest.mark.parametrize("flag, key, value", [(["--threads", "4"], "threads", 4)],
                         ids=["threads"])
def test_no_orbit_changes_nothing_visible(capsys, flag, key, value):
    # accepted for compatibility and ignored: only the JSON query echo differs
    base = ["table", "--n", "3", "--c", "2", "--char", "0"]
    _, plain = run_cli(capsys, *base, "--format", "csv")
    _, flagged = run_cli(capsys, *base, "--format", "csv", *flag)
    assert plain == flagged
    _, out = run_cli(capsys, *base, "--format", "json", *flag)
    assert json.loads(out)["query"][key] == value


@pytest.mark.parametrize("flag", [["--no-orbit"], ["--max-degree", "5"]],
                         ids=["no-orbit", "max-degree"])
def test_retired_flags_exit_2_on_every_command(capsys, flag):
    # once accepted and ignored, now read by no command
    for name, parser in _commands(build_parser()):
        required = [w for a in parser._actions if a.required for w in (a.option_strings[0], "1")]
        err = _exits_2(capsys, *name.split(), *required, *flag)
        assert err.splitlines()[-1].endswith(f"error: unrecognized arguments: {' '.join(flag)}")


def test_env_cache_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KOSZ_CACHE_DIR", str(tmp_path))
    code, _ = run_cli(capsys, "homology", "--n", "2", "--c", "2", "--t", "1", "--deg", "3")
    assert code == 0
    assert os.path.exists(cache_path(str(tmp_path), 2, 2))


def test_cache_file_is_closed_once_the_command_returns(tmp_path, monkeypatch, capsys):
    # every handle opened on the cache file is closed by the time the
    # command returns, not left for the interpreter to reclaim at exit
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr("koszul.cache.open", recording_open, raising=False)
    code, _ = run_cli(capsys, "table", "--n", "2", "--c", "2", "--cache-dir", str(tmp_path))
    assert code == 0
    assert [fh.name for fh in opened] == [cache_path(str(tmp_path), 2, 2)]  # the append handle
    assert all(fh.closed for fh in opened)


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
    # one undecodable line, not UTF-8 or nested past the decoder's recursion
    # limit, is corrupt like any other: the rest of the file still serves
    # the table, and the warning names the file and the line
    argv = ["table", "--n", "2", "--c", "2", "--cache-dir", str(tmp_path)]
    code, clean = run_cli(capsys, *argv)
    assert code == 0
    path = Path(cache_path(str(tmp_path), 2, 2))
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) > 1
    for bad, fault in ((b"\xff\xfe", "can't decode byte 0xff"),
                       (b"[" * 200_000, "maximum recursion depth exceeded")):
        path.write_bytes(lines[0] + bad + b"\n" + b"".join(lines[1:]))
        size = path.stat().st_size
        caplog.clear()
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out == clean
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 1
        assert warnings[0].startswith(f"{path}:2: skipping corrupt cache line (")
        assert fault in warnings[0]
        assert path.stat().st_size == size  # every record was read: nothing recomputed


def test_torn_last_cache_line_does_not_swallow_the_next_record(tmp_path, capsys, caplog):
    # a writer killed mid-line leaves the last line without its newline; the
    # record recomputed for it starts a line of its own, so a reload reads
    # it and warns only of the torn line
    argv = ["table", "--n", "2", "--c", "2", "--cache-dir", str(tmp_path)]
    code, clean = run_cli(capsys, *argv)
    assert code == 0
    path = Path(cache_path(str(tmp_path), 2, 2))
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]) + lines[-1][:20])
    code, out = run_cli(capsys, *argv)  # recomputes the torn record
    assert code == 0 and out == clean
    assert path.read_bytes().splitlines(keepends=True)[len(lines):] == [lines[-1]]
    caplog.clear()
    size = path.stat().st_size
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out == clean
    warnings = [r.getMessage() for r in caplog.records]
    assert len(warnings) == 1
    assert warnings[0].startswith(f"{path}:{len(lines)}: skipping corrupt cache line (")
    assert path.stat().st_size == size  # nothing recomputed


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
    assert len(RankCache(str(path))._mem) == len(records)  # the record passes its checks
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
    assert len(cache._mem) == 0
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
    assert len(RankCache(str(path))._mem) == 0
    assert fault in caplog.text and "alpha=(2, 2), p=0" in caplog.text


def test_cache_reads_records_in_any_json_layout(tmp_path, caplog):
    # put's sorted keys and spacing are not required: a record json.dumps
    # writes with other key order, separators or line ending is read
    rec = {"ranks": [0, 1, 1], "p": 3, "n": 2, "faces": [1, 3, 1], "engine": ENGINE_VERSION,
           "c": 2, "alpha": [2, 2]}
    path = tmp_path / "ranks.jsonl"
    path.write_bytes(
        (json.dumps(rec, separators=(",", ":")) + "\n"
         + json.dumps(dict(rec, p=5), separators=(" , ", " : ")) + " \r\n").encode()
    )
    assert RankCache(str(path))._mem == {
        (2, 2, (2, 2), 3): ((1, 3, 1), (0, 1, 1)),
        (2, 2, (2, 2), 5): ((1, 3, 1), (0, 1, 1)),
    }
    assert not caplog.records


def test_cache_checks_the_rank_sum_of_the_last_levels(tmp_path, caplog):
    # every check but ranks[3] + ranks[4] <= faces[3] passes: the fault at
    # the last pair of levels is still found, named and placed on its line
    path = tmp_path / "ranks.jsonl"
    path.write_text(
        record([2, 0], 0, [1, 1], [0, 1])
        + record([1, 1], 0, [1, 1], [0, 1])
        + record([2, 2], 0, [1, 4, 6, 4, 2], [0, 1, 3, 3, 2])
    )
    assert len(RankCache(str(path))._mem) == 2
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}:3: skipping cache record for alpha=(2, 2), p=0 (rank d_3 + rank d_4 above 4 faces)"
    ]


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


def test_cache_lines_are_the_json_encoders(tmp_path, caplog):
    # put writes each line itself: the bytes of json.dumps(record,
    # sort_keys=True) for records of several rings, p = 0 and primes, and
    # faces and ranks from 1 to 13 entries long
    path = tmp_path / "ranks.jsonl"
    cache = RankCache(str(path))
    expected = []
    for n, c, alpha in [(2, 2, (0, 0)), (3, 3, (9, 8, 8)), (4, 2, (3, 3, 2, 2)),
                        (7, 2, (1,) * 7), (12, 1, (1,) * 12)]:
        strand = Strand(RingParams(n, c), alpha)
        for p in (0, 3, 32003):
            rank = exactla.rank_fraction_free if not p else lambda m, p=p: exactla.rank_mod_p(m, p)
            faces, ranks = strand.record(rank)
            cache.put(n, c, alpha, p, faces, ranks)
            rec = {"n": n, "c": c, "alpha": list(alpha), "p": p, "faces": list(faces),
                   "ranks": list(ranks), "engine": ENGINE_VERSION}
            expected.append(json.dumps(rec, sort_keys=True) + "\n")
    assert len(max(expected, key=len)) > 200
    assert path.read_bytes() == "".join(expected).encode()
    assert RankCache(str(path))._mem == cache._mem and len(cache._mem) == 15
    assert not caplog.records


def test_high_degrees_need_no_flag(capsys):
    # (2,8) reaches internal degree 65 with no degree bound to set
    code, out = run_cli(capsys, "verify", "vanishing", "--n", "2", "--c", "8")
    assert code == 0 and out == "OK (316 window zeros checked, 0 sharpened)\n"
    code, out = run_cli(capsys, "verify", "duality", "--n", "2", "--c", "8")
    assert code == 0 and out == "OK (344 entries checked, 344 direct, 0 mirrored)\n"


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
    # an empty Morse matrix is never ranked: (1^7) at n=7, c=2 has a nonempty one
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--n", "7", "--c", "2", "--t", "2", "--deg", "7", "--exact"])
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
