"""Command-line surface: homology queries, diagram/CSV/JSON rendering, the
verification suites, and the characteristic-dependence scan.

Every command, and every `verify` suite, is a function of the parsed
namespace alone, bound by its own subparser. Each takes --n --c, --threads
(accepted for compatibility and ignored), and only the flags it reads, so a
flag given to a command that would ignore it exits 2; so does --exact with a
prime --char, --primes or --seed with either, and --seed with --stratum.
The query commands print through one emitter (_emit, the only --format
switch), and every suite but factorial, which reports findings as well as
failures, ends in one verdict (_verdict): OK or one line per problem.

Exit codes: 0 success; 1 verification failure or an arithmetic
inconsistency (such as Morse matrices that do not compose to zero); 2 usage
error, tripped size guard, or an unusable cache directory.
All user-visible results are deterministic given the configuration and seed;
the only varying output field is meta.elapsed_ms in JSON format.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time

from . import cycles, exactla
from .cache import ENGINE_VERSION, RankCache, cache_path
from .combinatorics import RingParams, orbits_into
from .complex import Strand, graded_dim
from .exactla import FieldSpec, SizeGuardError
from .homology import (
    HomologyEngine,
    check_duality,
    check_green_bound,
    duality_partner,
    verify_vanishing,
)


# ---------------------------------------------------------------------------
# configuration: every command reads the parsed namespace alone


def _field(args) -> FieldSpec:
    # a suite without --exact (factorial, zgen) tests memberships or builds
    # kernels, so over char 0 it always runs fraction-free
    if args.char:
        return FieldSpec.prime(args.char)
    if getattr(args, "exact", True):
        return FieldSpec.rational(policy="fraction_free")
    return FieldSpec.rational(policy="multiprime", num_primes=args.primes, seed=args.seed)


def _cache(args) -> RankCache | None:
    # None without a directory: the engine keeps its records in memory
    directory = args.cache_dir or os.environ.get("KOSZ_CACHE_DIR")
    if not directory:
        return None
    os.makedirs(directory, exist_ok=True)
    return RankCache(cache_path(directory, args.n, args.c))


def _engine(args, field: FieldSpec, use_duality: bool = True) -> HomologyEngine:
    return HomologyEngine(
        RingParams(args.n, args.c), field, cache=_cache(args), use_duality=use_duality
    )


def _query(args, **extra) -> dict:
    """The JSON echo of the shared flags, --threads echoed though ignored."""
    return {
        "n": args.n,
        "c": args.c,
        "char": args.char,
        "threads": args.threads,
        "seed": args.seed,
        "format": args.fmt,
        "exact": args.exact,
        "primes": args.primes,
    } | extra


def _meta(args, field: FieldSpec, started: float) -> dict:
    return {
        "char_policy": field.describe(),
        "primes_used": list(field.primes),
        "elapsed_ms": int((time.monotonic() - started) * 1000),
        "engine_version": ENGINE_VERSION,
        "seed": args.seed,
    }


def _emit(args, field: FieldSpec, started: float, query: dict, rows: list[dict],
          columns: tuple[str, ...], text: str) -> int:
    """Print what --format asks for: rows as JSON records with the query and
    meta, the columns of rows as CSV, or the text of the diagram format;
    return exit code 0."""
    if args.fmt == "json":
        meta = _meta(args, field, started)
        print(json.dumps({"query": query, "result": rows, "meta": meta}))
    elif args.fmt == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(str(row[key]) for key in columns))
    else:
        print(text)
    return 0


def _verdict(ok: str, problems: list[str]) -> int:
    """Print OK (ok) and return 0, or print one line per problem and return 1."""
    if not problems:
        print(f"OK ({ok})")
        return 0
    for line in problems:
        print(line)
    return 1


# ---------------------------------------------------------------------------
# diagram rendering


def structural_zero(params: RingParams, t: int, d: int) -> bool:
    """Positions that are zero for basis or degree-window reasons; rendered
    as dashes in the diagram."""
    if graded_dim(params, t, d) == 0:
        return True
    if t > params.N - params.n:
        return True
    j = d - t * params.c
    if j >= t + params.c:
        return True
    td, dd = duality_partner(params, t, d)
    jd = dd - td * params.c
    if dd < td * params.c or jd >= td + params.c:
        return True
    return False


def render_diagram(
    params: RingParams, entries: dict[tuple[int, int], int], t_max: int, j_max: int
) -> str:
    """Grid of dims: columns are homological degrees, rows are internal
    degree offsets j (the (t,j) cell shows degree t*c+j); dash marks a
    structural zero."""
    cells: list[list[str]] = []
    for j in range(j_max + 1):
        row = []
        for t in range(t_max + 1):
            d = t * params.c + j
            value = entries.get((t, d), 0)
            if value == 0 and structural_zero(params, t, d):
                row.append("-")
            else:
                row.append(str(value))
        cells.append(row)
    widths = [
        max(len(str(t)), max(len(cells[j][t]) for j in range(j_max + 1)))
        for t in range(t_max + 1)
    ]
    label_w = len(str(j_max))
    lines = [
        " " * label_w
        + " | "
        + "  ".join(str(t).rjust(widths[t]) for t in range(t_max + 1))
    ]
    lines.append("-" * len(lines[0]))
    for j in range(j_max + 1):
        lines.append(
            str(j).rjust(label_w)
            + " | "
            + "  ".join(cells[j][t].rjust(widths[t]) for t in range(t_max + 1))
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands


def cmd_homology(args) -> int:
    started = time.monotonic()
    field = _field(args)
    engine = _engine(args, field)
    parts = engine.orbit_dims(args.t, args.deg)
    dim = sum(parts.values())
    orbits = sorted(parts.items(), reverse=True)
    lines = [f"dim H_{args.t} in degree {args.deg} = {dim}   [{field.describe()}]"]
    lines += [f"  orbit {rep}: {v}" for rep, v in orbits]
    rows = [{"t": args.t, "d": args.deg, "dim": dim,
             "orbits": [{"rep": list(rep), "dim": v} for rep, v in orbits]}]
    query = _query(args, command="homology", t=args.t, deg=args.deg)
    return _emit(args, field, started, query, rows, ("t", "d", "dim"), "\n".join(lines))


def cmd_table(args) -> int:
    started = time.monotonic()
    field = _field(args)
    engine = _engine(args, field)
    params = engine.params
    t_max = args.tmax if args.tmax is not None else params.N - params.n
    j_cap = params.n * (params.c - 1)
    j_max = args.jmax if args.jmax is not None else min(t_max + params.c - 1, j_cap)
    table = engine.homology_table(t_max, t_max * params.c + j_max)
    query = _query(args, command="table", tmax=t_max, jmax=j_max)
    rows = [{"t": t, "d": d, "dim": v} for (t, d), v in sorted(table.entries.items())]
    text = render_diagram(params, table.entries, t_max, j_max)
    return _emit(args, field, started, query, rows, ("t", "d", "dim"), text)


def cmd_betti(args) -> int:
    started = time.monotonic()
    field = _field(args)
    engine = _engine(args, field)
    i_max = args.imax if args.imax is not None else engine.params.N - engine.params.n
    btable = engine.betti_table(args.k, i_max)
    query = _query(args, command="betti", k=args.k, imax=i_max)
    rows = [{"i": i, "j": j, "beta": v} for (i, j), v in sorted(btable.entries.items())]
    j_grid = max((j for (_, j), v in btable.entries.items() if v), default=0)
    lines = [f"Betti table of V({args.c},{args.k})   [{field.describe()}]"]
    for i in range(i_max + 1):
        row = [str(btable.beta(i, j)) for j in range(j_grid + 1)]
        lines.append(f"  i={i}: " + " ".join(row))
    return _emit(args, field, started, query, rows, ("i", "j", "beta"), "\n".join(lines))


def cmd_index(args) -> int:
    started = time.monotonic()
    field = _field(args)
    engine = _engine(args, field)
    res = engine.gl_index(args.imax)
    witness = None
    if res.witness:
        witness = {"i": res.witness[0], "j": res.witness[1], "beta": res.witness[2]}
    rows = [{"index": res.value, "i_max": res.i_max, "witness": witness}]
    query = _query(args, command="index", imax=res.i_max)
    return _emit(args, field, started, query, rows, (), str(res))  # index offers no CSV


def _verify_duality(args) -> int:
    engine = _engine(args, _field(args), use_duality=False)
    params = engine.params
    t_max = args.tmax if args.tmax is not None else params.N - params.n
    d_max = params.N * params.c - params.n
    table = engine.homology_table(t_max, d_max)
    report = check_duality(table, engine)
    return _verdict(
        f"{report.checked} entries checked, {report.direct} direct, {report.mirrored} mirrored",
        [f"MISMATCH: dim(t={t}, d={d}) = {dim} but partner has {partner}"
         for t, d, dim, partner in report.mismatches],
    )


def _verify_vanishing(args) -> int:
    report = verify_vanishing(RingParams(args.n, args.c), _field(args), cache=_cache(args))
    return _verdict(
        f"{report.checked} window zeros checked, {report.sharp_checked} sharpened",
        [f"NONZERO: dim H_{t} in degree {d} = {dim}"
         for t, d, dim in report.failures + report.sharp_failures],
    )


def _verify_factorial(args) -> int:
    params = RingParams(args.n, args.c)
    field = _field(args)
    stratum = tuple(args.stratum) if args.stratum else None
    if stratum is None:
        if args.samples < 1:
            raise ValueError(f"--samples must be positive, got {args.samples}")
        if params.n < 2:
            raise ValueError("verify factorial samples products of two-term cycles, which need --n >= 2")
    report = cycles.verify_factorial_theorem(
        params, args.samples, args.seed, field, stratum=stratum
    )
    print(
        f"factorial check: {len(report.witnesses)} witnesses, scale {report.factorial}, "
        f"{field.describe()}"
        + (f", seed {report.seed}" if report.seed is not None else ", exhaustive")
    )
    if report.failures:
        for w in report.failures[:10]:
            print(f"  SCALED NON-BOUNDARY: b={w.b_monomials} pairs={w.pairs}")
        return 1
    if report.findings:
        print(f"  findings: {len(report.findings)} unscaled witnesses outside the boundaries")
        w = report.findings[0]
        print(f"    e.g. b={w.b_monomials} pairs={w.pairs}")
    else:
        print("  findings: none (every unscaled witness already a boundary)")
    return 0


def _verify_coeffdim(args) -> int:
    params = RingParams(args.n, args.c)
    if params.n < 2:
        raise ValueError("verify coeffdim samples two-term cycles, which need --n >= 2")
    if args.samples < 1:
        raise ValueError(f"--samples must be positive, got {args.samples}")
    sampled = cycles.sample_nonzero_cycles(
        args.samples, args.seed, n_max=params.n, c_max=params.c
    )
    bad = []
    for z in sampled:
        dim = cycles.coefficient_space_dim(z)
        if dim < z.t + 1:
            bad.append(f"VIOLATION: t={z.t} coefficient span {dim} < {z.t + 1}")
    return _verdict(
        f"{len(sampled)} nonzero cycles with n <= {params.n}, c <= {params.c}, "
        f"coefficient span always >= t+1",
        bad[:10],
    )


def _verify_greenbound(args) -> int:
    field = _field(args)
    engine = _engine(args, field)
    i_max = args.imax if args.imax is not None else engine.params.N - engine.params.n
    btable = engine.betti_table(args.k, i_max)
    report = check_green_bound(btable)
    problems = []
    for v in report.violations:
        kind = "sharpened" if v.sharpened else "plain"
        problems.append(f"VIOLATION ({kind}): t_{v.i} = {v.t_i} not < {v.bound}")
    return _verdict(f"{report.columns_checked} columns within the degree bound", problems)


def _verify_zgen(args) -> int:
    # a generator profile reads no strand record, so it opens no cache
    engine = HomologyEngine(RingParams(args.n, args.c), _field(args))
    profile = engine.z_generator_profile(args.t)
    print(f"Z_{args.t} generator degrees: "
          + ", ".join(f"{d}:{profile.counts[d]}" for d in sorted(profile.counts)))
    late = [d for d in profile.generator_degrees() if d > profile.top_degree]
    problems = []
    if late:
        problems.append(f"VIOLATION: generators above degree {profile.top_degree}: {late}")
    if profile.top_layer_in_z1_span is False:
        problems.append("VIOLATION: top layer not spanned by Z_1 powers")
    return _verdict(
        f"no generators above degree {profile.top_degree}; top layer in the Z_1-power span",
        problems,
    )


def _prime_factors(value: int) -> set[int]:
    out = set()
    v = value
    p = 2
    while p * p <= v:
        while v % p == 0:
            out.add(p)
            v //= p
        p += 1
    if v > 1:
        out.add(v)
    return out


def cmd_chardep(args) -> int:
    """Scan the elementary divisors of the blocks at (t, deg) and report the
    primes where any rank, hence any dimension, can jump.

    Each block is equivalent over Z to an identity on its matched Morse
    pairs plus the strand's Morse matrix, so only the Morse matrix is
    factored; the --snf-guard applies to its cells."""
    params = RingParams(args.n, args.c)
    jump_primes: set[int] = set()
    skipped = []
    for rep, _ in orbits_into(args.deg, params.n):
        strand = None
        for t in (args.t, args.t + 1):
            if t < 1 or t > params.N:
                continue
            strand = strand or Strand(params, rep)
            m = strand.morse(t)
            if m.cells == 0:
                continue
            if m.cells > args.snf_guard:
                skipped.append((t, rep, m.cells))
                continue
            # each divisor divides the next, so the last carries every prime
            divisors = exactla.elementary_divisors(m, max_cells=args.snf_guard)
            if divisors:
                jump_primes |= _prime_factors(divisors[-1])
    found = ", ".join(str(p) for p in sorted(jump_primes)) or "none"
    if skipped:
        # a skipped block may carry any prime, so the answer is partial
        found = f"{found} and possibly others" if jump_primes else "unknown"
        found += f" (partial: {len(skipped)} skipped, listed below)"
    print(f"characteristics where dimensions can jump: {found}")
    for t, rep, cells in skipped:
        print(f"  skipped block t={t} alpha={rep} ({cells} cells over --snf-guard)")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Given(argparse.Action):
    """Store the value and note the flag in the namespace's `given`, so that
    a flag given explicitly is told from its default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = {*getattr(namespace, "given", ()), option_string}


# The field, cache and output flags, each given only to the commands that
# read it.
_SHARED = {
    "--char": dict(type=int, default=0,
                   help="coefficient characteristic: 0 or a prime below 2^31"),
    "--seed": dict(type=int, default=0, action=_Given),
    "--cache-dir": dict(default=None, help="rank cache directory (default $KOSZ_CACHE_DIR)"),
    "--exact": dict(action="store_true", help="fraction-free rational ranks"),
    "--primes": dict(type=int, default=2, action=_Given, help="multiprime sample size for char 0"),
}
_ENGINE = ("--char", "--seed", "--cache-dir", "--exact", "--primes")
_FORMATS = ("diagram", "csv", "json")


def _command(subs, name: str, func, help: str, reads=(), formats=()) -> argparse.ArgumentParser:
    # no abbreviations: `--t` to a suite without --t would mean --threads
    p = subs.add_parser(name, help=help, allow_abbrev=False)
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--c", type=int, required=True, help="power of the maximal ideal")
    for flag in reads:
        p.add_argument(flag, **_SHARED[flag])
    if formats:
        p.add_argument("--format", dest="fmt", choices=formats, default="diagram")
    p.add_argument("--threads", type=int, default=1,
                   help="ignored: accepted for compatibility, runs are single-threaded")
    p.set_defaults(func=func)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kosz",
        description="Exact multigraded homology of the Koszul complex on the "
        "degree-c monomials, with Betti tables and verification suites.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = _command(subs, "homology", cmd_homology, "one dimension with its orbit support",
                 _ENGINE, _FORMATS)
    p.add_argument("--t", type=int, required=True, help="homological degree")
    p.add_argument("--deg", type=int, required=True, help="internal degree")

    p = _command(subs, "table", cmd_table, "dimension table / diagram", _ENGINE, _FORMATS)
    p.add_argument("--tmax", type=int, default=None)
    p.add_argument("--jmax", type=int, default=None, help="max internal degree offset row")

    p = _command(subs, "betti", cmd_betti, "graded Betti table of a Veronese module",
                 _ENGINE, _FORMATS)
    p.add_argument("--k", type=int, default=0, help="Veronese module shift, 0 <= k < c")
    p.add_argument("--imax", type=int, default=None)

    p = _command(subs, "index", cmd_index, "syzygy-linearity (Green-Lazarsfeld) index",
                 _ENGINE, ("diagram", "json"))
    p.add_argument("--imax", type=int, default=None)

    suites = subs.add_parser(
        "verify", help="verification suites; nonzero exit on violation"
    ).add_subparsers(dest="what", required=True)

    p = _command(suites, "duality", _verify_duality, "every dimension equals its dual partner's",
                 _ENGINE)
    p.add_argument("--tmax", type=int, default=None)

    _command(suites, "vanishing", _verify_vanishing, "H_t is zero in degrees t*c+j, j >= t+c",
             _ENGINE)

    # memberships must be certified: over char 0 they run fraction-free
    p = _command(suites, "factorial", _verify_factorial,
                 "(c+1)! times a product of two-term cycles is a boundary", ("--char", "--seed"))
    sampled_or_exhaustive = p.add_mutually_exclusive_group()
    # a string default is converted after parsing, so it is never the object
    # an explicit --samples parses to and the exclusion check sees every value
    sampled_or_exhaustive.add_argument("--samples", type=int, default="200")
    sampled_or_exhaustive.add_argument("--stratum", type=int, nargs="+", default=None,
                                       help="exhaustive check over one multidegree")

    p = _command(suites, "coeffdim", _verify_coeffdim,
                 "a nonzero t-cycle's coefficients span at least t+1 dimensions", ("--seed",))
    p.add_argument("--samples", type=int, default=200)

    p = _command(suites, "greenbound", _verify_greenbound,
                 "the Betti table columns stay within the degree bound", _ENGINE)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--imax", type=int, default=None)

    p = _command(suites, "zgen", _verify_zgen,
                 "Z_t is generated in degree <= t(c+1), its top layer by Z_1 products", ("--char",))
    p.add_argument("--t", type=int, default=1)

    p = _command(subs, "chardep", cmd_chardep, "primes where dimensions can jump")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--snf-guard", type=int, default=exactla.SNF_CELL_GUARD)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "char", 0):
        try:
            exactla.FieldSpec.prime(args.char)  # the one judge of a word-sized prime
        except ValueError:
            parser.error(f"--char must be 0 or a prime below 2^31, got {args.char}")
    if getattr(args, "char", 0) and getattr(args, "exact", False):
        # --exact names a policy over Q, which a prime --char would drop
        parser.exit(2, f"kosz: error: --exact needs characteristic 0, not --char {args.char}\n")
    sampling = sorted(getattr(args, "given", ()))
    if sampling and hasattr(args, "exact") and (args.exact or args.char):
        # of the fields the commands taking --exact offer, only multiprime samples primes
        field = "--exact" if args.exact else f"--char {args.char}"
        parser.exit(2, f"kosz: error: {' and '.join(sampling)} would be ignored with {field}\n")
    if "--seed" in sampling and getattr(args, "stratum", None):
        # an exhaustive check over one multidegree draws no sample
        parser.exit(2, "kosz: error: --seed would be ignored with --stratum\n")
    primes = getattr(args, "primes", None)
    if primes is not None and primes < 1:
        parser.exit(2, f"kosz: error: --primes must be positive, got {primes}\n")
    for dest in ("tmax", "jmax", "imax", "t", "deg", "snf_guard"):
        bound = getattr(args, dest, None)
        if bound is not None and bound < 0:
            flag = "--" + dest.replace("_", "-")
            parser.exit(2, f"kosz: error: {flag} must be nonnegative, got {bound}\n")
    k = getattr(args, "k", None)
    if k is not None and not 0 <= k < args.c:
        # an empty Betti window would print zeros or an empty OK
        parser.exit(2, f"kosz: error: need 0 <= k < c, got k={k}\n")
    try:
        return args.func(args)
    except (ValueError, SizeGuardError, exactla.ExactEliminationError, OSError) as exc:
        parser.exit(2, f"kosz: error: {exc}\n")
    except ArithmeticError as exc:
        parser.exit(1, f"kosz: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
