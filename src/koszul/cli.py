"""Command-line surface: homology queries, diagram/CSV/JSON rendering, the
verification subcommands, and the characteristic-dependence scan.

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
from dataclasses import dataclass

from . import cycles, exactla
from .cache import ENGINE_VERSION, RankCache, cache_path
from .combinatorics import RingParams, partitions_into
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
# configuration


@dataclass
class RunConfig:
    n: int
    c: int
    char: int = 0
    threads: int = 1  # accepted and echoed in the JSON query; runs are single-threaded
    seed: int = 0
    cache_dir: str | None = None
    fmt: str = "diagram"
    exact: bool = False
    primes: int = 2
    no_orbit: bool = False  # accepted and echoed; orbit reduction is always on
    max_degree: int | None = None  # accepted and echoed when given; degrees are unbounded

    @property
    def params(self) -> RingParams:
        return RingParams(self.n, self.c)

    def field(self, certified: bool = False) -> FieldSpec:
        if self.char:
            return FieldSpec.prime(self.char)
        if self.exact or certified:
            return FieldSpec.rational(policy="fraction_free")
        return FieldSpec.rational(
            policy="multiprime", num_primes=self.primes, seed=self.seed
        )

    def cache(self) -> RankCache:
        directory = self.cache_dir or os.environ.get("KOSZ_CACHE_DIR")
        if not directory:
            return RankCache(None)  # memory-only: dedupes shared strand records
        os.makedirs(directory, exist_ok=True)
        return RankCache(cache_path(directory, self.n, self.c))

    def engine(self, field: FieldSpec | None = None, use_duality: bool = True) -> HomologyEngine:
        return HomologyEngine(
            self.params,
            field or self.field(),
            cache=self.cache(),
            use_duality=use_duality,
        )

    def query_echo(self, **extra) -> dict:
        base = {
            "n": self.n,
            "c": self.c,
            "char": self.char,
            "threads": self.threads,
            "seed": self.seed,
            "format": self.fmt,
            "exact": self.exact,
            "primes": self.primes,
            "no_orbit": self.no_orbit,
        }
        if self.max_degree is not None:
            base["max_degree"] = self.max_degree
        base.update(extra)
        return base


def _meta(cfg: RunConfig, field: FieldSpec, started: float) -> dict:
    if field.kind == "prime":
        primes_used = [field.p]
    elif field.policy == "multiprime":
        primes_used = list(exactla.multiprime_primes(field.seed, field.num_primes))
    else:
        primes_used = []
    return {
        "char_policy": field.describe(),
        "primes_used": primes_used,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
        "engine_version": ENGINE_VERSION,
        "seed": cfg.seed,
    }


def _emit_json(cfg: RunConfig, query: dict, result, meta: dict) -> None:
    print(json.dumps({"query": query, "result": result, "meta": meta}))


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


def cmd_homology(cfg: RunConfig, args) -> int:
    started = time.monotonic()
    field = cfg.field()
    engine = cfg.engine(field)
    parts = engine.orbit_dims(args.t, args.deg)
    dim = sum(parts.values())
    orbits = [
        {"rep": list(rep), "dim": v} for rep, v in sorted(parts.items(), reverse=True)
    ]
    if cfg.fmt == "json":
        result = [{"t": args.t, "d": args.deg, "dim": dim, "orbits": orbits}]
        _emit_json(cfg, cfg.query_echo(command="homology", t=args.t, deg=args.deg),
                   result, _meta(cfg, field, started))
    elif cfg.fmt == "csv":
        print("t,d,dim")
        print(f"{args.t},{args.deg},{dim}")
    else:
        print(f"dim H_{args.t} in degree {args.deg} = {dim}   [{field.describe()}]")
        for entry in orbits:
            print(f"  orbit {tuple(entry['rep'])}: {entry['dim']}")
    return 0


def _table_ranges(cfg: RunConfig, args) -> tuple[int, int, int]:
    params = cfg.params
    t_max = args.tmax if args.tmax is not None else params.N - params.n
    j_cap = params.n * (params.c - 1)
    j_max = args.jmax if args.jmax is not None else min(t_max + params.c - 1, j_cap)
    d_max = t_max * params.c + j_max
    return t_max, j_max, d_max


def cmd_table(cfg: RunConfig, args) -> int:
    started = time.monotonic()
    field = cfg.field()
    engine = cfg.engine(field)
    t_max, j_max, d_max = _table_ranges(cfg, args)
    table = engine.homology_table(t_max, d_max)
    query = cfg.query_echo(command="table", tmax=t_max, jmax=j_max)
    if cfg.fmt == "json":
        result = [
            {"t": t, "d": d, "dim": v} for (t, d), v in sorted(table.entries.items())
        ]
        _emit_json(cfg, query, result, _meta(cfg, field, started))
    elif cfg.fmt == "csv":
        print("t,d,dim")
        for (t, d), v in sorted(table.entries.items()):
            print(f"{t},{d},{v}")
    else:
        print(render_diagram(cfg.params, table.entries, t_max, j_max))
    return 0


def cmd_betti(cfg: RunConfig, args) -> int:
    started = time.monotonic()
    field = cfg.field()
    engine = cfg.engine(field)
    i_max = args.imax if args.imax is not None else cfg.params.N - cfg.params.n
    btable = engine.betti_table(args.k, i_max)
    query = cfg.query_echo(command="betti", k=args.k, imax=i_max)
    if cfg.fmt == "json":
        result = [
            {"i": i, "j": j, "beta": v} for (i, j), v in sorted(btable.entries.items())
        ]
        _emit_json(cfg, query, result, _meta(cfg, field, started))
    elif cfg.fmt == "csv":
        print("i,j,beta")
        for (i, j), v in sorted(btable.entries.items()):
            print(f"{i},{j},{v}")
    else:
        c = cfg.params.c
        j_grid = max((j for (_, j), v in btable.entries.items() if v), default=0)
        print(f"Betti table of V({c},{args.k})   [{field.describe()}]")
        for i in range(i_max + 1):
            row = [str(btable.beta(i, j)) for j in range(j_grid + 1)]
            print(f"  i={i}: " + " ".join(row))
    return 0


def cmd_index(cfg: RunConfig, args) -> int:
    started = time.monotonic()
    field = cfg.field()
    engine = cfg.engine(field)
    res = engine.gl_index(args.imax)
    if cfg.fmt == "json":
        witness = None
        if res.witness:
            witness = {"i": res.witness[0], "j": res.witness[1], "beta": res.witness[2]}
        result = [{"index": res.value, "i_max": res.i_max, "witness": witness}]
        _emit_json(cfg, cfg.query_echo(command="index", imax=res.i_max), result,
                   _meta(cfg, field, started))
    else:
        print(str(res))
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    what = args.what
    if what == "duality":
        return _verify_duality(cfg, args)
    if what == "vanishing":
        return _verify_vanishing(cfg, args)
    if what == "factorial":
        return _verify_factorial(cfg, args)
    if what == "coeffdim":
        return _verify_coeffdim(cfg, args)
    if what == "greenbound":
        return _verify_greenbound(cfg, args)
    if what == "zgen":
        return _verify_zgen(cfg, args)
    raise AssertionError(f"unknown verification {what!r}")


def _verify_duality(cfg: RunConfig, args) -> int:
    params = cfg.params
    field = cfg.field()
    engine = cfg.engine(field, use_duality=False)
    t_max = args.tmax if args.tmax is not None else params.N - params.n
    d_max = params.N * params.c - params.n
    table = engine.homology_table(t_max, d_max)
    report = check_duality(table, engine)
    if report.ok:
        print(
            f"OK ({report.checked} entries checked, {report.direct} direct, "
            f"{report.mirrored} mirrored)"
        )
        return 0
    for t, d, dim, partner in report.mismatches:
        print(f"MISMATCH: dim(t={t}, d={d}) = {dim} but partner has {partner}")
    return 1


def _verify_vanishing(cfg: RunConfig, args) -> int:
    report = verify_vanishing(cfg.params, cfg.field(), cache=cfg.cache())
    if report.ok:
        print(
            f"OK ({report.checked} window zeros checked, "
            f"{report.sharp_checked} sharpened)"
        )
        return 0
    for t, d, dim in report.failures + report.sharp_failures:
        print(f"NONZERO: dim H_{t} in degree {d} = {dim}")
    return 1


def _verify_factorial(cfg: RunConfig, args) -> int:
    params = cfg.params
    # membership must be certified: fraction-free over char 0
    field = cfg.field(certified=True)
    stratum = tuple(args.stratum) if args.stratum else None
    report = cycles.verify_factorial_theorem(
        params, args.samples, cfg.seed, field, stratum=stratum
    )
    small_char = 0 < field.characteristic <= params.c + 1
    print(
        f"factorial check: {len(report.witnesses)} witnesses, scale {report.factorial}, "
        f"{field.describe()}"
        + (f", seed {report.seed}" if report.seed is not None else ", exhaustive")
    )
    if report.failures:
        for w in report.failures[:10]:
            print(f"  SCALED NON-BOUNDARY: b={w.b_monomials} pairs={w.pairs}")
        if not small_char:
            return 1
    if report.findings:
        print(f"  findings: {len(report.findings)} unscaled witnesses outside the boundaries")
        w = report.findings[0]
        print(f"    e.g. b={w.b_monomials} pairs={w.pairs}")
    else:
        print("  findings: none (every unscaled witness already a boundary)")
    return 0


def _verify_coeffdim(cfg: RunConfig, args) -> int:
    params = cfg.params
    if params.n < 2:
        raise ValueError("verify coeffdim samples two-term cycles, which need --n >= 2")
    sampled = cycles.sample_nonzero_cycles(
        args.samples, cfg.seed, n_max=params.n, c_max=params.c
    )
    bad = []
    for z in sampled:
        dim = cycles.coefficient_space_dim(z)
        if dim < z.t + 1:
            bad.append((z, dim))
    if not bad:
        print(
            f"OK ({len(sampled)} nonzero cycles with n <= {params.n}, c <= {params.c}, "
            f"coefficient span always >= t+1)"
        )
        return 0
    for z, dim in bad[:10]:
        print(f"VIOLATION: t={z.t} coefficient span {dim} < {z.t + 1}")
    return 1


def _verify_greenbound(cfg: RunConfig, args) -> int:
    field = cfg.field()
    engine = cfg.engine(field)
    i_max = args.imax if args.imax is not None else cfg.params.N - cfg.params.n
    btable = engine.betti_table(args.k, i_max)
    report = check_green_bound(btable)
    if report.ok:
        print(f"OK ({report.columns_checked} columns within the degree bound)")
        return 0
    for v in report.violations:
        kind = "sharpened" if v.sharpened else "plain"
        print(f"VIOLATION ({kind}): t_{v.i} = {v.t_i} not < {v.bound}")
    return 1


def _verify_zgen(cfg: RunConfig, args) -> int:
    field = cfg.field(certified=True)
    engine = cfg.engine(field)
    profile = engine.z_generator_profile(args.t)
    print(f"Z_{args.t} generator degrees: "
          + ", ".join(f"{d}:{profile.counts[d]}" for d in sorted(profile.counts)))
    late = [d for d in profile.generator_degrees() if d > profile.top_degree]
    ok = not late and profile.top_layer_in_z1_span in (True, None)
    if ok:
        print(f"OK (no generators above degree {profile.top_degree}; "
              f"top layer in the Z_1-power span)")
        return 0
    if late:
        print(f"VIOLATION: generators above degree {profile.top_degree}: {late}")
    if profile.top_layer_in_z1_span is False:
        print("VIOLATION: top layer not spanned by Z_1 powers")
    return 1


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


def cmd_chardep(cfg: RunConfig, args) -> int:
    """Scan the elementary divisors of the blocks at (t, deg) and report the
    primes where any rank, hence any dimension, can jump.

    Each block is equivalent over Z to an identity on its matched Morse
    pairs plus the strand's Morse matrix, so only the Morse matrix is
    factored; the --snf-guard applies to its cells."""
    params = cfg.params
    jump_primes: set[int] = set()
    skipped = []
    for rep in partitions_into(args.deg, params.n):
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
            for divisor in exactla.elementary_divisors(m, max_cells=args.snf_guard):
                if divisor > 1:
                    jump_primes |= _prime_factors(divisor)
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


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="number of variables")
    sub.add_argument("--c", type=int, required=True, help="power of the maximal ideal")
    sub.add_argument("--char", type=int, default=0, help="coefficient characteristic: 0 or a prime")
    sub.add_argument("--threads", type=int, default=1,
                     help="ignored: accepted for compatibility, runs are single-threaded")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--cache-dir", default=None, help="rank cache directory (default $KOSZ_CACHE_DIR)")
    sub.add_argument("--format", dest="fmt", choices=("diagram", "csv", "json"), default="diagram")
    sub.add_argument("--exact", action="store_true", help="fraction-free rational ranks")
    sub.add_argument("--primes", type=int, default=2, help="multiprime sample size for char 0")
    sub.add_argument("--no-orbit", action="store_true",
                     help="ignored: accepted for compatibility, orbit reduction is always on")
    sub.add_argument("--max-degree", type=int, default=None,
                     help="ignored: accepted for compatibility, degrees are unbounded")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kosz",
        description="Exact multigraded homology of the Koszul complex on the "
        "degree-c monomials, with Betti tables and verification suites.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("homology", help="one dimension with its orbit support")
    _common_flags(p)
    p.add_argument("--t", type=int, required=True, help="homological degree")
    p.add_argument("--deg", type=int, required=True, help="internal degree")
    p.set_defaults(func=cmd_homology)

    p = subs.add_parser("table", help="dimension table / diagram")
    _common_flags(p)
    p.add_argument("--tmax", type=int, default=None)
    p.add_argument("--jmax", type=int, default=None, help="max internal degree offset row")
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("betti", help="graded Betti table of a Veronese module")
    _common_flags(p)
    p.add_argument("--k", type=int, default=0, help="Veronese module shift, 0 <= k < c")
    p.add_argument("--imax", type=int, default=None)
    p.set_defaults(func=cmd_betti)

    p = subs.add_parser("index", help="syzygy-linearity (Green-Lazarsfeld) index")
    _common_flags(p)
    p.add_argument("--imax", type=int, default=None)
    p.set_defaults(func=cmd_index)

    p = subs.add_parser("verify", help="verification suites; nonzero exit on violation")
    p.add_argument(
        "what",
        choices=("duality", "vanishing", "factorial", "coeffdim", "greenbound", "zgen"),
    )
    _common_flags(p)
    p.add_argument("--tmax", type=int, default=None)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--imax", type=int, default=None)
    p.add_argument("--stratum", type=int, nargs="+", default=None,
                   help="exhaustive factorial check over one multidegree")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("chardep", help="primes where dimensions can jump")
    _common_flags(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--snf-guard", type=int, default=exactla.SNF_CELL_GUARD)
    p.set_defaults(func=cmd_chardep)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.char and not exactla.is_prime(args.char):
        parser.error(f"--char must be 0 or a prime, got {args.char}")
    if args.max_degree is not None and args.max_degree < 1:
        parser.error("--max-degree must be positive")
    cfg = RunConfig(
        n=args.n,
        c=args.c,
        char=args.char,
        threads=args.threads,
        seed=args.seed,
        cache_dir=args.cache_dir,
        fmt=args.fmt,
        exact=args.exact,
        primes=args.primes,
        no_orbit=args.no_orbit,
        max_degree=args.max_degree,
    )
    try:
        return args.func(cfg, args)
    except (ValueError, SizeGuardError, exactla.ExactEliminationError, OSError) as exc:
        parser.exit(2, f"kosz: error: {exc}\n")
    except ArithmeticError as exc:
        parser.exit(1, f"kosz: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
