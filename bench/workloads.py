"""The benchmark's workloads: fixed lists of `kosz` queries, run in sequence.

A query is `(qid, argv)`.  `argv` is a format string; `{seed}` is the
workload seed and `{cache}` a cache directory chosen by the runner.  Every
query runs with `--threads 1` so a pass measures one core's work.

Each workload has
- `passes`: the queries of one timed pass;
- `fill`: queries run cold into `{cache}` during set-up (warm_replay only);
- `fresh_cache`: whether every pass gets a new empty `{cache}`.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

T1 = "--threads 1"


@dataclass(frozen=True)
class Workload:
    name: str
    passes: tuple[tuple[str, str], ...]
    fill: tuple[tuple[str, str], ...] = field(default=())
    fresh_cache: bool = False


# n=4, c=2 vanishing over char 0 (two seeded primes): thousands of tiny
# blocks, each eliminated densely and appended to a fresh on-disk cache.
MANY_SMALL_BLOCKS = Workload(
    "many_small_blocks",
    passes=(
        ("vanishing_n4c2", f"verify vanishing --n 4 --c 2 --char 0 --seed {{seed}} --cache-dir {{cache}} {T1}"),
    ),
    fresh_cache=True,
)

# The char-5 stretch ring one degree lower: two blocks above the dense cell
# limit go to the sparse Markowitz kernel; the largest is 3010 x 2678.
FEW_LARGE_BLOCKS = Workload(
    "few_large_blocks",
    passes=(
        ("homology_n7c2_t5_d12_p5", f"homology --n 7 --c 2 --t 5 --deg 12 --char 5 {T1}"),
    ),
)

# Exact arithmetic only: fraction-free ranks, Smith normal forms, exact
# kernels and column-space membership.  No mod-p rank kernel runs.
CERTIFIED = Workload(
    "certified",
    passes=(
        ("duality_n4c2_exact_t1", f"verify duality --n 4 --c 2 --exact --tmax 1 {T1}"),
        ("table_n3c3_exact", f"table --n 3 --c 3 --exact {T1}"),
        ("chardep_n7c2_t3_d8", f"chardep --n 7 --c 2 --t 3 --deg 8 {T1}"),
        ("chardep_n7c2_t2_d7", f"chardep --n 7 --c 2 --t 2 --deg 7 {T1}"),
        ("factorial_n7c2_p3_stratum", f"verify factorial --n 7 --c 2 --char 3 --stratum 1 1 1 1 1 1 1 {T1}"),
        ("zgen_n4c2_t2", f"verify zgen --n 4 --c 2 --t 2 --char 0 {T1}"),
    ),
)

_N33 = f"--n 3 --c 3 --char 0 --seed {{seed}} --cache-dir {{cache}} {T1}"
_N42 = f"--n 4 --c 2 --char 0 --seed {{seed}} --cache-dir {{cache}} {T1}"
_REPLAY = (
    ("table_n3c3", f"table {_N33}"),
    ("betti_n3c3_k0", f"betti --k 0 {_N33}"),
    ("betti_n3c3_k1", f"betti --k 1 {_N33}"),
    ("betti_n3c3_k2", f"betti --k 2 {_N33}"),
    ("index_n3c3", f"index {_N33}"),
    ("greenbound_n3c3_k0", f"verify greenbound --k 0 {_N33}"),
    ("vanishing_n4c2", f"verify vanishing {_N42}"),
    ("duality_n4c2", f"verify duality {_N42}"),
)

# The same queries cold (set-up) and then warm: every rank comes from the
# cache file that set-up wrote with the same seed.
WARM_REPLAY = Workload("warm_replay", passes=_REPLAY, fill=_REPLAY)

WORKLOADS = {w.name: w for w in (MANY_SMALL_BLOCKS, FEW_LARGE_BLOCKS, CERTIFIED, WARM_REPLAY)}


def argv(template: str, seed: int, cache: str | None) -> list[str]:
    return [tok.format(seed=seed, cache=cache) for tok in template.split()]
