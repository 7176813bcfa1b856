"""Self-test of the benchmark's own machinery.

    python3 bench/selftest.py

For each workload it runs one untraced pass with the first of SEEDS and
two traced passes with the second (each after its own cache fill), and
checks that
- every query passes its output checks in all three passes;
- the checked outputs are identical for the two seeds;
- the two traced passes give identical deterministic counters;
- a corrupted reference is counted as a failure: a wrong digest, a wrong
  OK line, and, for every pinned query, a wrong pinned value whose digest
  was recorded from the wrong output, so only the pinned check can catch it.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import shutil
import sys

import checks
import run
import spans
from workloads import WORKLOADS

SEEDS = (11, 12)

# One edit per pinned query that makes its pinned value wrong.
CORRUPTIONS = {
    "table_n3c3": ("189", "190"),
    "table_n3c3_exact": ("189", "190"),
    "index_n3c3": ("beta[7,9] = 1", "beta[7,9] = 2"),
    "homology_n7c2_t5_d12_p5": ("= 172900", "= 172901"),
    "chardep_n7c2_t2_d7": ("jump: 3", "jump: 5"),
    "factorial_n7c2_p3_stratum": ("630 witnesses", "629 witnesses"),
}


def one_pass(cli, workload, seed, reference, traced: bool):
    """(runner, deterministic counters or None) of one fill plus pass."""
    runner = run.Runner(cli, workload, seed, reference)
    cache = run.fresh_dir()
    tracer = spans.Tracer()
    try:
        runner.run_pass(workload.fill, cache, cli.main)
        if not traced:
            runner.run_pass(workload.passes, cache, cli.main)
            return runner, None
        tracer.install()
        runner.tracer = tracer
        try:
            runner.run_pass(workload.passes, cache, tracer.wrap("cli.main", cli.main))
        finally:
            tracer.restore()
        metrics = tracer.metrics()
        return runner, {k: v for k, v in metrics.items() if k.endswith(run.DETERMINISTIC_SUFFIXES)}
    finally:
        shutil.rmtree(cache)


def corruption_problems(outputs: dict[str, str], seed: int, reference: dict) -> list[str]:
    """Corrupted references that the checks fail to flag."""
    missed = []
    for qid, text in outputs.items():
        bad = {**reference, qid: {**reference[qid], "sha256": "0" * 64}}
        if not checks.check(qid, 0, text, seed, bad):
            missed.append(f"{qid}: wrong digest not flagged")
        bad = {**reference, qid: {**reference[qid], "ok_line": "OK (corrupted)"}}
        if not checks.check(qid, 0, text, seed, bad):
            missed.append(f"{qid}: wrong OK line not flagged")
        if qid in CORRUPTIONS:
            old, new = CORRUPTIONS[qid]
            wrong = text.replace(old, new, 1)
            forged = {qid: {"sha256": checks.digest(wrong), "ok_line": checks.ok_line(wrong)}}
            if wrong == text or not checks.check(qid, 0, wrong, seed, forged):
                missed.append(f"{qid}: wrong pinned value not flagged")
    return missed


def main() -> int:
    seed_a, seed_b = SEEDS
    cli = run.import_cli()
    run.WORK.mkdir(exist_ok=True)
    reference = checks.load_reference()
    problems = []
    if set(CORRUPTIONS) != set(checks.PINNED):
        problems.append("CORRUPTIONS does not cover exactly the pinned queries")
    for name, workload in WORKLOADS.items():
        first, _ = one_pass(cli, workload, seed_a, reference, traced=False)
        second, counters_1 = one_pass(cli, workload, seed_b, reference, traced=True)
        third, counters_2 = one_pass(cli, workload, seed_b, reference, traced=True)
        for runner in (first, second, third):
            problems += [f"{name} seed {runner.seed}: {f}" for f in runner.failures]
        if first.outputs != second.outputs or second.outputs != third.outputs:
            problems.append(f"{name}: checked outputs differ between seeds {seed_a} and {seed_b}")
        if counters_1 != counters_2:
            diff = {k: (counters_1[k], counters_2[k]) for k in counters_1 if counters_1[k] != counters_2[k]}
            problems.append(f"{name}: deterministic counters differ: {diff}")
        problems += [f"{name}: {m}" for m in corruption_problems(first.outputs, seed_a, reference)]
        print(f"{name}: {len(first.outputs)} queries, {len(counters_1)} counters checked", flush=True)

    # the runner counts a query that fails its reference
    certified = WORKLOADS["certified"]
    qid, template = certified.passes[-3]
    bad = {**reference, qid: {**reference[qid], "sha256": "0" * 64}}
    runner = run.Runner(cli, certified, seed_a, bad)
    print(f"expected: {qid} fails against a corrupted digest", flush=True)
    runner.run_pass(((qid, template),), None, cli.main)
    if (runner.attempted, len(runner.failures)) != (1, 1):
        problems.append("a query failing its reference was not counted as failed")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
