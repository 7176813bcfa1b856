"""Record reference.json: the digest and OK line of every query's
normalized stdout, from one cold pass of each workload.

    python3 bench/record_reference.py

Run it only at a commit whose outputs are trusted; the pinned checks in
checks.py must pass on what it records, or nothing is written.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
from workloads import WORKLOADS


def main() -> int:
    seed = 1  # the reference is seed-independent: stdout is normalized
    cli = run.import_cli()
    run.WORK.mkdir(exist_ok=True)
    reference, failures = {}, []
    for workload in WORKLOADS.values():
        runner = run.Runner(cli, workload, seed, None)
        cache = run.fresh_dir()
        try:
            runner.run_pass(workload.fill + workload.passes, cache, cli.main)
        finally:
            shutil.rmtree(cache)
        failures += runner.failures
        for qid, text in runner.outputs.items():
            reference[qid] = {"sha256": checks.digest(text), "ok_line": checks.ok_line(text)}
    if failures:
        return 1
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(reference)} queries to {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
