"""Benchmark of the `kosz` command line, driven in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
`src/`, and the run fails without printing a result when it is missing.
One process runs one workload (see workloads.py).  It repeats passes over
the workload's queries for about `--seconds` seconds (at least one pass)
and checks every query's output (see checks.py).

With `--trace 0` the last stdout line carries the end-to-end metrics:
`solve_s` (median time of a pass), `setup_s` (median import of the
package in a fresh interpreter, plus the median cache fill where the
workload has one), `peak_rss_mb` and `ok_frac` (share of queries that
exited 0 and passed their checks).  Times are in reference seconds (see HostClock); the wall
times are in the record.  With `--trace 1` half the time runs untraced and
half traced (see spans.py), and the last line carries the per-layer
metrics of the median traced pass.  The line before the result records
the machine and every timing; both are also written under `.bench_work/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS, Workload, argv

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

IMPORT_SAMPLES = 5
FILL_SAMPLES = 3


def import_cli():
    """koszul.cli from this checkout's src/, never from anywhere else."""
    if not (SRC / "koszul" / "cli.py").is_file():
        sys.exit(f"bench: no koszul sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import koszul.cli

    if Path(koszul.cli.__file__).resolve().parent != SRC / "koszul":
        sys.exit(f"bench: koszul was imported from {koszul.cli.__file__}, not {SRC}")
    return koszul.cli


# -- host speed -----------------------------------------------------------------


def calibration_seconds() -> float:
    """Best of five runs of a fixed interpreter-bound loop that uses no
    koszul code: tuple keys, dict updates, small-integer arithmetic, a sort."""
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        table: dict[tuple[int, int], int] = {}
        for i in range(40_000):
            key = (i % 97, i & 7)  # few keys: no memory to add to peak RSS
            table[key] = table.get(key, 0) + len(str(i)) + sum(key)
        sorted(table.items())
        best = min(best, time.perf_counter() - start)
    return best


class HostClock:
    """Converts wall time to reference seconds.

    The shared 2-core host this benchmark was built on changes speed over
    seconds and over minutes, for all work at once: ten back-to-back runs
    of one workload gave median passes from 1.30 to 2.17 s.  A fixed
    calibration loop, measured just before and just after each timed
    stretch, tracks those changes but swings more than the workloads do
    (2x between the host's fast and slow states, against 1.3x to 1.7x), so
    a stretch is scaled by the square root of NOMINAL_S over the mean
    calibration time.  The loop runs no koszul code, so a change to the
    package moves reference seconds in proportion to wall time.  Wall times
    are kept in the record.
    """

    NOMINAL_S = 0.025

    def __init__(self):
        self.last = calibration_seconds()
        self.samples = [self.last]

    def reference(self, wall_s: float) -> float:
        now = calibration_seconds()
        self.samples.append(now)
        scaled = wall_s * math.sqrt(self.NOMINAL_S / ((self.last + now) / 2))
        self.last = now
        return scaled


def import_seconds(clock: HostClock) -> list[tuple[float, float]]:
    """(wall, reference) seconds of importing koszul.cli in fresh
    interpreters that have already loaded numpy: the package's own import
    cost, without the interpreter start and numpy's import, which the
    package does not control and which only add noise here."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); import numpy; "
        "start = time.perf_counter(); import koszul.cli; print(time.perf_counter() - start)"
    )
    out = []
    for _ in range(IMPORT_SAMPLES):
        child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                               capture_output=True, text=True)
        wall = float(child.stdout.split()[-1])
        out.append((wall, clock.reference(wall)))
    return out


# -- machine record (read-only) ---------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def steal_ticks() -> int | None:
    """The steal counter of the aggregate cpu line of /proc/stat."""
    text = _read("/proc/stat")
    if not text:
        return None
    fields = text.splitlines()[0].split()
    return int(fields[8]) if len(fields) > 8 else None


def loadavg() -> list[float] | None:
    text = _read("/proc/loadavg")
    return [float(x) for x in text.split()[:3]] if text else None


def machine() -> dict:
    import numpy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")),
        platform.processor() or None,
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- queries and passes -------------------------------------------------------


class Runner:
    """Runs queries through the CLI entry point and checks each result."""

    def __init__(self, cli, workload: Workload, seed: int, reference: dict | None,
                 clock: HostClock | None = None):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.clock = clock
        self.tracer: spans.Tracer | None = None
        self.attempted = 0
        self.failures: list[dict] = []
        self.outputs: dict[str, str] = {}

    def query(self, qid: str, template: str, cache: str | None, main) -> float:
        buf = io.StringIO()
        if self.tracer is not None:
            self.tracer.qid = qid
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = main(argv(template, self.seed, cache))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed query, not a failed benchmark
            traceback.print_exc()
            rc = 1
        elapsed = time.perf_counter() - start
        stdout = buf.getvalue()
        problems = checks.check(qid, rc or 0, stdout, self.seed, self.reference)
        self.attempted += 1
        self.outputs[qid] = checks.normalize(stdout, self.seed)
        if problems:
            self.failures.append({"query": qid, "problems": problems})
            print(f"bench: {qid} failed: {'; '.join(problems)}", file=sys.stderr)
        return elapsed

    def run_pass(self, queries, cache: str | None, main) -> float:
        """Wall seconds of one pass over queries."""
        gc.collect()
        return sum(self.query(qid, template, cache, main) for qid, template in queries)

    def timed_pass(self, queries, cache: str | None, main) -> tuple[float, float]:
        wall = self.run_pass(queries, cache, main)
        return wall, self.clock.reference(wall)

    def timed_passes(self, budget_s: float, cache: str | None, main, on_pass=None):
        """(wall, reference) seconds of passes until the next one would end
        past budget_s wall seconds; at least one."""
        times: list[tuple[float, float]] = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start + statistics.median(w for w, _ in times) <= budget_s:
            pass_cache = fresh_dir() if self.workload.fresh_cache else cache
            try:
                times.append(self.timed_pass(self.workload.passes, pass_cache, main))
            finally:
                if self.workload.fresh_cache:
                    shutil.rmtree(pass_cache)
            if on_pass:
                on_pass()
        return times

    @contextlib.contextmanager
    def filled_cache(self, fills: list):
        """A fresh directory holding the workload's cold cache fill, whose
        (wall, reference) seconds are appended to fills; None for a
        workload without a fill."""
        if not self.workload.fill:
            yield None
            return
        cache = fresh_dir()
        try:
            fills.append(self.timed_pass(self.workload.fill, cache, self.cli.main))
            yield cache
        finally:
            shutil.rmtree(cache)

    def measure(self, budget_s: float):
        """(passes, fills) of untraced passes for about budget_s.  A workload
        with a fill is filled FILL_SAMPLES times, each fill followed by its
        share of the passes, so that the passes spread over the whole run."""
        segments = FILL_SAMPLES if self.workload.fill else 1
        passes: list[tuple[float, float]] = []
        fills: list[tuple[float, float]] = []
        for _ in range(segments):
            with self.filled_cache(fills) as cache:
                passes += self.timed_passes(budget_s / segments, cache, self.cli.main)
        return passes, fills


def fresh_dir() -> str:
    return tempfile.mkdtemp(prefix="cache-", dir=WORK)


def median_of(pairs, index: int) -> float:
    return statistics.median(p[index] for p in pairs)


# -- traced run ---------------------------------------------------------------


DETERMINISTIC_SUFFIXES = (".calls", ".cells", ".nnz", ".bytes_written", ".records_loaded",
                          ".eliminations", "_ratio", "_cells")


def traced_run(runner: Runner, budget_s: float) -> tuple[dict, dict]:
    tracer = spans.Tracer()
    passes: list[tuple[float, dict, list, list]] = []

    def collect():
        passes.append((tracer.root_seconds(), tracer.metrics(), tracer.spans, tracer.no_data))
        tracer.reset()

    with runner.filled_cache([]) as cache:
        untraced = runner.timed_passes(budget_s / 2, cache, runner.cli.main)
        tracer.install()
        runner.tracer = tracer
        try:
            traced = runner.timed_passes(budget_s / 2, cache, tracer.wrap("cli.main", runner.cli.main), collect)
        finally:
            runner.tracer = None
            tracer.restore()
    order = sorted(range(len(passes)), key=lambda i: passes[i][0])
    solve, metrics, span_list, no_data = passes[order[(len(order) - 1) // 2]]
    problems = []
    layer_sum = sum(metrics[f"{layer}.s"] for layer in spans.LAYERS)
    if abs(layer_sum - solve) > 1e-6:
        problems.append(f"layer self times sum to {layer_sum}, traced solve is {solve}")
    counters = [{k: v for k, v in m.items() if k.endswith(DETERMINISTIC_SUFFIXES)} for _, m, _, _ in passes]
    if any(c != counters[0] for c in counters):
        problems.append("deterministic counters differ between traced passes")
    metrics["trace.solve_s"] = solve
    metrics["trace.overhead_frac"] = median_of(traced, 1) / median_of(untraced, 1) - 1
    detail = {
        "untraced_passes": untraced,
        "traced_passes": traced,
        "counters": counters[0],
        "trace_problems": problems,
        "spans": len(span_list),
        "no_data_ratios": no_data,
    }
    spans.write(WORK / f"spans-{runner.workload.name}-seed{runner.seed}.jsonl", span_list)
    return metrics, detail


# -- main ---------------------------------------------------------------------


def parse_args(args=None):
    parser = argparse.ArgumentParser(description="Benchmark of the kosz CLI")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(args)


def main(args=None) -> int:
    opts = parse_args(args)
    # a default cache directory from the environment would leak state into
    # the cache-free workloads and write outside the checkout
    os.environ.pop("KOSZ_CACHE_DIR", None)
    cli = import_cli()
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[opts.workload]
    record = {"workload": workload.name, "seed": opts.seed, "trace": opts.trace,
              "seconds": opts.seconds, "machine": machine(), "loadavg_start": loadavg()}
    steal_start = steal_ticks()
    clock = HostClock()
    runner = Runner(cli, workload, opts.seed, checks.load_reference(), clock)

    imports = import_seconds(clock)
    if opts.trace:
        metrics, detail = traced_run(runner, opts.seconds)
        record.update(detail)
        trace_ok = not detail["trace_problems"]
    else:
        passes, fills = runner.measure(opts.seconds)
        setup = [median_of(imports, i) + (median_of(fills, i) if fills else 0.0) for i in (0, 1)]
        metrics = {
            "solve_s": median_of(passes, 1),
            "setup_s": setup[1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (runner.attempted - len(runner.failures)) / runner.attempted,
        }
        record.update({"passes": passes, "fills": fills,
                       "solve_wall_s": median_of(passes, 0), "setup_wall_s": setup[0]})
        trace_ok = True

    steal_end = steal_ticks()
    record.update({
        "imports": imports,
        "calibration_s": clock.samples,
        "loadavg_end": loadavg(),
        "steal_ticks": None if steal_start is None or steal_end is None else steal_end - steal_start,
        "failures": runner.failures,
    })
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if opts.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        sys.exit(f"bench: metrics {sorted(set(metrics) ^ set(declared))} do not match BENCHMARK.json")
    result = {
        "correct": not runner.failures and trace_ok,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }
    name = f"result-{workload.name}-seed{opts.seed}-trace{opts.trace}.json"
    (WORK / name).write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
