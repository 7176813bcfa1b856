"""Outside-in layer tracing for the benchmark.

`Tracer.install()` replaces the public functions of each koszul layer with
timing wrappers, by substituting module and class attributes from here; the
package itself is not modified.  Every module attribute that holds the
original object is replaced, so `from .complex import block_basis` copies
are traced too.  `Tracer.restore()` puts every original back.

Each call becomes a span (name, start, end, parent, query id).  Spans stay
in memory until the run writes them out.  A span's self time is its
duration minus its children's; the time a query spends outside every
wrapped function is the self time of its root span, `cli.main`, so the
self times of all spans add up to the traced solve time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# span name -> (module, attribute); a class attribute is "Class.method".
# Layers are the first component of the span name; "cli.cache" is the rank
# cache inside cli.py, kept apart from parse/render/print.
TARGETS = {
    "combinatorics.partitions_into": ("koszul.combinatorics", "partitions_into"),
    "combinatorics.compositions": ("koszul.combinatorics", "compositions"),
    "combinatorics.orbit_size": ("koszul.combinatorics", "orbit_size"),
    "complex.block_basis": ("koszul.complex", "block_basis"),
    "complex.differential_block": ("koszul.complex", "differential_block"),
    "exactla.rank_mod_p": ("koszul.exactla", "rank_mod_p"),
    "exactla.fraction_free": ("koszul.exactla", "rank_fraction_free"),
    "exactla.snf": ("koszul.exactla", "elementary_divisors"),
    "exactla.kernel": ("koszul.exactla", "kernel_basis"),
    "exactla.colspace": ("koszul.exactla", "ColumnSpace.__init__"),
    "exactla.colspace.contains": ("koszul.exactla", "ColumnSpace.contains"),
    "homology.homology_dim": ("koszul.homology", "HomologyEngine.homology_dim"),
    "homology.homology_table": ("koszul.homology", "HomologyEngine.homology_table"),
    "homology.betti_table": ("koszul.homology", "HomologyEngine.betti_table"),
    "homology.gl_index": ("koszul.homology", "HomologyEngine.gl_index"),
    "homology.z_generator_profile": ("koszul.homology", "HomologyEngine.z_generator_profile"),
    "homology.block_dim": ("koszul.homology", "HomologyEngine.block_dim"),
    "homology.block_rank": ("koszul.homology", "HomologyEngine.block_rank"),
    "homology.rank_mod_p": ("koszul.homology", "HomologyEngine._rank_mod_p"),
    "homology.check_duality": ("koszul.homology", "check_duality"),
    "homology.check_green_bound": ("koszul.homology", "check_green_bound"),
    "homology.verify_vanishing": ("koszul.homology", "verify_vanishing"),
    "cycles.verify_factorial_theorem": ("koszul.cycles", "verify_factorial_theorem"),
    "cycles.is_boundary": ("koszul.cycles", "is_boundary"),
    "cycles.wedge": ("koszul.cycles", "wedge"),
    "cycles.z1_generator": ("koszul.cycles", "z1_generator"),
    "cycles.coefficient_space_dim": ("koszul.cycles", "coefficient_space_dim"),
    "cli.cache.load": ("koszul.cli", "RankCache._load"),
    "cli.cache.get": ("koszul.cli", "RankCache.get"),
    "cli.cache.put": ("koszul.cli", "RankCache.put"),
}

# Generators are drained inside their span, so the span covers the work.
GENERATORS = {"combinatorics.partitions_into", "combinatorics.compositions"}

LAYERS = ("combinatorics", "complex", "exactla", "homology", "cycles", "cli", "cli.cache")


def layer_of(name: str) -> str:
    return "cli.cache" if name.startswith("cli.cache") else name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.qid = ""
        self._stack: list[list] = []  # [span index, name, start, child time]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.largest_cells = 0
        self.bases: set[tuple] = set()
        self.engines: list = []
        self._rank_frames: list[list[int]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.qid))
        self._stack.append([len(self.spans) - 1, name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        idx, name, start, child = self._stack.pop()
        dur = end - start
        self.spans[idx] = (name, start, end, self.spans[idx][3], self.qid)
        if self._stack:
            self._stack[-1][3] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - child

    def wrap(self, name: str, fn, pre=None, post=None):
        """A traced stand-in for fn.  pre(args) runs before the span and its
        result goes to post(args, state, out), which runs after it."""
        tracer = self
        drain = name in GENERATORS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if drain and tracer._stack and tracer._stack[-1][1] == name:
                return fn(*args, **kwargs)  # recursion inside a drained generator
            state = pre(args) if pre else None
            span = name(args) if callable(name) else name
            tracer._enter(span)
            try:
                out = fn(*args, **kwargs)
                if drain:
                    out = list(out)
            finally:
                tracer._exit()
            if post:
                post(args, state, out)
            return iter(out) if drain else out

        return traced

    # -- install / restore -----------------------------------------------------

    def install(self) -> None:
        for name, (modname, attr) in TARGETS.items():
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrapper(name, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrapper(name, orig)
            for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "koszul"]:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        engine_cls = sys.modules["koszul.homology"].HomologyEngine
        orig_init = engine_cls.__init__
        self._patches.append((engine_cls, "__init__", orig_init))

        @functools.wraps(orig_init)
        def init(engine, *args, **kwargs):
            orig_init(engine, *args, **kwargs)
            self.engines.append(engine)

        engine_cls.__init__ = init

    def restore(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def _wrapper(self, name: str, fn):
        """The wrapper for one target, with the counters recorded at it."""

        def cells(args):
            c = args[0].cells
            self.largest_cells = max(self.largest_cells, c)
            return c

        def add_cells(kind):
            def post(args, c, out):
                self.count[f"exactla.{kind}.cells"] += c

            return post

        if name == "exactla.rank_mod_p":
            # dense and sparse are split by the argument, as rank_mod_p does
            def kind(args):
                m = args[0]
                return "exactla.dense" if m.cells <= m.dense_threshold else "exactla.sparse"

            def post(args, c, out):
                self.count[f"{kind(args)}.cells"] += c

            return self.wrap(kind, fn, cells, post)
        if name in ("exactla.fraction_free", "exactla.snf"):
            return self.wrap(name, fn, cells, add_cells(name.split(".")[1]))
        if name == "exactla.kernel":
            return self.wrap(name, fn, cells)
        if name == "exactla.colspace":
            return self.wrap(name, fn, lambda args: cells(args[1:]))
        if name == "complex.block_basis":
            def post(args, _, out):
                params, t, alpha = args
                self.bases.add((params.n, params.c, t, tuple(alpha)))

            return self.wrap(name, fn, post=post)
        if name == "complex.differential_block":
            def post(args, _, out):
                self.count["complex.differential_block.nnz"] += len(out.entries)

            return self.wrap(name, fn, post=post)
        if name == "homology.block_rank":
            def pre(args):
                self._rank_frames.append([0])

            def post(args, _, out):
                primes_tried = self._rank_frames.pop()[0]
                f = args[0].field
                if f.kind == "rational" and f.policy == "multiprime" and primes_tried:
                    self.count["multiprime.attempts"] += 1
                    self.count["multiprime.agree"] += primes_tried == f.num_primes

            return self.wrap(name, fn, pre, post)
        if name == "homology.rank_mod_p":
            def pre(args):
                if self._rank_frames:
                    self._rank_frames[-1][0] += 1

            return self.wrap(name, fn, pre)
        if name == "cli.cache.load":
            def post(args, before, out):
                self.count["cli.cache.records_loaded"] += len(args[0]._mem) - before

            return self.wrap(name, fn, lambda args: len(args[0]._mem), post)
        if name == "cli.cache.get":
            def post(args, _, out):
                self.count["cli.cache.hits"] += out is not None

            return self.wrap(name, fn, post=post)
        if name == "cli.cache.put":
            def size(args):
                path = args[0].path
                return os.path.getsize(path) if path and os.path.exists(path) else 0

            def post(args, before, out):
                self.count["cli.cache.bytes_written"] += size(args) - before

            return self.wrap(name, fn, size, post)
        return self.wrap(name, fn)

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last reset.

        A ratio whose denominator is 0 has no data on this workload; it is
        reported as 0 and its name is listed in `self.no_data`."""
        calls, self_s, count = self.calls, self.self_s, self.count
        out: dict[str, float] = {}
        self.no_data: list[str] = []

        def ratio(name: str, num: float, den: float) -> None:
            out[name] = num / den if den else 0.0
            if not den:
                self.no_data.append(name)

        for kind in ("dense", "sparse", "fraction_free", "snf"):
            out[f"exactla.{kind}.calls"] = calls[f"exactla.{kind}"]
            out[f"exactla.{kind}.s"] = self_s[f"exactla.{kind}"]
            out[f"exactla.{kind}.cells"] = count[f"exactla.{kind}.cells"]
        out["exactla.kernel.calls"] = calls["exactla.kernel"]
        out["exactla.kernel.s"] = self_s["exactla.kernel"]
        out["exactla.colspace.calls"] = calls["exactla.colspace"] + calls["exactla.colspace.contains"]
        out["exactla.colspace.s"] = self_s["exactla.colspace"] + self_s["exactla.colspace.contains"]
        out["exactla.largest_block_cells"] = self.largest_cells
        bb = calls["complex.block_basis"]
        out["complex.block_basis.calls"] = bb
        out["complex.block_basis.s"] = self_s["complex.block_basis"]
        out["complex.differential_block.calls"] = calls["complex.differential_block"]
        out["complex.differential_block.s"] = self_s["complex.differential_block"]
        out["complex.differential_block.nnz"] = count["complex.differential_block.nnz"]
        ratio("complex.basis_reuse_ratio", len(self.bases), bb)
        eliminations = sum(e.stats["eliminations"] for e in self.engines)
        hits = sum(e.stats["cache_hits"] for e in self.engines)
        out["homology.block_rank.calls"] = calls["homology.block_rank"]
        out["homology.eliminations"] = eliminations
        ratio("homology.memo_hit_ratio", hits, hits + eliminations)
        ratio("homology.multiprime_agree_ratio", count["multiprime.agree"], count["multiprime.attempts"])
        for fn in ("is_boundary", "wedge"):
            out[f"cycles.{fn}.calls"] = calls[f"cycles.{fn}"]
            out[f"cycles.{fn}.s"] = self_s[f"cycles.{fn}"]
        out["cli.cache.load_s"] = self_s["cli.cache.load"]
        out["cli.cache.records_loaded"] = count["cli.cache.records_loaded"]
        out["cli.cache.get.calls"] = calls["cli.cache.get"]
        ratio("cli.cache.hit_ratio", count["cli.cache.hits"], calls["cli.cache.get"])
        out["cli.cache.put.calls"] = calls["cli.cache.put"]
        out["cli.cache.put.s"] = self_s["cli.cache.put"]
        out["cli.cache.bytes_written"] = count["cli.cache.bytes_written"]
        layer_s = dict.fromkeys(LAYERS, 0.0)
        for name, s in self_s.items():
            layer_s[layer_of(name)] += s
        for layer, s in layer_s.items():
            out[f"{layer}.s"] = s
        return out

    def root_seconds(self) -> float:
        return sum(end - start for name, start, end, parent, _ in self.spans if parent == -1)



def write(path, span_list) -> None:
    """One JSON array per line: name, start, end, parent index, query id."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in span_list:
            fh.write(json.dumps(span) + "\n")
