"""The benchmark's tracer wraps koszul functions by name; every name it
lists must still resolve, and what its wrappers read must still exist, or a
traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _spans().TARGETS
    assert targets
    for span, (modname, attr) in targets.items():
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{span}: {modname}.{attr} is missing"
            owner = getattr(owner, part)
        assert callable(owner), f"{span}: {modname}.{attr} is not callable"


def test_traced_queries_run_and_report(tmp_path):
    # a traced run reads more than the wrapped names (e.g. the attributes its
    # counters label calls by, or the cache's record map), so drive small
    # queries through the tracer: cold and warm ones through a cache file
    spans = _spans()
    for modname in {modname for modname, _ in spans.TARGETS.values()}:
        importlib.import_module(modname)
    from koszul.cache import cache_path
    from koszul.cli import main

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["homology", "--n", "3", "--c", "2", "--t", "1", "--deg", "4", "--char", "5"]) == 0
        # the char-3 jump: (1^7) is a strand whose Morse matrix is not empty,
        # so it is ranked, mod 3 and fraction-free; most strands' are empty
        for field in (["--char", "3"], ["--exact"]):
            assert main(["homology", "--n", "7", "--c", "2", "--t", "2", "--deg", "7", *field]) == 0
        assert main(["table", "--n", "2", "--c", "2", "--exact"]) == 0
        assert main(["verify", "zgen", "--n", "3", "--c", "2", "--t", "2", "--char", "0"]) == 0
        # 17 witnesses: each product a wedge of Z_1 generators, one block
        assert main(["verify", "factorial", "--n", "3", "--c", "2", "--char", "3",
                     "--stratum", "3", "2", "2"]) == 0
        # two rings filled cold into one directory, then one warm table, traced
        # on its own, which must load the records of its own ring and no others
        for n in ("2", "3"):
            assert main(["table", "--n", n, "--c", "2", "--cache-dir", str(tmp_path)]) == 0
        cold, cold_calls = tracer.metrics(), dict(tracer.calls)
        tracer.reset()
        assert main(["table", "--n", "3", "--c", "2", "--cache-dir", str(tmp_path)]) == 0
    finally:
        tracer.restore()
    warm = tracer.metrics()
    assert cold["exactla.dense.calls"] > 0
    assert cold["exactla.fraction_free.calls"] > 0
    # the generator profile, its kernels and its Z_1 generators stay visible
    assert cold_calls["homology.z_generator_profile"] == 1
    assert cold["exactla.kernel.calls"] > 0
    # the factorial membership test hands a raw block to ColumnSpace, whose
    # wrapper reads .cells of it
    assert cold["exactla.colspace.calls"] > 0
    assert cold_calls["cycles.z1_generator"] > 0
    # the factorial products and the Z_1 wedges of the profile are wedges
    assert cold["cycles.wedge.calls"] > 0
    assert cold["complex.differential_block.calls"] > 0
    own = Path(cache_path(str(tmp_path), 3, 2)).read_text().splitlines()
    assert own and warm["cli.cache.records_loaded"] == len(own)
    assert warm["cli.cache.get.calls"] > 0
    assert warm["cli.cache.hit_ratio"] == 1.0  # a warm table asks only for records it holds
