"""The benchmark's tracer wraps koszul functions by name; every name it
lists must still resolve, or a traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = _targets()
    assert targets
    for span, (modname, attr) in targets.items():
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{span}: {modname}.{attr} is missing"
            owner = getattr(owner, part)
        assert callable(owner), f"{span}: {modname}.{attr} is not callable"
