"""The package keeps only what a command reads.

A function or method defined in `src/koszul` is read when its name appears
as an identifier (a bare name or an attribute) somewhere in `src/koszul`
outside its own definition, or when `koszul/__init__.py` re-exports it.  It
is tracer-read when an entry of the benchmark tracer's `TARGETS`
(`bench/spans.py`) names it.  Helpers that only tests use live in
`tests/oracles.py`.
The rule matches by name alone, so a helper that shares its name with a
method of a builtin (`set.add`) passes it; such names are checked on their
own below.
"""

import ast
import importlib.util
from pathlib import Path

from koszul import combinatorics, cycles, exactla

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "koszul"

# Kept while acceptance criterion 11 reads it (tests/test_acceptance.py).
READ_ONLY_BY_TESTS = {"homology.HomologyEngine.euler_characteristic"}

# Kept while the benchmark tracer wraps them.  ColumnSpace.contains is read
# by name only in its own body, where it calls VectorSpan.contains.
READ_ONLY_BY_TRACER = {
    "homology.HomologyEngine.block_rank",
    "homology.HomologyEngine.block_dim",
    "combinatorics.partitions_into",
    "combinatorics.orbit_size",
    "exactla.ColumnSpace.contains",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, node) for every function at module level or in a
    class body, dunder methods left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{module}.{node.name}.{item.name}", item


def _identifiers(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unread_names(package: Path) -> set[str]:
    """Qualified names of the functions and methods no code in the package
    reads under the rule of this module."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in package.glob("*.py")}
    everywhere: dict[str, int] = {}
    for tree in trees.values():
        for name in _identifiers(tree):
            everywhere[name] = everywhere.get(name, 0) + 1
    exported = {
        alias.asname or alias.name
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unread = set()
    for module, tree in trees.items():
        for qualname, node in _definitions(module, tree):
            inside = sum(1 for name in _identifiers(node) if name == node.name)
            if everywhere.get(node.name, 0) == inside and node.name not in exported:
                unread.add(qualname)
    return unread


def tracer_read_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {f"{modname.rsplit('.', 1)[1]}.{attr}" for modname, attr in spans.TARGETS.values()}


def test_every_unread_name_is_listed():
    listed = READ_ONLY_BY_TESTS | READ_ONLY_BY_TRACER
    unread = unread_names(PACKAGE)
    assert not unread - listed, f"read by no code in koszul: {sorted(unread - listed)}"
    assert not listed - unread, f"now read in koszul, drop from the list: {sorted(listed - unread)}"


def test_tracer_only_names_are_traced():
    assert READ_ONLY_BY_TRACER <= tracer_read_names()
    assert not READ_ONLY_BY_TESTS & tracer_read_names()


def test_test_only_helpers_are_gone():
    # cycles.add passes the rule above, since set.add shares its name
    gone = {
        exactla.SparseIntMatrix: ("from_triplets", "from_dense", "to_dense"),
        cycles: ("unit_element", "add", "integer_scale", "monomial_scale", "is_cycle"),
        combinatorics: ("divides",),
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"



def test_sources_parse_as_python_3_10():
    # pyproject.toml requires Python >= 3.10, whatever interpreter runs this
    for folder in ("src/koszul", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            ast.parse(path.read_text(), str(path), feature_version=(3, 10))
