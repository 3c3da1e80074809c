"""The benchmark's tracer wraps graycohom functions by (module, attribute)
name.  Renaming one would only show as a failed traced run, so this test
reads both name tables from perfbench/tracing.py as literals, without
importing the benchmark, and resolves every name."""

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _table(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {TRACING}")


def test_traced_names_resolve():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    names = [*_table(tree, "SPANNED"), *_table(tree, "COUNTED")]
    assert names
    for modname, attr in names:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), (modname, attr)
            owner = getattr(owner, part)
        assert callable(owner), (modname, attr)
