"""The benchmark's tracer wraps graycohom functions by (module, attribute)
name.  Renaming one would only show as a failed traced run, so this test
reads both name tables from perfbench/tracing.py as literals, without
importing the benchmark, and resolves every name.  A counted method is
wrapped on the class named in the table only, so no graycohom subclass
may override it: the calls of the override would go uncounted."""

import ast
import importlib
import pathlib
import pkgutil

import graycohom

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _table(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {TRACING}")


def _tree():
    return ast.parse(TRACING.read_text(encoding="utf-8"))


def test_traced_names_resolve():
    tree = _tree()
    names = [*_table(tree, "SPANNED"), *_table(tree, "COUNTED")]
    assert names
    for modname, attr in names:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), (modname, attr)
            owner = getattr(owner, part)
        assert callable(owner), (modname, attr)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_subclass_overrides_a_counted_method():
    for info in pkgutil.iter_modules(graycohom.__path__):
        importlib.import_module(f"graycohom.{info.name}")
    overrides = []
    for modname, attr in _table(_tree(), "COUNTED"):
        *path, leaf = attr.split(".")
        owner = importlib.import_module(modname)
        for part in path:
            owner = getattr(owner, part)
        for sub in _subclasses(owner):
            if sub.__module__.startswith("graycohom") and leaf in vars(sub):
                overrides.append(f"{sub.__module__}.{sub.__qualname__}.{leaf}")
    assert not overrides, overrides
