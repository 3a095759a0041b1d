"""The names other code reaches fedkd through: every function the benchmark's
tracer wraps (``SPANNED`` in perfbench/spans.py, read with ``ast`` and not
imported) and every name the README's library example imports. Trimming one
of them breaks the traced benchmark or the README, so it fails here first.
The package root exports the README's names and no others. A public name
is one without a leading underscore; no module restates its names in an
``__all__`` list. Every other function and class in the package has a
caller in it, and every name a module imports is read there."""
import ast
import importlib
import types
from pathlib import Path

import pytest

import fedkd

from conftest import readme_library_example

ROOT = Path(__file__).resolve().parent.parent


def spanned() -> list[tuple[str, str]]:
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets)]
    return sorted(ast.literal_eval(value))


@pytest.mark.parametrize("module, name", spanned())
def test_every_spanned_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"fedkd.{module}"), name, None))


def readme_library_imports() -> list[str]:
    return [alias.name for node in ast.walk(ast.parse(readme_library_example()))
            if isinstance(node, ast.ImportFrom) and node.module == "fedkd"
            for alias in node.names]


def test_every_readme_library_import_resolves():
    names = readme_library_imports()
    assert names
    assert [n for n in names if not hasattr(fedkd, n)] == []


def test_package_root_exports_exactly_the_readme_names():
    public = {n for n, v in vars(fedkd).items() if not n.startswith("_")
              and not isinstance(v, types.ModuleType)}
    assert public == set(readme_library_imports())


def test_every_function_and_class_has_a_caller_or_a_pin():
    """Each function or class defined in src/fedkd (methods included, dunders
    aside) is read by name somewhere in src/fedkd, or is pinned: spanned by
    the benchmark, imported by the README library example, or imported by
    the acceptance tests, a method of an imported class included where they
    call it. Anything else is dead code. A name written only as a string
    counts as no caller."""
    trees = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "fedkd").glob("*.py"))]
    nodes = [n for t in trees for n in ast.walk(t)]
    defined = {n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))
               and not n.name.startswith("__")}
    read = ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})
    acceptance = list(ast.walk(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())))
    imported = {a.name for n in acceptance if isinstance(n, ast.ImportFrom)
                and n.module.startswith("fedkd") for a in n.names}
    called = {n.attr for n in acceptance if isinstance(n, ast.Attribute)}
    methods = {f.name for c in nodes if isinstance(c, ast.ClassDef) and c.name in imported
               for f in c.body if isinstance(f, ast.FunctionDef)}
    pinned = ({name for _, name in spanned()} | set(readme_library_imports()) | imported
              | (methods & called))
    assert sorted(defined - read - pinned) == []


def test_no_module_lists_its_names_in_all():
    """The leading underscore is the one statement of what is public."""
    listed = [p.name for p in sorted((ROOT / "src" / "fedkd").glob("*.py"))
              for n in ast.walk(ast.parse(p.read_text()))
              if isinstance(n, ast.Name) and n.id == "__all__" and isinstance(n.ctx, ast.Store)]
    assert listed == []


@pytest.mark.parametrize("path", sorted(p.name for p in (ROOT / "src" / "fedkd").glob("*.py")
                                        if p.name != "__init__.py"))
def test_every_imported_name_is_read(path):
    """No linter runs on the package, so dead imports are caught here: every
    name a module imports is read in that module. The package root's
    re-exports are pinned by the README test above instead."""
    tree = ast.parse((ROOT / "src" / "fedkd" / path).read_text())
    imported = {(a.asname or a.name).split(".")[0] for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom)) and getattr(n, "module", "")
                != "__future__" for a in n.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - read) == []
