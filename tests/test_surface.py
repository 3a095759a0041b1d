"""The names other code reaches fedkd through: every function the benchmark's
tracer wraps (``SPANNED`` in perfbench/spans.py, read with ``ast`` and not
imported) and every name the README's library example imports. Trimming one
of them breaks the traced benchmark or the README, so it fails here first.
The package root exports the README's names and no others."""
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
