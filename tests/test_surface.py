"""The names other code reaches fedkd through: every function the benchmark's
tracer wraps (``SPANNED`` in perfbench/spans.py), every other fedkd name the
benchmark reads (in perfbench/child.py and spans.py), both read with ``ast``
and not imported, and every name the README's library example imports.
Trimming or reshaping one of them breaks the benchmark or the README, so it
fails here first.
The package root exports the README's names and no others. A public name
is one without a leading underscore; no module restates its names in an
``__all__`` list. Every other function and class in the package has a
caller in it, and every name a module imports is read there. The random
streams' purpose tags are distinct across modules."""
import ast
import functools
import importlib
import types
from pathlib import Path

import numpy as np
import pytest

import fedkd
from fedkd.cli import build_data, parse_dict
from fedkd.datasets import PartitionPlan

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


def _fedkd_attr(node) -> str | None:
    """``modules["fedkd.<module>"].<name>`` as ``"<module>.<name>"``, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Subscript)
            and isinstance(key := node.value.slice, ast.Constant)
            and str(key.value).startswith("fedkd.")):
        return f"{key.value.removeprefix('fedkd.')}.{node.attr}"
    return None


def perfbench_reads() -> list[str]:
    """The dotted fedkd names the benchmark reads besides ``SPANNED``:
    ``cli.<name>`` in child.py, and ``modules["fedkd.<module>"].<name>`` in
    spans.py with each attribute read on a variable that name is bound to."""
    child = ast.walk(ast.parse((ROOT / "perfbench" / "child.py").read_text()))
    names = {f"cli.{n.attr}" for n in child if isinstance(n, ast.Attribute)
             and isinstance(n.value, ast.Name) and n.value.id == "cli"
             and not n.attr.startswith("__")}
    spans = list(ast.walk(ast.parse((ROOT / "perfbench" / "spans.py").read_text())))
    names |= {name for n in spans if (name := _fedkd_attr(n))}
    bound = {t.id: name for n in spans if isinstance(n, ast.Assign)
             and (name := _fedkd_attr(n.value)) for t in n.targets if isinstance(t, ast.Name)}
    names |= {f"{bound[n.value.id]}.{n.attr}" for n in spans if isinstance(n, ast.Attribute)
              and isinstance(n.value, ast.Name) and n.value.id in bound}
    return sorted(names)


def test_perfbench_reads_cover_the_names_it_is_known_to_read():
    """The ``ast`` search above finds what the benchmark is known to read,
    so the resolve test below is not vacuous."""
    assert set(perfbench_reads()) >= {"cli.parse_config", "cli.main", "cli.build_data",
                                      "protocol.BandwidthLedger.add"}


@pytest.mark.parametrize("dotted", perfbench_reads())
def test_every_name_perfbench_reads_resolves(dotted):
    module, *attrs = dotted.split(".")
    assert callable(functools.reduce(getattr, attrs, importlib.import_module(f"fedkd.{module}")))


def test_build_data_returns_the_plan_perfbench_reads_last():
    """perfbench/child.py reads the shard sizes from
    ``build_data(cfg, seed)[3].assignments``: four items, the last a plan
    that covers the private split exactly once. A refactor that builds the
    splits another way must keep this or change the benchmark with it."""
    doc = {"task": {"kind": "synthetic", "num_classes": 3, "dim": 4, "train_per_class": 10,
                    "test_per_class": 5, "public_per_class": 30}, "num_nodes": 4}
    data = build_data(parse_dict(doc), 0)
    assert len(data) == 4
    private, plan = data[0], data[3]
    assert isinstance(plan, PartitionPlan) and len(plan.assignments) == 4
    assert np.array_equal(np.sort(np.concatenate(plan.assignments)), np.arange(private.n))


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
    aside) is read by name somewhere in src/fedkd outside the bodies of the
    definitions of that name, or is pinned: spanned by the benchmark,
    imported by the README library example, or imported by the acceptance
    tests, a method of an imported class included where they call it.
    Anything else is dead code. A name written only as a string counts as no
    caller, and so does a read inside its own definition: a recursive call,
    or a method such as ``integers`` that reads ``self._gen.integers``."""
    trees = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "fedkd").glob("*.py"))]
    nodes = [n for t in trees for n in ast.walk(t)]
    defs = [n for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    defined = {n.name for n in defs if not n.name.startswith("__")}
    own = {}  # name -> ids of the nodes inside a definition of that name
    for d in defs:
        own.setdefault(d.name, set()).update(map(id, ast.walk(d)))
    names = [(n.id if isinstance(n, ast.Name) else n.attr, id(n)) for n in nodes
             if isinstance(n, (ast.Name, ast.Attribute))]
    read = {name for name, node in names if node not in own.get(name, ())}
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


def test_stream_tags_are_distinct():
    """Every random draw comes from a stream keyed by (seed, tag, ...), so the
    determinism contract needs each purpose tag, data generation's in
    fedkd.cli and the protocol's, to name one purpose only."""
    tags = {f"{module}.{name}": value for module in ("cli", "protocol")
            for name, value in vars(importlib.import_module(f"fedkd.{module}")).items()
            if name.startswith("STREAM_")}
    assert len(tags) == 11
    assert len(set(tags.values())) == len(tags), tags
