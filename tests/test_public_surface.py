"""The public surface: what each module exports, and what the oracles import.

Tools that walk `__all__` (the span tracer of the benchmark harness calls
getattr on every listed name) need each listed name to exist, and the
package namespace re-exports only names its modules export.  Every
exported function has a caller in the library, the scripts or the
benchmark harness.  The oracle module must not import the closed forms it
checks.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import susy_fisheye

PACKAGE_DIR = Path(susy_fisheye.__file__).parent
# __main__ runs the command line on import
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE_DIR)])
                 if not m.name.startswith("_"))


def imports_from(path):
    """(level, module, names) of every import statement in a source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            found.append((node.level, node.module or "", [a.name for a in node.names]))
        elif isinstance(node, ast.Import):
            found += [(0, a.name, []) for a in node.names]
    return found


@pytest.mark.parametrize("short", MODULES)
def test_every_exported_name_resolves(short):
    module = importlib.import_module(f"susy_fisheye.{short}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_reexports_only_exported_names():
    stale = [
        f"{module}.{name}"
        for level, module, names in imports_from(PACKAGE_DIR / "__init__.py")
        if level == 1
        for name in names
        if name not in importlib.import_module(f"susy_fisheye.{module}").__all__
    ]
    assert stale == []


def test_numerics_imports_nothing_from_the_package():
    own = [
        (level, module)
        for level, module, _ in imports_from(PACKAGE_DIR / "numerics.py")
        if level > 0 or module.split(".")[0] == "susy_fisheye"
    ]
    assert own == []


def names_read(paths):
    """Every name loaded, and every attribute read, in the given source files."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                found.add(node.id if isinstance(node, ast.Name) else node.attr)
    return found


def test_every_exported_function_has_a_caller_outside_the_tests():
    # the library (its re-exports aside), the scripts and the benchmark
    # harness; a public function that only the tests call should go
    root = PACKAGE_DIR.parents[1]
    sources = [p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py"]
    sources += root.glob("scripts/*.py")
    sources += [p for p in root.glob("perfbench/*.py") if not p.name.startswith("test_")]
    called = names_read(sources)
    uncalled = []
    for short in MODULES:
        module = importlib.import_module(f"susy_fisheye.{short}")
        uncalled += [
            f"{short}.{name}"
            for name in module.__all__
            if inspect.isfunction(getattr(module, name)) and name not in called
        ]
    assert uncalled == []
