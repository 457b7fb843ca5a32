"""Module layering of ``src/nambu``: imports at top level, public names only.

A function-level import hides an import cycle, and a cross-module import
of a private name couples two modules through an internal detail; neither
is allowed.  Every module must also import on its own in a fresh
interpreter, importing the CLI must load none of a few costly stdlib
modules, and every name that the benchmark's layer tracer wraps must exist
where the tracer looks for it.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nambu"
MODULES = sorted(PACKAGE.glob("*.py"))
TRACER = PACKAGE.parent.parent / "perfbench" / "tracer.py"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    nested = [
        f"{path.name}:{node.lineno}"
        for function in ast.walk(_tree(path))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_imported_across_modules(path):
    private = [
        f"{path.name}:{node.lineno}: {alias.name}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("nambu"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_in_a_fresh_interpreter(path):
    module = "nambu" if path.stem == "__init__" else f"nambu.{path.stem}"
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_cli_import_loads_no_heavy_stdlib_module():
    # importing nambu.cli is the start-up cost of every CLI run, and these
    # stdlib modules each cost milliseconds to import; -S keeps site's .pth
    # files, which may load them, out of the interpreter
    heavy = ["dataclasses", "inspect", "typing", "pathlib"]
    code = "import sys, nambu.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, *heavy],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_traced_names_resolve():
    # perfbench/tracer.py finds what it times and counts by name, so a
    # function moved or deleted from its module would otherwise fail only
    # in a traced benchmark run
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{name}"
        for module, names in tracer.TIMED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"nambu.{module}"), name, None))
    ]
    for module, class_name, methods in tracer.COUNTED.values():
        cls = getattr(importlib.import_module(f"nambu.{module}"), class_name, object)
        missing += [
            f"{module}.{class_name}.{method}"
            for method in methods
            if getattr(cls, method, None) in (None, getattr(object, method, None))
        ]
    assert missing == []
