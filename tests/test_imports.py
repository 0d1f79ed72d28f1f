"""Start-up stays light: singlab imports only the standard library and numpy."""

import ast
import os
import sys

import pytest

import singlab

from fresh_python import run_python

SRC = os.path.dirname(os.path.abspath(singlab.__file__))
ALLOWED = {"numpy", "singlab"}


def _module_level_imports(node):
    """Import statements that run when the module is imported: every one
    outside a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _module_level_imports(child)


def _roots(stmt):
    if isinstance(stmt, ast.ImportFrom):
        return ["singlab"] if stmt.level else [stmt.module.split(".")[0]]
    return [alias.name.split(".")[0] for alias in stmt.names]


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SRC) if f.endswith(".py")))
def test_module_level_imports_are_stdlib_numpy_or_singlab(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=name)
    imports = list(_module_level_imports(tree))
    assert imports, f"{name} imports nothing at module level"
    for stmt in imports:
        for root in _roots(stmt):
            assert root in sys.stdlib_module_names or root in ALLOWED, (
                f"{name}:{stmt.lineno} imports {root!r} at module level")


def test_cli_import_starts_no_thread():
    # the threads that run a CDF's chunks start with the CDF, so start-up
    # starts none and pays for no thread pool module
    code = "import sys, threading, singlab.cli; print(threading.active_count(), 'concurrent.futures' in sys.modules)"
    done = run_python(code, check=True)
    assert done.stdout.split() == ["1", "False"]


def test_cli_import_builds_no_format_table():
    # the tables of the cdf CSV's number formatter are built on first use,
    # so start-up does not pay for them
    code = "import singlab.cli; print(singlab.cli._g12_tables.cache_info().currsize)"
    done = run_python(code, check=True)
    assert done.stdout.split() == ["0"]
