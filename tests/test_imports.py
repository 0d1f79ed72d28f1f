"""Start-up stays light: singlab imports only the standard library and
numpy; and every public function and method of the package has a caller or
a reason."""

import ast
import os
import pathlib
import re
import sys

import pytest

import singlab

from fresh_python import run_python

SRC = os.path.dirname(os.path.abspath(singlab.__file__))
ALLOWED = {"numpy", "singlab"}
ROOT = pathlib.Path(__file__).resolve().parent.parent
KEPT_HEADING = "### Library API that no command runs"


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


def _names_used(tree):
    """Every name, attribute and imported name in a module's code (not in
    its docstrings or strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rpartition(".")[2] for alias in node.names)


def _public_defs(tree):
    """(qualified name, is a method) of each public module-level function
    and each public method or property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            yield node.name, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from ((f"{node.name}.{item.name}", True) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"))


def test_every_public_name_has_a_caller_or_a_reason():
    # a public function or method that no module, benchmark op or script
    # names is reached by its own tests alone: README's list says why each
    # such name stays, so a new one, or a stale entry there, fails here.  A
    # method counts as called only where some code reads an attribute of
    # its name, since a bare name of that spelling is not the method
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "src" / "singlab").glob("*.py")) if path.name != "__init__.py"}
    callers = [ast.parse(path.read_text(encoding="utf-8"))
               for path in [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]]
    trees = [*modules.values(), *callers]
    used = {name for tree in trees for name in _names_used(tree)}
    attributes = {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unused = {f"{path.stem}.{name}" for path, tree in modules.items() for name, method in _public_defs(tree)
              if name.rpartition(".")[2] not in (attributes if method else used)}
    section = (ROOT / "README.md").read_text(encoding="utf-8").partition(KEPT_HEADING)[2].partition("\n#")[0]
    listed = set(re.findall(r"`(\w+(?:\.\w+)+)`", section))
    assert unused == listed, (f"called by tests alone, not in README: {sorted(unused - listed)}; "
                              f"in README, called elsewhere or gone: {sorted(listed - unused)}")
