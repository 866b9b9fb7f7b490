"""The public names: everything ``__all__`` lists is defined.  The file
access: one reader and two writers touch the file system's contents."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import smallarea

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(smallarea.__path__))


def test_package_exports_resolve():
    missing = [name for name in smallarea.__all__ if not hasattr(smallarea, name)]
    assert missing == []
    assert len(set(smallarea.__all__)) == len(smallarea.__all__)


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_are_defined_there(module):
    mod = importlib.import_module(f"smallarea.{module}")
    names = getattr(mod, "__all__", ())
    assert [name for name in names if not hasattr(mod, name)] == []


# calls that read or write a file's contents: ``open(...)`` and the pathlib shortcuts
_FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def _file_access(source: str) -> list[str]:
    """Name of the function enclosing each file-content call in ``source``."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in _FILE_CALLS:
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_one_reader_and_two_writers_open_files():
    package = Path(smallarea.__file__).parent
    found = {
        (path.name, where)
        for path in sorted(package.glob("*.py"))
        for where in _file_access(path.read_text(encoding="utf-8"))
    }
    assert found == {
        ("exceptions.py", "_read_input"),
        ("datasets.py", "_write_table"),
        ("pipeline.py", "_write_json"),
    }


def _calls_named(source: str, name: str) -> list[str]:
    """Name of the function enclosing each call of a method ``name``."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == name:
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_one_function_makes_directories():
    # the one that turns a directory that cannot be made into a ValidationError
    package = Path(smallarea.__file__).parent
    found = [
        (path.name, where)
        for path in sorted(package.glob("*.py"))
        for where in _calls_named(path.read_text(encoding="utf-8"), "mkdir")
    ]
    assert found == [("pipeline.py", "_make_dir")]


def test_file_access_finds_every_form():
    source = "def f(p):\n    with open(p) as fh:\n        pass\n    return p.read_text()\nx = io.open('y')\n"
    assert _file_access(source) == ["f", "f", "<module>"]
