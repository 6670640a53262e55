"""Checks on the package's own source."""

import ast
from pathlib import Path

import mzgle

SRC = Path(mzgle.__file__).parent


def test_every_private_helper_has_a_caller_in_the_package():
    # a _-prefixed function or method that no code in the package loads by
    # name serves only the tests: delete it or move it to them.  Names in
    # docstrings and comments do not count; dunder methods are called by
    # Python itself
    defined, loaded = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((node.name, f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert len(defined) > 20
    assert [f"{where} {name}" for name, where in defined if name not in loaded] == []


def test_package_imports_no_scipy():
    # numpy is the only runtime dependency: no import of scipy or of any
    # scipy submodule, at the top of a module or inside a function body
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []
