"""Checks on the package's own source."""

import ast
from pathlib import Path

import mzgle

SRC = Path(mzgle.__file__).parent


def definitions_and_loads(picks):
    """(name, "file:line") of every function, method or class in the
    package that picks(node) selects, and every name its code loads, bare
    or as an attribute.  Names in docstrings, comments, imports and
    __all__ are not loads."""
    defined, loaded = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if picks(node):
                    defined.append((node.name, f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return defined, loaded


def test_every_private_helper_has_a_caller_in_the_package():
    # a _-prefixed function or method that no code in the package loads by
    # name serves only the tests: delete it or move it to them.  Dunder
    # methods are called by Python itself
    defined, loaded = definitions_and_loads(
        lambda node: not isinstance(node, ast.ClassDef)
        and node.name.startswith("_") and not node.name.endswith("__"))
    assert len(defined) > 20
    assert [f"{where} {name}" for name, where in defined if name not in loaded] == []


def test_every_public_function_has_a_caller_in_the_package():
    # the package is the pipeline: a public function, method or class that
    # no code in the package loads by name serves only the tests, so it
    # moves to them (as tests/series_forms.py and tests/apriori_bound.py
    # did) or goes.  Re-exporting it from mzgle is no caller, and no name
    # is exempt
    defined, loaded = definitions_and_loads(lambda node: not node.name.startswith("_"))
    assert len(defined) > 80
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


def test_no_module_imports_a_private_name_of_another():
    # a _-prefixed name is its module's own: a check another module needs
    # is a public function or an invariant of a type it already takes
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []
