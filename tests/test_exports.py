import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import wavekg

MODULES = ["wavekg"] + [f"wavekg.{m.name}" for m in pkgutil.iter_modules(wavekg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a pruned definition must not leave its name behind in __all__
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert [e for e in exports if not hasattr(module, e)] == []


def test_no_module_imports_inside_a_function():
    # modules import each other at the top, so the layering is explicit
    found = []
    for path in sorted(Path(wavekg.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []
