import importlib
import pkgutil

import pytest

import wavekg

MODULES = ["wavekg"] + [f"wavekg.{m.name}" for m in pkgutil.iter_modules(wavekg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a pruned definition must not leave its name behind in __all__
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert [e for e in exports if not hasattr(module, e)] == []
