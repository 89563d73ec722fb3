import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import wavekg

from conftest import run_python_process

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


def test_no_module_reads_another_modules_private_names():
    # a module's _names are its own: none is imported from another wavekg
    # module or read as an attribute of one.  The private module _shares,
    # whose public names its importers call, is exempt; a dunder is public
    found = []
    for path in sorted(Path(wavekg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        own = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("wavekg"))]
        # the names `from . import m` binds to wavekg modules
        modules = {alias.asname or alias.name for node in own
                   if node.module in (None, "wavekg") for alias in node.names}
        reads = [(node.lineno, alias.name) for node in own for alias in node.names]
        reads += [(node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and getattr(node.value, "id", None) in modules]
        found += [f"{path.name}:{line} {name}" for line, name in reads
                  if name.startswith("_") and not name.startswith("__")
                  and name != "_shares"]
    assert found == []


def test_every_third_party_import_is_a_declared_dependency():
    # the runtime dependencies in pyproject.toml are exactly the third-party
    # packages the package imports; a test-only package is a test extra
    tomllib = pytest.importorskip("tomllib")
    package = Path(wavekg.__file__).parent
    pyproject = package.parents[1] / "pyproject.toml"
    assert pyproject.is_file()
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
                for req in tomllib.loads(pyproject.read_text())["project"]["dependencies"]}
    imported = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for top in {name.partition(".")[0] for name in names}:
                if top not in sys.stdlib_module_names and top != "wavekg":
                    imported.setdefault(top, f"{path.name}:{node.lineno}")
    assert {top: at for top, at in imported.items() if top not in declared} == {}
    assert declared == set(imported)


_FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x != 0


def test_passes():
    pass
"""


def test_a_failing_property_is_reported_under_the_repo_config(tmp_path):
    # hypothesis reports a failing @given test through libcst, whose
    # import warns of mypy_extensions.TypedDict; under pyproject.toml's
    # error::DeprecationWarning that once ended the session in an
    # INTERNALERROR, so no later test ran
    pyproject = Path(wavekg.__file__).parents[2] / "pyproject.toml"
    assert pyproject.is_file()
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    child = run_python_process(
        ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
         "--rootdir", str(tmp_path), str(tmp_path / "test_property.py")], threads=1)
    out = child.stdout + child.stderr
    assert child.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out, out


def test_every_module_parses_at_the_declared_python_floor():
    # requires-python's floor is the oldest grammar the package may use;
    # ast.parse with feature_version rejects syntax newer than it (a
    # match statement under 3.9, say, or except* under 3.10)
    tomllib = pytest.importorskip("tomllib")
    package = Path(wavekg.__file__).parent
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())
    floor = re.fullmatch(r">=\s*3\.(\d+)", pyproject["project"]["requires-python"])
    assert floor is not None
    version = (3, int(floor.group(1)))
    for path in sorted(package.glob("*.py")):
        ast.parse(path.read_text(), filename=path.name, feature_version=version)


def test_only_energies_places_hyperboloid_nodes():
    # the foliation and its word records are the only hyperboloid samples
    # the pipeline takes; both are built in energies.py
    found = []
    for path in sorted(Path(wavekg.__file__).parent.glob("*.py")):
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  == "hyperboloid_nodes"]
    assert found and {f.split(":")[0] for f in found} == {"energies.py"}


def _unread_parameters(source, filename):
    """Parameters of each function in source that its body never loads."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        loaded = {node.id for stmt in body for node in ast.walk(stmt)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        found += [f"{filename}:{fn.lineno} {name}({p.arg})" for p in params
                  if p.arg not in loaded]
    return found


def test_every_parameter_is_read():
    # a keyword nothing reads is a knob that does nothing
    found = []
    for path in sorted(Path(wavekg.__file__).parent.glob("*.py")):
        found += _unread_parameters(path.read_text(), path.name)
    assert found == []


def _loaded_names(path, constants_of=None):
    """Names loaded in a file, as a bare name or an attribute; with
    constants_of, also the strings in the assignment to that name."""
    loaded = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
        elif (isinstance(node, ast.Assign) and constants_of is not None
              and any(getattr(t, "id", None) == constants_of for t in node.targets)):
            loaded |= {c.value for c in ast.walk(node.value)
                       if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return loaded


def test_every_export_is_read_outside_the_tests():
    # public API is what the pipeline or the benchmark reads; a name that
    # only a test calls is code kept for its own test.  The package
    # __init__ re-exports without reading, and the benchmark's tracer
    # names its targets as strings in TARGETS
    package = Path(wavekg.__file__).parent
    perfbench = package.parents[1] / "perfbench"
    assert perfbench.is_dir()
    loaded = set()
    for path in sorted(package.glob("*.py")):
        if path.name != "__init__.py":
            loaded |= _loaded_names(path)
    for path in sorted(perfbench.glob("*.py")):
        if not path.name.startswith("test_"):
            loaded |= _loaded_names(path, constants_of="TARGETS")
    unread = [f"{name}.{export}" for name in MODULES
              for export in getattr(importlib.import_module(name), "__all__", [])
              if export not in loaded]
    assert unread == []


def _defaulted_parameters(tree):
    """(owner, parameter, position) of each defaulted parameter in tree.

    The owner is the function's name, or its class's for __init__; the
    position counts the positional parameters a call fills, without a
    method's self, and is None for a keyword-only parameter."""
    methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef)
               and "staticmethod" not in {getattr(d, "id", None)
                                          for d in fn.decorator_list}}
    owners = {id(fn): cls.name for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) for fn in cls.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        owner = owners.get(id(fn), fn.name)
        positional = (a.posonlyargs + a.args)[1 if id(fn) in methods else 0:]
        found += [(owner, p.arg, i)
                  for i, p in enumerate(positional)
                  if i >= len(positional) - len(a.defaults)]
        found += [(owner, p.arg, None)
                  for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return found


def test_every_default_is_passed_outside_the_tests():
    # a default that only a test overrides is a knob kept for its test,
    # and a test that needs another value sets the module constant behind
    # it instead.  A call with *args or **kwargs passes every
    # parameter of its callee, and a function handed to a call receives the
    # positional arguments after it, as in Round.op(name, fn, *args)
    package = Path(wavekg.__file__).parent
    perfbench = package.parents[1] / "perfbench"
    assert perfbench.is_dir()
    sources = sorted(package.glob("*.py")) + sorted(
        p for p in perfbench.glob("*.py") if not p.name.startswith("test_"))
    passed = {}
    for path in sources:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            seen = passed.setdefault(name, set())
            seen |= {kw.arg for kw in call.keywords}
            if any(isinstance(arg, ast.Starred) for arg in call.args):
                seen.add(None)
            seen |= set(range(len(call.args)))
            for i, arg in enumerate(call.args):
                handed = getattr(arg, "id", getattr(arg, "attr", None))
                if handed is not None:
                    passed.setdefault(handed, set()).update(
                        range(len(call.args) - i - 1))
    unpassed = [f"{owner}.{param}"
                for path in sorted(package.glob("*.py"))
                for owner, param, position in _defaulted_parameters(
                    ast.parse(path.read_text()))
                if not passed.get(owner, set()) & {param, position, None}]
    assert unpassed == []


def test_every_public_name_has_a_caller_outside_the_tests():
    # each public function, class and method under src/wavekg is read by
    # the package outside its own body, or by the benchmark (its tracer
    # names its targets as strings in TARGETS); one that only a test reads
    # is public API nothing calls
    package = Path(wavekg.__file__).parent
    perfbench = package.parents[1] / "perfbench"
    assert perfbench.is_dir()
    read = set()
    for path in sorted(perfbench.glob("*.py")):
        if not path.name.startswith("test_"):
            read |= _loaded_names(path, constants_of="TARGETS")
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    loads = [(name, node.lineno, getattr(node, "id", getattr(node, "attr", None)))
             for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))
             and isinstance(node.ctx, ast.Load)]
    uncalled = [f"{name}:{fn.lineno} {fn.name}"
                for name, tree in trees.items() for fn in ast.walk(tree)
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not fn.name.startswith("_") and fn.name not in read
                and not any(loaded == fn.name and not (
                    at == name and fn.lineno <= line <= fn.end_lineno)
                    for at, line, loaded in loads)]
    assert uncalled == []
