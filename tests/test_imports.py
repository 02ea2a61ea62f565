"""The package stays stdlib-only: every import in src/gmemsim is relative or
names a module of the standard library.  It also stays within the grammar of
the oldest Python that pyproject.toml's `requires-python` admits."""

import ast
import os
import re
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "gmemsim")


def absolute_imports(path: str):
    """The top-level module named by each absolute import in one file."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_the_package_imports_only_the_standard_library():
    sources = sorted(name for name in os.listdir(PACKAGE)
                     if name.endswith(".py"))
    assert "engine.py" in sources
    foreign = [f"{name}: {module}" for name in sources
               for module in absolute_imports(os.path.join(PACKAGE, name))
               if module not in sys.stdlib_module_names]
    assert not foreign


def minimum_python() -> tuple[int, int]:
    """The (major, minor) of pyproject.toml's `requires-python = ">=X.Y"`."""
    with open(os.path.join(ROOT, "pyproject.toml")) as f:
        found = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"',
                          f.read(), re.MULTILINE)
    assert found, "pyproject.toml declares no requires-python >= X.Y"
    return int(found[1]), int(found[2])


def test_the_package_parses_as_the_declared_minimum_python():
    version = minimum_python()
    sources = sorted(name for name in os.listdir(PACKAGE)
                     if name.endswith(".py"))
    for name in sources:
        with open(os.path.join(PACKAGE, name)) as f:
            ast.parse(f.read(), name, feature_version=version)
    # the guard catches syntax newer than the declared minimum
    if version < (3, 11):
        with pytest.raises(SyntaxError):
            ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                      feature_version=version)
