"""The package stays stdlib-only: every import in src/gmemsim is relative or
names a module of the standard library."""

import ast
import os
import sys

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "gmemsim")


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
