"""The runtime stays stdlib-only: every absolute import in the modules of
`src/gentlelam/` names a standard-library module (relative imports stay
inside the package)."""

import ast
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "gentlelam")


def absolute_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_module_imports_the_standard_library_only():
    files = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "schemes.py" in files
    outside = [(f, name) for f in files
               for name in absolute_imports(os.path.join(PACKAGE, f))
               if name.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside, outside
