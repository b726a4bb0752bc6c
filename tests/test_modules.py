"""The library's modules: each imports on its own, and none relies on
`assert`, which `python -O` strips."""

import ast
import os
import pkgutil
import subprocess
import sys

import pytest

import gentlelam

PACKAGE = os.path.dirname(gentlelam.__file__)
MODULES = sorted(m.name for m in pkgutil.iter_modules([PACKAGE]))

# import one module first, without the package's __init__ (which
# imports every module in dependency order), so a cycle would fail
FIRST_IMPORT = """
import importlib, sys, types
pkg = types.ModuleType("gentlelam")
pkg.__path__ = [sys.argv[1]]
sys.modules["gentlelam"] = pkg
importlib.import_module("gentlelam." + sys.argv[2])
"""


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(name):
    res = subprocess.run([sys.executable, "-c", FIRST_IMPORT, PACKAGE, name],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr


def test_library_holds_no_assert_statement():
    for name in MODULES + ["__init__"]:
        path = os.path.join(PACKAGE, name + ".py")
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not lines, f"{name}.py: assert at lines {lines}"
