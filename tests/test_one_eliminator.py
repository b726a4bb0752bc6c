"""Exact elimination lives in `exactlinalg` alone: it is the only module
of `src/gentlelam/` that imports `math` (gcd and isqrt are the kernel's
primitives), and no other module defines a polynomial helper (`_poly*`)
or a pivoting routine of its own (a function named with `pivot`)."""

import ast
import os

from test_stdlib_only import PACKAGE, absolute_imports

MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def test_only_the_kernel_imports_math():
    users = [f for f in MODULES
             if "math" in absolute_imports(os.path.join(PACKAGE, f))]
    assert users == ["exactlinalg.py"]


def test_no_eliminator_outside_the_kernel():
    found = []
    for f in MODULES:
        if f == "exactlinalg.py":
            continue
        with open(os.path.join(PACKAGE, f)) as fh:
            tree = ast.parse(fh.read(), f)
        found += [(f, node.name) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and (node.name.startswith("_poly") or "pivot" in node.name)]
    assert "strings.py" in MODULES and not found, found
