"""The arrows of Q_T are triangle corners, held in one table: exactly one
f-string in `src/gentlelam/` builds an arrow id `t<triangle>:<source>>
<target>`, in `surface._corner_arrows`.  No function parses an id back
(`arrow_triangle`), scans a triangle for an arrow (`arrow_between`) or
chains fans over edge ends (`_end_class`), and `surface` tells whether
two curves meet from their words, importing nothing from `homological`."""

import ast
import os

from test_stdlib_only import PACKAGE

MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
RETIRED = {"arrow_triangle", "arrow_between", "_end_class"}


def _tree(f):
    with open(os.path.join(PACKAGE, f)) as fh:
        return ast.parse(fh.read(), f)


def _top_level_functions(tree):
    """(name, node) of each function defined at module level or in a
    class body; nested functions belong to their outermost function."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in body:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield fn.name, fn


def _template(node):
    """The text of an f-string with `{}` for each field."""
    return "".join(v.value if isinstance(v, ast.Constant) else "{}"
                   for v in node.values)


def test_one_f_string_builds_an_arrow_id():
    found = []
    for f in MODULES:
        tree = _tree(f)
        owner = {id(node): name for name, fn in _top_level_functions(tree)
                 for node in ast.walk(fn)}
        found += [(f, owner.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.JoinedStr)
                  and _template(node) == "t{}:{}>{}"]
    assert found == [("surface.py", "_corner_arrows")], found


def test_no_retired_arrow_or_fan_helper():
    found = [(f, node.name) for f in MODULES for node in ast.walk(_tree(f))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name in RETIRED]
    assert "surface.py" in MODULES and not found, found


def test_surface_imports_nothing_from_homological():
    names = []
    for node in ast.walk(_tree("surface.py")):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.name for alias in node.names]
    assert "strings" in names
    assert not [n for n in names if n.split(".")[-1] == "homological"], names
