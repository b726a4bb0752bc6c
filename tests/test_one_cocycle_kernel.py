"""One Z^1 kernel: the relation differential (`homological._relation_rows`)
is read by `homological._cocycle_dim` alone, which the tangent space, the
complex Ext^1 and the pair tables of c, e and h share; no function of
`src/gentlelam/` takes a precomputed Hom (`hom_mn`) or a column switch
(`full`), and `schemes` reaches ranks and Ext^1 through that kernel only,
importing neither `sparse_rank` nor `ext1_complex_dim`."""

import ast
import os

from test_one_eliminator import MODULES
from test_stdlib_only import PACKAGE


def parsed(f):
    with open(os.path.join(PACKAGE, f)) as fh:
        return ast.parse(fh.read(), f)


def functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def names_called(node):
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            fn = call.func
            if isinstance(fn, ast.Name):
                yield fn.id
            elif isinstance(fn, ast.Attribute):
                yield fn.attr


def test_relation_rows_are_read_by_the_cocycle_kernel_alone():
    callers = [(f, fn.name) for f in MODULES for fn in functions(parsed(f))
               if "_relation_rows" in names_called(fn)]
    assert callers == [("homological.py", "_cocycle_dim")]


def test_no_function_takes_full_or_hom_mn():
    found = []
    for f in MODULES:
        for fn in functions(parsed(f)):
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a]
            found += [(f, fn.name, a.arg) for a in params
                      if a.arg in ("full", "hom_mn")]
    assert "schemes.py" in MODULES and not found, found


def test_schemes_imports_neither_rank_nor_ext1_complex():
    imported = {alias.name for node in ast.walk(parsed("schemes.py"))
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "_cocycle_dim" in imported
    assert not imported & {"sparse_rank", "ext1_complex_dim"}
