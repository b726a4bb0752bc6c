"""One Z^1 kernel: the relation differential (`homological._relation_rows`)
is read by `homological._cocycle_dim` alone, which the tangent space, the
complex Ext^1, the g-vectors and the pair tables of c, e and h share; no
function of `src/gentlelam/` takes a precomputed Hom (`hom_mn`) or a
column switch (`full`), and `schemes` reaches ranks and Ext^1 through
that kernel only, importing neither `sparse_rank` nor `ext1_complex_dim`.

One standard complex: one function (`strings._complex_rows`) writes the
rows of both differentials, d^0 (`strings._intertwiner_rows`) and d^1
(`homological._relation_rows`), which only lay out its blocks and terms;
the Tor-rank complex of the g-vectors (`_tor_ranks`,
`_rank_side_by_side`) and the per-position band parameters of the pair
tables (`_summands`) are gone."""

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


def loop_depth(node):
    """The deepest nesting of loops inside node, each `for` clause of a
    comprehension counted as one loop."""
    inner = max(map(loop_depth, ast.iter_child_nodes(node)), default=0)
    if isinstance(node, (ast.For, ast.While)):
        return 1 + inner
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp)):
        return len(node.generators) + inner
    return inner


def test_one_function_writes_the_rows_of_both_differentials():
    defs = {fn.name: (f, fn) for f in MODULES for fn in functions(parsed(f))}
    callers = sorted((f, fn.name) for f in MODULES
                     for fn in functions(parsed(f))
                     if "_complex_rows" in names_called(fn))
    assert defs["_complex_rows"][0] == "strings.py"
    assert callers == [("homological.py", "_relation_rows"),
                       ("strings.py", "_intertwiner_rows")]
    # a row is written in loops over the rows and columns of a block and
    # the entries of a matrix, under the loop over the terms: the layouts
    # loop over arrows or relations (and one arrow's basis) only
    assert loop_depth(defs["_complex_rows"][1]) == 4
    assert [loop_depth(defs[name][1])
            for name in ("_intertwiner_rows", "_relation_rows")] == [2, 1]


def test_the_tor_complex_and_the_summand_parameters_are_gone():
    gone = {"_tor_ranks", "_rank_side_by_side", "_summands"}
    found = [(f, fn.name) for f in MODULES for fn in functions(parsed(f))
             if fn.name in gone]
    assert "homological.py" in MODULES and not found, found
