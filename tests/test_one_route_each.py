"""One way to do each thing after the gluing.  The multiset search of the
tests (`schemes._search_multiset`) keeps its states as plain tuples, so
no packing helper (`_pack`) is defined; `generic_point` draws through
`random_glpoint` itself, so no private replay of its stream (`_glpoint`)
is defined; the decorated g-vector has one route, off the component's
(d, r), so `decorated_g_vector` takes exactly (A, DZ) and the CLI never
asks for a lamination's words (`lamination_words`)."""

import ast

from test_one_cocycle_kernel import functions, names_called, parsed
from test_one_eliminator import MODULES

RETIRED = {"_pack", "_glpoint"}


def test_no_packing_helper_or_private_draw():
    found = [(f, fn.name) for f in MODULES for fn in functions(parsed(f))
             if fn.name in RETIRED]
    assert "schemes.py" in MODULES and not found, found


def test_decorated_g_vector_takes_the_algebra_and_the_component():
    (fn,) = [fn for fn in functions(parsed("schemes.py"))
             if fn.name == "decorated_g_vector"]
    args = fn.args
    assert [a.arg for a in args.posonlyargs + args.args] == ["A", "DZ"]
    assert not (args.kwonlyargs or args.vararg or args.kwarg or
                args.defaults)


def test_the_cli_never_asks_for_lamination_words():
    tree = parsed("cli.py")
    assert "cmd_eta" in {fn.name for fn in functions(tree)}
    assert "lamination_words" not in set(names_called(tree))
    assert "lamination_words" not in {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names}
