"""One way to do each thing after the gluing.  The multiset search of the
tests (`schemes._search_multiset`) keeps its states as plain tuples, so
no packing helper (`_pack`) is defined; `generic_point` draws through
`random_glpoint` itself, so no private replay of its stream (`_glpoint`)
is defined; the decorated g-vector has one route, off the component's
(d, r), so `decorated_g_vector` takes exactly (A, DZ) and the CLI never
asks for a lamination's words (`lamination_words`).  `decompose` names
the word summands of a piece one way, by the multiplicity of each word
read off one trace pairing (`_multiplicity`): no peel along drawn maps
(`_peel`), random-endomorphism split (`_split_once`), eigenspace split
(`_try_split`, `_shifted_power`) or endomorphism through a word
(`_through_words`) is defined, and `strings` imports neither `rref` nor
`Counter`, which only the eigenspace split read.  No separate matcher
(`_identify`) is defined either, and `decompose` calls no helper of its
own but the walk (`_monomial_labels`), the support split
(`_support_split`) and the pairing (`_multiplicity`), with the tables of
words it pairs (`_shape_table`, `_word_table`, `_word_rep`); neither it
nor the pairing takes a seed or draws.  One walk
(`strings._walks`) turns a coefficient quiver into words, for the glued
positions of a component (`glued_words`) and for a module in a monomial
basis (`_monomial_labels`): no matcher of basis vectors
(`_basis_matching`, `_arrow_edges`) is defined."""

import ast

from test_one_cocycle_kernel import functions, names_called, parsed
from test_one_eliminator import MODULES

RETIRED = {"_pack", "_glpoint"}
SPLITS = {"_peel", "_split_once", "_try_split", "_shifted_power",
          "_through_words"}


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


def test_decompose_pairs_and_splits_no_other_way():
    defined = [(f, fn.name) for f in MODULES for fn in functions(parsed(f))]
    found = [x for x in defined if x[1] in SPLITS]
    assert not found, found
    assert ("strings.py", "_multiplicity") in defined


def test_strings_imports_neither_rref_nor_counter():
    imported = {alias.asname or alias.name
                for node in ast.walk(parsed("strings.py"))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert "nullspace" in imported
    assert not imported & {"rref", "Counter"}, imported


def test_decompose_names_words_only_by_pairing():
    defined = [(f, fn.name) for f in MODULES for fn in functions(parsed(f))]
    assert not [x for x in defined if x[1] == "_identify"]
    (fn,) = [fn for fn in functions(parsed("strings.py"))
             if fn.name == "decompose"]
    private = {name for name in names_called(fn) if name.startswith("_")}
    assert private == {"_monomial_labels", "_support_split",
                       "_multiplicity", "_shape_table", "_word_table",
                       "_word_rep"}, private


def test_one_walk_reads_every_coefficient_quiver():
    defined = {fn.name: fn for f in MODULES for fn in functions(parsed(f))}
    assert not {"_basis_matching", "_arrow_edges"} & set(defined)
    for name in ("glued_words", "_monomial_labels"):
        assert "_walks" in set(names_called(defined[name])), name


def test_decompose_takes_no_seed_and_draws_nothing():
    # the multiplicities are exact ranks, so neither `decompose` nor its
    # pairing takes a seed or draws a map
    fns = {fn.name: fn for fn in functions(parsed("strings.py"))}
    args = fns["decompose"].args
    assert [a.arg for a in args.args] == ["A", "rep", "words"]
    for name in ("decompose", "_multiplicity"):
        called = set(names_called(fns[name]))
        assert not called & {"Random", "randint", "random"}, name
