"""A band is a string read around its cycle, and a loop is an open curve
whose ends are glued, so each rule is written once for both kinds.  One
generator (`homological._factors`) yields the factors of strings and
bands, and `standard_homs` reads both of its sides through it; the
retired pair `_string_splits` / `_band_occurrences` is defined nowhere.
One walk (`surface._assign_transitions`, with no nested `propagate`)
finds the transition triangles of both kinds, and `validate_curve`
reaches it, and the backtrack cancellation, once for both."""

import ast

from test_one_cocycle_kernel import functions, parsed
from test_one_eliminator import MODULES

RETIRED = {"_string_splits", "_band_occurrences", "propagate"}


def called(fn):
    """Names of the plain calls `f(...)` in the body of fn."""
    return [node.func.id for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]


def named(tree, name):
    (fn,) = [fn for fn in functions(tree) if fn.name == name]
    return fn


def test_no_retired_factor_generator_or_nested_walk():
    found = [(f, fn.name) for f in MODULES for fn in functions(parsed(f))
             if fn.name in RETIRED]
    assert "homological.py" in MODULES and not found, found


def test_standard_homs_reads_both_sides_through_one_generator():
    tree = parsed("homological.py")
    generators = {fn.name for fn in functions(tree)
                  if any(isinstance(node, (ast.Yield, ast.YieldFrom))
                         for node in ast.walk(fn))}
    fn = named(tree, "standard_homs")
    calls = called(fn)
    assert sorted(generators.intersection(calls)) == ["_factors"]
    kinds = sorted(node.args[2].value for node in ast.walk(fn)
                   if isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "_factors")
    assert kinds == ["quot", "sub"]


def test_one_transition_walk_and_one_validation_path():
    tree = parsed("surface.py")
    walk = named(tree, "_assign_transitions")
    assert [fn.name for fn in functions(walk)] == ["_assign_transitions"]
    calls = called(named(tree, "validate_curve"))
    assert calls.count("_assign_transitions") == 1
    assert calls.count("_cancel_backtrack") == 1
    assert calls.count("CurveSeq") == 2  # an arc, and any other curve
