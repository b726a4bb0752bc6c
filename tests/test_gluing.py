"""The generic words of a component, read off (d, r) by gluing positions
at each vertex (`schemes.glued_words`), against the depth-first search
over every word that fits d (`schemes._search_multiset`), its oracle.

`generic_multiset` sorts the glued words and certifies them by the
dimension count; it never searches, enumerates words or builds a word
table, and neither do `ceh_by_words` or `canonical_decomposition`
(`decompose` tries the certified words first on every piece).  About
nine seconds in all."""

import ast
import inspect
import itertools
import random
import time

import pytest

from conftest import GOLDEN_ALGEBRAS, case_algebra, golden
from fuzz import random_gentle
from gentlelam import (components, eta, is_jacobian, lamination_words,
                       schemes, strings)
from gentlelam.fileio import triangulation_from_dict
from gentlelam.schemes import (ConsistencyFailure, _search_multiset,
                               canonical_decomposition, ceh_by_words,
                               generic_multiset, glued_words)
from gentlelam.strings import word_shape
from lamgen import random_laminations


def box(A, top):
    return [Z for d in itertools.product(range(top + 1), repeat=A.n)
            for Z in components(A, d)]


def mismatches(A, comps):
    return [Z for Z in comps
            if generic_multiset(A, Z) != _search_multiset(A, Z)]


def test_gluing_is_the_search_on_the_pants_box():
    A = case_algebra("pants")
    comps = box(A, 2)
    assert len(comps) == 1785
    assert mismatches(A, comps) == []


def test_gluing_is_the_search_on_the_torus_fixture_box(torus_algebra):
    # a fresh copy, so no memo of another test answers for it
    A = case_algebra("torus_quiver")
    assert A == torus_algebra
    comps = box(A, 3)
    assert len(comps) == 1014
    assert mismatches(A, comps) == []


@pytest.mark.parametrize("name", GOLDEN_ALGEBRAS + ("hexagon", "annulus"))
def test_gluing_is_the_search_on_the_golden_boxes(name):
    A = case_algebra(name)
    assert mismatches(A, box(A, 2)) == []


def test_gluing_is_the_search_on_random_gentle_algebras():
    seen = non_jacobian = 0
    for seed in range(150):
        A = random_gentle(random.Random(seed))
        comps = box(A, 2)
        assert mismatches(A, comps) == [], seed
        seen += len(comps)
        non_jacobian += not is_jacobian(A)
    assert seen == 19_020 and non_jacobian > 100


def test_gluing_gives_the_words_of_the_pinned_laminations():
    T = triangulation_from_dict(golden("pants.json"))
    A = case_algebra("pants")
    laminations = random_laminations(T, A, 50, seed=123)
    assert len(laminations) == 50
    for L in laminations:
        Z = eta(T, L).component
        words = generic_multiset(A, Z)
        assert sorted(map(str, words)) == \
            sorted(map(str, lamination_words(T, L)))
        assert words == _search_multiset(A, Z)


def test_gluing_answers_the_torus_at_6_6_8_6_without_a_search(monkeypatch):
    """The search took 1,035 s for the first 46 of these components."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(schemes, "_search_multiset", forbidden)
    monkeypatch.setattr(schemes, "_candidates", forbidden)
    A = case_algebra("torus_quiver")
    d = (6, 6, 8, 6)
    comps = components(A, d)
    assert len(comps) == 90
    start = time.perf_counter()
    glued = [glued_words(A, Z) for Z in comps]
    assert time.perf_counter() - start <= 0.1
    for Z, words in zip(comps, glued):
        dims, ranks = [0] * A.n, dict.fromkeys(A.arrow_ids, 0)
        for w in words:
            wd, wr = word_shape(A, w)
            dims = [x + y for x, y in zip(dims, wd)]
            ranks = {a: ranks[a] + wr[a] for a in ranks}
        assert (tuple(dims), ranks) == (d, Z.rank())
        assert sorted(generic_multiset(A, Z), key=str) == \
            sorted(words, key=str)


def test_a_failed_certificate_raises_and_never_falls_back(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(schemes, "_search_multiset", forbidden)
    monkeypatch.setattr(schemes, "_candidates", forbidden)
    monkeypatch.setattr(schemes, "_certified", lambda A, Z, words: False)
    A = case_algebra("torus_quiver")
    Z = components(A, (1, 1, 1, 0))[0]
    with pytest.raises(ConsistencyFailure, match="dimension count"):
        generic_multiset(A, Z)
    assert not A.__dict__.get("_multisets")


def _called(fn):
    tree = ast.parse(inspect.getsource(fn).lstrip())
    return {node.func.id if isinstance(node.func, ast.Name)
            else node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call)}


SEARCH = {"_search_multiset", "_candidates", "_word_table",
          "enumerate_strings", "enumerate_bands"}


def test_the_request_path_calls_no_search():
    for fn in (generic_multiset, glued_words, ceh_by_words,
               canonical_decomposition):
        assert not _called(fn) & SEARCH, fn.__name__
    # the search is an oracle: no library function calls it
    library = [(name, f) for mod in (schemes, strings)
               for name, f in vars(mod).items()
               if inspect.isfunction(f) and f.__module__ == mod.__name__]
    assert [name for name, f in library
            if "_search_multiset" in _called(f)] == []


def test_requests_enumerate_no_words_and_build_no_table(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a word table or enumeration in a request")

    for name in ("_word_table", "enumerate_strings", "enumerate_bands"):
        monkeypatch.setattr(strings, name, forbidden)
    monkeypatch.setattr(schemes, "_word_table", forbidden)
    monkeypatch.setattr(schemes, "_search_multiset", forbidden)
    seen = 0
    for A in [case_algebra("torus_quiver")] + [
            random_gentle(random.Random(seed)) for seed in range(10)]:
        for Z in box(A, 2):
            ceh_by_words(A, Z)
            canonical_decomposition(A, Z)
            seen += 1
    assert seen > 500
