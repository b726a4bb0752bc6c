"""Modules on the census path stay integral, word invariants are read off
the word, and every construction checks the relations."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from gentlelam import (BandWord, band_module, components, enumerate_bands,
                       enumerate_strings, generic_point, rank_function_of,
                       string_module)
from gentlelam.exactlinalg import charpoly
from gentlelam.fileio import load_module
from gentlelam.strings import make_rep, random_glpoint, word_shape


def test_word_shape_matches_the_module(pants_algebra, torus_algebra):
    for A in (pants_algebra, torus_algebra):
        words = enumerate_strings(A, 8) + enumerate_bands(A, 8)
        assert any(isinstance(w, BandWord) for w in words)
        for w in words:
            if isinstance(w, BandWord):
                M = band_module(A, w, 2)
            else:
                M = string_module(A, w)
            assert word_shape(A, w) == (M.dims, rank_function_of(A, M)), w


def det(m):
    # charpoly lists x^n down to x^0; its constant term is (-1)^n det
    return (-1) ** len(m) * charpoly(m)[-1]


def test_random_glpoint_is_unimodular():
    rng = random.Random(6)
    seen = 0
    for _ in range(200):
        dims = [rng.randint(0, 5) for _ in range(4)]
        for d, g in zip(dims, random_glpoint(rng, dims, rng.randint(1, 5))):
            assert len(g) == d and all(len(row) == d for row in g)
            assert all(type(x) is int for row in g for x in row)
            if d:
                assert det(g) in (1, -1)
                seen += 1
    assert seen > 500


def test_generic_points_are_integral(pants_algebra):
    A = pants_algebra
    n = 0
    for d in itertools.product(range(3), repeat=6):
        for Z in components(A, d):
            M = generic_point(A, Z, seed=n % 7)
            assert all(type(x) is int
                       for m in M.mats.values() for row in m for x in row), \
                (d, Z.r)
            n += 1
    assert n == 1785


# a relation (a, b) through a middle vertex of dimension 3:
# 1 <-a- 2 <-b- 3 with a*b = 0
COLUMN = [[1], [1], [1]]
HOLDS = [
    [[1, -1, 0]],  # two partial products cancel, the third is zero
    [[2, -1, -1]],  # three partial products cancel
    [[Fraction(1, 2), Fraction(-1, 2), 0]],
]
BREAKS = [
    [[1, -1, 1]],  # two partial products cancel, the third does not
    [[1, 1, 0]],  # nothing cancels
    [[0, 0, Fraction(1, 3)]],
]


def module_dict(row):
    return {"dims": [1, 3, 1],
            "matrices": {"a": [[str(x) for x in row[0]]],
                         "b": [[str(x) for x in r] for r in COLUMN]}}


@pytest.mark.parametrize("row", HOLDS)
def test_relation_that_holds_is_accepted(a3_relation, row, tmp_path):
    M = make_rep(a3_relation, (1, 3, 1), {"a": row, "b": COLUMN})
    assert M.mats["a"] == tuple(map(tuple, row))
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module_dict(row)))
    assert load_module(a3_relation, str(path)) == M


@pytest.mark.parametrize("row", BREAKS)
def test_relation_that_breaks_is_rejected(a3_relation, row, tmp_path):
    with pytest.raises(ValueError, match="relation"):
        make_rep(a3_relation, (1, 3, 1), {"a": row, "b": COLUMN})
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module_dict(row)))
    with pytest.raises(ValueError, match="relation"):
        load_module(a3_relation, str(path))


def test_integral_entries_are_stored_as_int(a3_relation):
    M = make_rep(a3_relation, (1, 3, 1),
                 {"a": [[Fraction(4, 2), Fraction(-2), Fraction(0)]],
                  "b": [[1], [1], [Fraction(3, 1)]]})
    assert [type(x) for x in M.mats["a"][0]] == [int, int, int]
    assert type(M.mats["b"][2][0]) is int
