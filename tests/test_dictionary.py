"""The word dictionary restricted by a dimension vector, and the letter
table behind it, on every golden algebra."""

import random

import pytest

from conftest import golden
from gentlelam import (DictionaryExhausted, StringWord, band_module,
                       build_QT, canonical_band, canonical_string,
                       decompose, enumerate_bands, enumerate_strings,
                       string_module)
from gentlelam.fileio import algebra_from_dict, triangulation_from_dict
from gentlelam.strings import _letter_table, _pair_rule, letter, parse_word

ALGEBRAS = ("a3_relation", "double_loop", "loop_algebra", "torus_quiver",
            "two_cycle")
SURFACES = ("annulus", "hexagon", "pants")
SEED = 20260
MAX_LEN = 8
SAMPLES = 8


def golden_algebra(name):
    if name in SURFACES:
        return build_QT(triangulation_from_dict(golden(f"{name}.json")))
    return algebra_from_dict(golden(f"{name}.json"))


def fits(M, dims):
    return all(x <= y for x, y in zip(M.dims, dims))


@pytest.mark.parametrize("name", ALGEBRAS + SURFACES)
def test_pruned_dictionary_is_filtered_dictionary(name):
    A = golden_algebra(name)
    strings = [(C, string_module(A, C))
               for C in enumerate_strings(A, MAX_LEN)]
    bands = [(B, band_module(A, B, 1)) for B in enumerate_bands(A, MAX_LEN)]
    rng = random.Random(SEED)
    samples = [tuple(rng.randint(0, 3) for _ in range(A.n))
               for _ in range(SAMPLES)]
    # the dimension vectors of a few dictionary words, where the cap binds
    words = strings + bands
    samples += [M.dims for _, M in rng.sample(words, min(3, len(words)))]
    for dims in samples:
        why = f"{name}, dims {dims}, seed {SEED}"
        assert enumerate_strings(A, MAX_LEN, dims) == \
            [C for C, M in strings if fits(M, dims)], why
        assert enumerate_bands(A, MAX_LEN, dims) == \
            [B for B, M in bands if fits(M, dims)], why


@pytest.mark.parametrize("name", ALGEBRAS + SURFACES)
def test_letter_table_matches_rule(name):
    A = golden_algebra(name)
    tab = _letter_table(A)
    letters = [letter(a, inv) for a in A.arrow_ids for inv in (False, True)]
    assert list(tab.letters) == letters
    for x in letters:
        for y in letters:
            assert ((x, y) in tab.pairs) == _pair_rule(A, x, y), (x, y)
        assert tab.after[x] == tuple(y for y in letters
                                     if _pair_rule(A, x, y))
    assert _letter_table(A) is tab  # kept on the algebra


def test_unrestricted_dictionary_unchanged_by_dims_none():
    A = golden_algebra("torus_quiver")
    assert enumerate_strings(A, 5, None) == enumerate_strings(A, 5)
    assert enumerate_bands(A, 6, None) == enumerate_bands(A, 6)
    with pytest.raises(ValueError):
        enumerate_strings(A, 5, (1, 1))


def test_decompose_exhausts_at_the_bound():
    A = golden_algebra("torus_quiver")
    C = canonical_string(A, StringWord(parse_word("a1-,b1,a3,c-,b2,a1,b1-")))
    M = string_module(A, C)
    assert decompose(A, M, len(C)) == [C]
    with pytest.raises(DictionaryExhausted):
        decompose(A, M, len(C) - 1)
    B = canonical_band(A, parse_word("c-,b3-,a1-,b1,a1-,b1,a3"))
    M = band_module(A, B, 3)
    assert decompose(A, M, len(B)) == [(B, 3)]
    with pytest.raises(DictionaryExhausted):
        decompose(A, M, len(B) - 1)
