"""`enumerate_bands` searches only the closed walks that start with the
least letter of the word and of its inverse; the list must equal the
canonical bands of every closed walk, found here without that cut."""

import random

import pytest

from conftest import golden
from gentlelam import (band_word, build_QT, canonical_band, enumerate_bands,
                       enumerate_strings)
from gentlelam.fileio import algebra_from_dict, triangulation_from_dict
from gentlelam.strings import InvalidBand, _letter_table, word_shape

ALGEBRAS = ("a3_relation", "double_loop", "loop_algebra", "torus_quiver",
            "two_cycle")
SURFACES = ("annulus", "hexagon", "pants")
MAX_LEN = 8
SEED = 1729


def golden_algebra(name):
    if name in SURFACES:
        return build_QT(triangulation_from_dict(golden(f"{name}.json")))
    return algebra_from_dict(golden(f"{name}.json"))


def brute_force_bands(A, max_len):
    """canonical_band of every closed walk of length <= max_len."""
    tab = _letter_table(A)
    found = set()
    walks = [(c,) for c in tab.letters]
    while walks:
        w = walks.pop()
        if len(w) >= 2 and (w[-1], w[0]) in tab.pairs:
            try:
                found.add(canonical_band(A, band_word(A, w)))
            except InvalidBand:
                pass
        if len(w) < max_len:
            walks += [w + (c,) for c in tab.after[w[-1]]]
    return sorted(found, key=lambda w: (len(w), w.letters))


def fits(A, B, dims):
    return all(x <= y for x, y in zip(word_shape(A, B)[0], dims))


@pytest.mark.parametrize("name", ALGEBRAS + SURFACES)
def test_band_search_matches_every_closed_walk(name):
    A = golden_algebra(name)
    rng = random.Random(SEED)
    for max_len in range(MAX_LEN + 1):
        reference = brute_force_bands(A, max_len)
        assert enumerate_bands(A, max_len) == reference, (name, max_len)
        samples = [tuple(rng.randint(0, 3) for _ in range(A.n))
                   for _ in range(3)]
        # dimension vectors of some words, where the cap binds
        words = reference + enumerate_strings(A, max_len)
        samples += [word_shape(A, w)[0]
                    for w in rng.sample(words, min(3, len(words)))]
        for dims in samples:
            assert enumerate_bands(A, max_len, dims) == \
                [B for B in reference if fits(A, B, dims)], (name, dims)
