"""The word dictionary against references that walk every letter pair.

`enumerate_bands` searches only the closed walks that start with the
least letter of the word and of its inverse, and `enumerate_strings`
keeps each walk only in its canonical orientation.  The references here
walk the whole letter table and canonicalize by the definitions: a band
as the least rotation of B and B^-, a string as min(C, C^-), both as
letter tuples, without calling the library's canonical forms, which
are checked against them too."""

import random

import pytest

from conftest import CASES, case_algebra
from gentlelam import (BandWord, StringWord, canonical_band, canonical_string,
                       enumerate_bands, enumerate_strings)
from gentlelam.strings import _letter_table, word_shape

MAX_LEN = 8
SEED = 1729


def walks(A, max_len):
    """Every walk of the letter table of length 1..max_len."""
    tab = _letter_table(A)
    stack = [(c,) for c in tab.letters]
    while stack:
        w = stack.pop()
        yield w
        if len(w) < max_len:
            stack += [w + (c,) for c in tab.after[w[-1]]]


def inverse(w):
    return tuple((a, not inv) for a, inv in reversed(w))


def brute_force_bands(A, max_len):
    """The least rotation of B and B^- of every closed walk of length
    <= max_len that is no proper power."""
    pairs = _letter_table(A).pairs
    found = set()
    for w in walks(A, max_len):
        m = len(w)
        if m < 2 or (w[-1], w[0]) not in pairs:
            continue
        rotations = [w[k:] + w[:k] for k in range(m)]
        if w in rotations[1:]:
            continue  # a proper power
        inv = inverse(w)
        found.add(min(rotations + [inv[k:] + inv[:k] for k in range(m)]))
    return [BandWord(w) for w in sorted(found, key=lambda w: (len(w), w))]


def brute_force_strings(A, max_len):
    """The trivial strings and min(C, C^-) of every walk of length
    <= max_len."""
    found = {min(w, inverse(w)) for w in walks(A, max_len)} \
        if max_len >= 1 else set()
    return [StringWord((), v) for v in range(1, A.n + 1)] + \
        [StringWord(w) for w in sorted(found, key=lambda w: (len(w), w))]


def fits(A, w, dims):
    return all(x <= y for x, y in zip(word_shape(A, w)[0], dims))


def sampled_dims(A, rng, words):
    samples = [tuple(rng.randint(0, 3) for _ in range(A.n))
               for _ in range(3)]
    # dimension vectors of some words, where the cap binds
    samples += [word_shape(A, w)[0]
                for w in rng.sample(words, min(3, len(words)))]
    return samples


@pytest.mark.parametrize("name", CASES)
def test_band_search_matches_every_closed_walk(name):
    A = case_algebra(name)
    rng = random.Random(SEED)
    for max_len in range(MAX_LEN + 1):
        reference = brute_force_bands(A, max_len)
        assert enumerate_bands(A, max_len) == reference, (name, max_len)
        for B in reference:
            for w in (B.letters, inverse(B.letters)):
                for k in range(len(w)):
                    assert canonical_band(A, w[k:] + w[:k]) == B
        words = reference + enumerate_strings(A, max_len)
        for dims in sampled_dims(A, rng, words):
            assert enumerate_bands(A, max_len, dims) == \
                [B for B in reference if fits(A, B, dims)], (name, dims)


@pytest.mark.parametrize("name", CASES)
def test_string_search_matches_every_walk(name):
    A = case_algebra(name)
    rng = random.Random(SEED)
    full = brute_force_strings(A, MAX_LEN)
    for C in full[A.n:]:
        assert canonical_string(A, C.letters) == C
        assert canonical_string(A, inverse(C.letters)) == C
    for max_len in range(MAX_LEN + 1):
        reference = [C for C in full if len(C) <= max_len]
        assert enumerate_strings(A, max_len) == reference, (name, max_len)
        for dims in sampled_dims(A, rng, reference):
            assert enumerate_strings(A, max_len, dims) == \
                [C for C in reference if fits(A, C, dims)], (name, dims)
