"""`decompose` returns its labels sorted by kind (strings first), word
text and band parameter, so their order does not depend on which piece
was split off first.  On all 1,785 components of {0,1,2}^6 on the pants
(generic point of seed 0, certified words), the labels with their
parameters are pinned as multisets by the digest of the route that split
along random endomorphisms (commit 97148ad), and in order by that of the
peel.  About 2.5 s."""

import hashlib
import itertools

from conftest import case_algebra
from gentlelam import (decompose, enumerate_bands, enumerate_strings,
                       generic_multiset, generic_point, strings)
from gentlelam.schemes import components

MULTISETS = "21525304194df0e773045a7882d4232ad9998518a9c84f0e11510c06a1b5a98a"
ORDERED = "ccb88ad59f2447fdb2f01121ca4c210647e17750549d6b6f70f1f3383ef873f7"


def text(x):
    return f"band {x[0]} {x[1]}" if isinstance(x, tuple) else f"string {x}"


def test_labels_of_the_pants_box_are_pinned_in_canonical_order():
    A = case_algebra("pants")
    multisets, ordered = hashlib.sha256(), hashlib.sha256()
    count = 0
    for d in itertools.product(range(3), repeat=6):
        for Z in components(A, d):
            parts = decompose(A, generic_point(A, Z, 0), seed=0,
                              words=generic_multiset(A, Z))
            texts = [text(x) for x in parts]
            multisets.update(("|".join(sorted(texts)) + "\n").encode())
            ordered.update(("|".join(texts) + "\n").encode())
            count += 1
    assert count == 1785
    assert multisets.hexdigest() == MULTISETS
    assert ordered.hexdigest() == ORDERED


def test_equal_band_words_come_in_increasing_parameter(torus_algebra):
    # a string first, then one band at its parameters in increasing
    # order, whatever order the sum holds them in
    A = torus_algebra
    B = enumerate_bands(A, 4)[0]
    C = [C for C in enumerate_strings(A, 2) if len(C)][0]
    M = strings.word_sum(A, [B, C, B, B], iter((7, 2, 5)))
    assert decompose(A, M) == [C, (B, 2), (B, 5), (B, 7)]
