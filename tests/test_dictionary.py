"""The word dictionary restricted by a dimension vector, and the letter
table behind it, on every golden algebra."""

import random

import pytest

from conftest import golden
from gentlelam import (DictionaryExhausted, StringWord, band_module,
                       build_QT, canonical_band, canonical_string,
                       decompose, direct_sum, enumerate_bands,
                       enumerate_strings, iso_test, string_module)
from gentlelam.fileio import algebra_from_dict, triangulation_from_dict
from gentlelam import strings
from gentlelam.strings import (_letter_table, _pair_rule, conjugate,
                               letter, make_rep, parse_word, random_glpoint,
                               word_walk)

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


def test_decompose_names_long_words_without_a_bound():
    A = golden_algebra("torus_quiver")
    C = canonical_string(A, StringWord(parse_word("a1-,b1,a3,c-,b2,a1,b1-")))
    assert decompose(A, string_module(A, C)) == [C]
    B = canonical_band(A, parse_word("c-,b3-,a1-,b1,a1-,b1,a3"))
    assert decompose(A, band_module(A, B, 3)) == [(B, 3)]


def flat_band(A, B, lam):
    """The module of the band B with the 2 x 2 matrix parameter lam: the
    word walk with a 2 x 2 identity block on each step but the last, which
    carries lam."""
    verts, steps = word_walk(A, B)
    dims, idx = [0] * A.n, []
    for v in verts:
        idx.append(dims[v - 1])
        dims[v - 1] += 1
    mats = {aid: [[0] * 2 * dims[A.s(aid) - 1]
                  for _ in range(2 * dims[A.t(aid) - 1])]
            for aid in A.arrow_ids}
    for k, (aid, p, q) in enumerate(steps):
        blk = lam if k == len(steps) - 1 else [[1, 0], [0, 1]]
        for i in range(2):
            for j in range(2):
                mats[aid][2 * idx[q] + i][2 * idx[p] + j] = blk[i][j]
    return make_rep(A, [2 * x for x in dims], mats)


# the quasi-length-2 parameter J_2(3), and the companion matrix of x^2 + 2
NOT_WORDS = ([[3, 1], [0, 3]], [[0, -2], [1, 0]])


@pytest.mark.parametrize("lam", NOT_WORDS, ids=["J2(3)", "x^2+2"])
def test_decompose_exhausts_on_a_module_of_no_word(lam):
    # indecomposable, but no word module with a rational parameter
    A = golden_algebra("torus_quiver")
    B = canonical_band(A, parse_word("a1,b1-,a2-,c-,b2"))
    with pytest.raises(DictionaryExhausted):
        decompose(A, flat_band(A, B, lam))


PANTS_BAND = "t0:2>6,t2:2>3-,t1:6>3,t0:6>1-,t4:1>5-,t3:4>5,t1:4>6-"


@pytest.mark.parametrize("lam", NOT_WORDS, ids=["J2(3)", "x^2+2"])
def test_exhausted_path_draws_two_maps_per_word(lam, monkeypatch):
    # a module of no word walks the whole table before it is rejected;
    # each (word, parameter) W with Hom(rep, W) != 0 costs at most two
    # draws of (f, g), where a loop over Hom bases took 1,921 and 1,912
    A = golden_algebra("pants")
    M = flat_band(A, canonical_band(A, parse_word(PANTS_BAND)), lam)
    seen = {"rep": None, "nonzero": 0, "drawn": 0}
    peel, hom_space = strings._peel, strings._hom_space

    def counted_peel(A, p, table, rng):
        seen["rep"] = p
        try:
            return peel(A, p, table, rng)
        finally:
            seen["rep"] = None

    def counted_hom_space(A, M, N):
        free, point = hom_space(A, M, N)
        rep = seen["rep"]
        if M is rep and free:
            seen["nonzero"] += 1  # Hom(rep, W) != 0 for a W of the table
        if N is not rep:
            return free, point

        def counted_point(values):
            seen["drawn"] += 1  # one f in Hom(W, rep)
            return point(values)
        return free, counted_point

    monkeypatch.setattr(strings, "_peel", counted_peel)
    monkeypatch.setattr(strings, "_hom_space", counted_hom_space)
    with pytest.raises(DictionaryExhausted):
        decompose(A, M)
    assert seen["nonzero"]
    assert 0 < seen["drawn"] <= 2 * seen["nonzero"], seen


def test_peel_keeps_all_of_p_where_the_word_is_zero():
    # the rest of a peel is ker g; where the peeled word W is 0, g_v is
    # empty and the rest keeps all of p_v, in p's own basis
    A = golden_algebra("pants")
    rng = random.Random(SEED)
    strs = [C for C in enumerate_strings(A, 3) if len(C)]
    seen = 0
    for _ in range(40):
        C, D = rng.sample(strs, 2)
        W, X = string_module(A, C), string_module(A, D)
        zero = [w == 0 for w in W.dims]
        if not any(z and x for z, x in zip(zero, X.dims)):
            continue
        M = direct_sum(A, [W, X])
        M = conjugate(A, M, random_glpoint(rng, M.dims, 3))
        label, rest = strings._peel(A, M, strings._shape_table(A, [C]), rng)
        assert label == C
        assert rest.dims == X.dims
        assert iso_test(A, rest, X)
        for aid in A.arrow_ids:
            if zero[A.s(aid) - 1] and zero[A.t(aid) - 1]:
                assert rest.mats[aid] == M.mats[aid]
        seen += 1
    assert seen >= 10
