import random
from fractions import Fraction

import pytest

from fuzz import random_gentle
from gentlelam import (BandWord, InvalidString, NotPrimitive, StringWord,
                       ZeroLambda, band_module, band_word, canonical_band,
                       canonical_string, decompose, direct_sum,
                       enumerate_bands, enumerate_strings, rank_function_of,
                       standard_homs, string_module, string_word, tau_string)
from gentlelam.strings import (conjugate, letter, make_rep, parse_word,
                               random_glpoint)

SAMPLE = "a1-,b1,a3,c-,b2,a1,b1-"
BAND = "c-,b3-,a1-,b1,a1-,b1,a3"


def test_parse_word_roundtrip():
    w = parse_word(SAMPLE)
    assert w[0] == ("a1", True) and w[1] == ("b1", False)
    assert parse_word("1@3") == StringWord((), 3)


def test_canonical_string_inverse_class(torus_algebra):
    C = string_word(torus_algebra, parse_word(SAMPLE))
    assert canonical_string(torus_algebra, C) == \
        canonical_string(torus_algebra, C.inverse())


def test_canonical_trivial_sign_collapses(torus_algebra):
    up = StringWord((), 2, 1)
    dn = StringWord((), 2, -1)
    assert canonical_string(torus_algebra, up) == \
        canonical_string(torus_algebra, dn)


def test_canonical_band_rotations(torus_algebra):
    B = band_word(torus_algebra, parse_word(BAND))
    want = canonical_band(torus_algebra, B)
    for k in range(len(B)):
        assert canonical_band(torus_algebra, B.rotate(k)) == want
    assert canonical_band(torus_algebra, B.inverse()) == want


def test_band_power_not_primitive(torus_algebra):
    B = band_word(torus_algebra, parse_word(BAND))
    with pytest.raises(NotPrimitive):
        band_word(torus_algebra, B.letters + B.letters)


def test_trivial_string_module(torus_algebra):
    M = string_module(torus_algebra, StringWord((), 3))
    assert M.dims == (0, 0, 1, 0)


@pytest.mark.parametrize("vertex", [0, 7, 99, -1, "3", 3.0, True])
def test_trivial_string_outside_the_quiver_is_rejected(pants_algebra,
                                                       vertex):
    A = pants_algebra
    assert A.n == 6
    C = StringWord((), vertex)
    for fn in (string_word, string_module, tau_string):
        with pytest.raises(InvalidString):
            fn(A, C)
    with pytest.raises(InvalidString):
        standard_homs(A, C, C)
    if vertex == 0:
        with pytest.raises(InvalidString):
            string_module(A, parse_word("1@0"))


@pytest.mark.parametrize("sign", [0, 3, -2, 2])
def test_trivial_string_sign_is_one_or_minus_one(sign):
    with pytest.raises(InvalidString):
        StringWord((), 2, sign)
    # a nontrivial string ignores its sign
    assert StringWord((("a", False),), None, sign).letters


def test_trivial_strings_inside_the_quiver_are_kept(pants_algebra):
    A = pants_algebra
    for v in range(1, A.n + 1):
        for sign in (1, -1):
            C = StringWord((), v, sign)
            assert string_word(A, C) is C
            assert string_module(A, C).dims == tuple(
                int(u == v) for u in range(1, A.n + 1))
            tau_string(A, C)
            assert standard_homs(A, C, C)


def test_single_arrow_module(torus_algebra):
    M = string_module(torus_algebra, StringWord((letter("a2"),)))
    assert M.dims == (0, 1, 1, 0)
    assert M.mats["a2"] == ((1,),)


def test_sample_string_dims(torus_algebra):
    M = string_module(torus_algebra, parse_word(SAMPLE))
    assert M.dims == (3, 3, 1, 1)
    r = rank_function_of(torus_algebra, M)
    assert M.dim() - sum(r.values()) == 1


def test_band_module_dims_and_rank(torus_algebra):
    M = band_module(torus_algebra, parse_word(BAND), 1)
    assert M.dims == (3, 2, 1, 1)
    r = rank_function_of(torus_algebra, M)
    assert M.dim() - sum(r.values()) == 0


def test_band_module_lambda_entry(torus_algebra):
    lam = Fraction(5, 3)
    M = band_module(torus_algebra, parse_word(BAND), lam)
    entries = [x for aid in M.mats for row in M.mats[aid] for x in row if x]
    assert sorted(entries).count(lam) == 1
    assert all(x == 1 or x == lam for x in entries)


def test_band_module_rejects_zero_lambda(torus_algebra):
    with pytest.raises(ZeroLambda):
        band_module(torus_algebra, parse_word(BAND), 0)


def test_enumerate_strings_single_arrow():
    from gentlelam import Quiver, validate_gentle
    A = validate_gentle(Quiver(2, (("a", 1, 2),)), [])
    strs = enumerate_strings(A, 1)
    assert len(strs) == 3  # two trivial strings and the arrow


def test_enumerate_bands_loop_algebra(loop_algebra):
    assert enumerate_bands(loop_algebra, 6) == []


def test_enumerate_bands_double_loop(double_loop):
    assert len(enumerate_bands(double_loop, 8)) >= 3


def test_rank_function_counts_letters(torus_algebra):
    for C in enumerate_strings(torus_algebra, 5)[::7]:
        M = string_module(torus_algebra, C)
        r = rank_function_of(torus_algebra, M)
        for aid in torus_algebra.arrow_ids:
            want = sum(1 for c in C.letters if c[0] == aid)
            assert r[aid] == want


def test_make_rep_rejects_dims_of_the_wrong_length(a3_relation):
    for dims in ([1, 1, 1, 5], [1, 1]):
        with pytest.raises(ValueError, match="for 3 vertices"):
            make_rep(a3_relation, dims, {})


def test_make_rep_accepts_integer_dims_only(a3_relation):
    # a float was truncated (1.7 gave dims (1, 1, 0)); a string, a bool
    # and an integral float are no integers either, as in `fileio._int`
    for dims in ([1.7, 1, 0], ["1", 1, 0], [1.0, 1, 0], [True, 1, 0]):
        with pytest.raises(ValueError, match="non-integer"):
            make_rep(a3_relation, dims, {})
    assert make_rep(a3_relation, (1, 1, 0), {}).dims == (1, 1, 0)


def test_relations_annihilate_fuzzed():
    rng = random.Random(3)
    for _ in range(25):
        A = random_gentle(rng)
        for C in enumerate_strings(A, 4)[:20]:
            string_module(A, C)  # make_rep checks the relations exactly
        for B in enumerate_bands(A, 4)[:10]:
            band_module(A, B, Fraction(rng.randint(1, 9), rng.randint(1, 9)))


def test_string_band_defect_fuzzed():
    rng = random.Random(17)
    for _ in range(15):
        A = random_gentle(rng)
        for C in enumerate_strings(A, 5)[:25]:
            M = string_module(A, C)
            assert M.dim() - sum(rank_function_of(A, M).values()) == 1
        for B in enumerate_bands(A, 5)[:10]:
            M = band_module(A, B, 2)
            assert M.dim() - sum(rank_function_of(A, M).values()) == 0


def test_decompose_block_diagonal(torus_algebra):
    C = canonical_string(torus_algebra, StringWord(parse_word(SAMPLE)))
    M = direct_sum(torus_algebra, [string_module(torus_algebra, C)] * 2)
    out = decompose(torus_algebra, M)
    assert out == [C, C]


def test_decompose_conjugated_mixture(torus_algebra):
    rng = random.Random(23)
    A = torus_algebra
    strs = enumerate_strings(A, 4)
    bands = enumerate_bands(A, 7)
    for trial in range(5):
        expected = []
        parts = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.45 and bands:
                B = rng.choice(bands)
                lam = Fraction(rng.randint(1, 7), rng.randint(1, 7))
                parts.append(band_module(A, B, lam))
                expected.append((canonical_band(A, B), lam))
            else:
                C = rng.choice(strs)
                parts.append(string_module(A, C))
                expected.append(canonical_string(A, C))
        M = conjugate(A, direct_sum(A, parts),
                      random_glpoint(rng, direct_sum(A, parts).dims, 3))
        got = decompose(A, M, seed=trial)
        assert sorted(map(str, got)) == sorted(map(str, expected)) or \
            _same_multiset(got, expected)


def _same_multiset(got, expected):
    def key(x):
        if isinstance(x, tuple):
            return ("band", str(x[0]), x[1])
        return ("string", str(x))
    return sorted(map(key, got)) == sorted(map(key, expected))


def test_decompose_conjugated_on_surface_algebra(pants_algebra):
    # the same round trip on the triangulation algebra
    rng = random.Random(99)
    A = pants_algebra
    strs = enumerate_strings(A, 6)
    bands = enumerate_bands(A, 6)
    words = strs[::17] + bands
    for w in words[:14]:
        if isinstance(w, BandWord):
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            M = band_module(A, w, lam)
            want = [(canonical_band(A, w), lam)]
        else:
            M = string_module(A, w)
            want = [canonical_string(A, w)]
        M2 = conjugate(A, M, random_glpoint(rng, M.dims, 3))
        got = decompose(A, M2, seed=1)
        assert _same_multiset(got, want), str(w)
