"""c, e, h summed over word pairs of the certified generic multiset, and
the multiset search that is the oracle of its words."""

import itertools
from fractions import Fraction

from conftest import case_algebra
from gentlelam import (BandWord, Quiver, band_module, ceh_by_words,
                       ceh_values, components, enumerate_bands,
                       enumerate_strings, g_vector, schemes, string_module,
                       strings, validate_gentle)
from gentlelam.homological import _cocycle_dim
from gentlelam.schemes import _search_multiset, _word_pair, generic_multiset
from gentlelam.strings import _g_of_shape, hom_dim, word_shape


def fresh_torus_algebra():
    q = Quiver(4, (("a1", 1, 2), ("b1", 1, 2), ("a2", 2, 3), ("b2", 2, 4),
                   ("a3", 3, 1), ("b3", 4, 1), ("c", 3, 4)))
    return validate_gentle(q, [("a1", "a3"), ("a2", "a1"), ("a3", "a2"),
                               ("b1", "b3"), ("b2", "b1"), ("b3", "b2")])


def test_repeated_band_word_fills_both_keys():
    A = fresh_torus_algebra()
    Z, = components(A, (0, 2, 2, 2))
    words = generic_multiset(A, Z)
    B = words[0]
    assert isinstance(B, BandWord) and words == [B, B]
    assert ceh_by_words(A, Z) == ceh_values(A, Z, seed=11) == (2, 2, 2)
    hom = A.__dict__["_word_pairs"][hom_dim]
    z1 = A.__dict__["_word_pairs"][_cocycle_dim]
    # M(B, lam) is a brick with Ext^1(M, M) = 1; two parameters see
    # nothing, and Z^1 = Ext^1 + B^1 with B^1 = 3 - dim Hom, as
    # dim M = (0, 1, 1, 1)
    assert (hom[(B, B, True)], z1[(B, B, True)]) == (1, 3)
    assert (hom[(B, B, False)], z1[(B, B, False)]) == (0, 3)


def test_string_pairs_carry_no_same_summand_key(torus_algebra):
    A = torus_algebra
    for Z in components(A, (1, 1, 1, 0)):
        ceh_by_words(A, Z)
    tables = A.__dict__["_word_pairs"]
    assert set(tables) == {hom_dim, _cocycle_dim}
    assert not [k for table in tables.values() for k in table
                if k[2] and not isinstance(k[0], BandWord)]


def test_algebras_do_not_share_the_pair_memo():
    A, B = fresh_torus_algebra(), fresh_torus_algebra()
    assert A == B
    Z, = components(A, (0, 2, 2, 2))
    ceh_by_words(A, Z)
    assert A.__dict__["_word_pairs"]
    assert not B.__dict__.get("_word_pairs")
    assert ceh_by_words(B, Z) == ceh_by_words(A, Z)
    assert B.__dict__["_word_pairs"] == A.__dict__["_word_pairs"]
    assert B.__dict__["_word_pairs"] is not A.__dict__["_word_pairs"]


def test_pair_route_builds_no_generic_point(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the pair route sampled a generic point")

    monkeypatch.setattr(schemes, "generic_point", forbidden)
    monkeypatch.setattr(schemes, "ceh_values", forbidden)
    A = fresh_torus_algebra()
    seen = 0
    for d in itertools.product(range(2), repeat=4):
        for Z in components(A, d):
            c, e, h = ceh_by_words(A, Z)
            assert 0 <= c <= e <= h
            seen += 1
    assert seen > 16


def test_candidates_are_built_once_per_dimension_vector(monkeypatch):
    # the candidates read the word table, which enumerates the words
    calls = []
    enumerate_bands = strings.enumerate_bands

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_bands(*args, **kwargs)

    monkeypatch.setattr(strings, "enumerate_bands", counted)
    A = fresh_torus_algebra()
    d = (1, 2, 2, 1)
    comps = components(A, d)
    assert len(comps) > 1
    for Z in comps:
        _search_multiset(A, Z)
    assert len(calls) == 1
    assert list(A.__dict__["_candidates"]) == [d]


def test_multiset_adds_up_to_the_component(torus_algebra):
    A = torus_algebra
    for d in itertools.product(range(3), repeat=A.n):
        for Z in components(A, d):
            dims, ranks = [0] * A.n, dict.fromkeys(A.arrow_ids, 0)
            words = generic_multiset(A, Z)
            for w in words:
                wd, wr = word_shape(A, w)
                dims = [x + y for x, y in zip(dims, wd)]
                ranks = {a: ranks[a] + wr[a] for a in ranks}
            assert (tuple(dims), ranks) == (d, Z.rank()), (d, Z.r)
            strings = sum(not isinstance(w, BandWord) for w in words)
            assert strings == sum(d) - sum(Z.rank().values())


# bands of <= 6 letters (double_loop has none shorter than 8, the other
# three none at all); pants 3, torus 6, double_loop 8
PARAMETER_CASES = (("pants", 6), ("torus_quiver", 6), ("double_loop", 8),
                   ("two_cycle", 6), ("loop_algebra", 6), ("a3_relation", 6))


def test_pair_values_and_g_of_bands_do_not_depend_on_the_parameters():
    """The pair values read at parameters 2 and 3 (`_word_pair`) and the
    g-vectors read off the word's shape (`_g_of_shape`) against other
    distinct parameters:
    each band with itself, with a second summand of its word, with every
    other band and with every string of <= 3 letters, both ways."""
    others = ((5, 11), (Fraction(-1, 3), Fraction(7, 2)))
    bands_seen = 0
    for name, max_len in PARAMETER_CASES:
        A = case_algebra(name)
        bands = enumerate_bands(A, max_len)
        strs = [(S, string_module(A, S)) for S in enumerate_strings(A, 3)]
        bands_seen += len(bands)
        for B in bands:
            for lam, mu in others:
                M, N = band_module(A, B, lam), band_module(A, B, mu)
                assert g_vector(A, M) == _g_of_shape(A, *word_shape(A, B))
                for dim in (hom_dim, _cocycle_dim):
                    assert dim(A, M, M) == _word_pair(A, dim, B, B, True)
                    assert dim(A, M, N) == _word_pair(A, dim, B, B)
                    for C in bands:
                        if C != B:
                            assert dim(A, M, band_module(A, C, mu)) == \
                                _word_pair(A, dim, B, C), (B, C)
                    for S, X in strs:
                        assert dim(A, M, X) == _word_pair(A, dim, B, S)
                        assert dim(A, X, M) == _word_pair(A, dim, S, B)
    assert bands_seen == 17
