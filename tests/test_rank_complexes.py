"""g-vectors, Ext^1 and Hom(-, tau -) read off rank complexes of the
arrow matrices, against the minimal presentation.

The corpus of each golden algebra: strings of length <= 3, bands of
length <= 4 with lambda in {1, 2, 3}, and seeded conjugated direct sums
of those (whose matrices are no longer partial permutations)."""

import random

import pytest

from conftest import golden
from gentlelam import (BandWord, StringWord, band_module, build_QT,
                       ceh_by_words, components, direct_sum, enumerate_bands,
                       enumerate_strings, ext1_complex_dim, ext1_dim,
                       g_vector, homological, min_proj_presentation, schemes,
                       string_module, tangent_dim, tau_dtr)
from gentlelam.fileio import algebra_from_dict, triangulation_from_dict
from gentlelam.homological import (DecoratedModule, _cocycle_dim,
                                   _g_of_presentation)
from gentlelam.strings import (band_parameters, conjugate, hom_dim,
                               random_glpoint)

ALGEBRAS = ("a3_relation", "double_loop", "loop_algebra", "torus_quiver",
            "two_cycle")
SURFACES = ("annulus", "hexagon", "pants")
SUMS = 10  # conjugated direct sums per algebra
PARTNERS = 8  # second arguments per first argument of a pair test


def golden_algebra(name):
    if name in SURFACES:
        return build_QT(triangulation_from_dict(golden(f"{name}.json")))
    return algebra_from_dict(golden(f"{name}.json"))


def corpus(A, seed):
    words = [string_module(A, C) for C in enumerate_strings(A, 3)]
    words += [band_module(A, B, lam) for B in enumerate_bands(A, 4)
              for lam in (1, 2, 3)]
    rng = random.Random(seed)
    sums = []
    for _ in range(SUMS):
        M = direct_sum(A, rng.sample(words, min(len(words),
                                                rng.randint(2, 3))))
        sums.append(conjugate(A, M, random_glpoint(rng, M.dims, 3)))
    return words + sums


def pairs(mods, seed):
    """Each module against a seeded sample of PARTNERS modules."""
    rng = random.Random(seed)
    for M in mods:
        for N in rng.sample(mods, min(PARTNERS, len(mods))):
            yield M, N


@pytest.fixture(scope="module", params=ALGEBRAS + SURFACES)
def case(request):
    A = golden_algebra(request.param)
    return A, corpus(A, len(request.param))


def test_tor_ranks_give_the_g_vector_of_the_presentation(case):
    A, mods = case
    simples = [string_module(A, StringWord((), v)) for v in range(1, A.n + 1)]
    rng = random.Random(1)
    for M in mods:
        v = tuple(rng.randint(0, 2) for _ in range(A.n))
        pres = min_proj_presentation(A, M)
        # Hom(M, S_v) and Ext^1(M, S_v): the tops of M and of Omega M
        assert [(hom_dim(A, M, S), ext1_complex_dim(A, M, S))
                for S in simples] == list(zip(pres.n_vec, pres.m_vec))
        assert g_vector(A, DecoratedModule(M, v)) == \
            _g_of_presentation(pres, v)


def test_ext1_complex_matches_the_presentation(case):
    A, mods = case
    for M, N in pairs(mods, 2):
        assert ext1_complex_dim(A, M, N) == ext1_dim(A, M, N)


def test_hom_into_tau_is_hom_plus_g_pairing(case):
    A, mods = case
    taus = {}
    for M, N in pairs(mods, 3):
        if id(M) not in taus:
            taus[id(M)] = tau_dtr(A, M), g_vector(A, M)
        tau, g = taus[id(M)]
        assert hom_dim(A, N, tau) == hom_dim(A, M, N) + sum(
            x * d for x, d in zip(g, N.dims))


def test_self_ext1_is_tangent_space_modulo_orbit(case):
    """Voigt: Ext^1(M, M) is the tangent space of the module scheme at M
    modulo that of the orbit, of dimension sum d_v^2 - dim End M."""
    A, mods = case
    for M in mods:
        end = hom_dim(A, M, M)
        assert ext1_complex_dim(A, M, M) == \
            tangent_dim(A, M) - sum(d * d for d in M.dims) + end


@pytest.mark.parametrize("name", ("torus_quiver", "pants", "double_loop"))
def test_word_pairs_match_the_presentation_oracles(name):
    """The Hom value (`_word_pair`) of every ordered pair of summands
    against `hom_dim`, and its Z^1 value less B^1 against `ext1_dim`, of
    the summand modules, which take their band parameters as `word_sum`
    does; the pair sums (`_pair_sum`) against the sums of those values;
    and the Hom values with the g-vectors against Hom(M, tau_dtr(M)) of
    their sum M, summed over the pairs as dim Hom(M_i, tau_dtr(M_j))."""
    A = golden_algebra(name)
    words = enumerate_strings(A, 2) + enumerate_bands(A, 4)
    rng = random.Random(4)
    for _ in range(6):
        multiset = rng.sample(words, 3) + [rng.choice(words)] * 2
        lams = band_parameters()
        mods = [band_module(A, w, next(lams)) if isinstance(w, BandWord)
                else string_module(A, w) for w in multiset]
        homs, z1s, into_tau = [], [], 0
        for i, (v, Mi) in enumerate(zip(multiset, mods)):
            for j, (w, Mj) in enumerate(zip(multiset, mods)):
                same = i == j and isinstance(v, BandWord)
                homs.append(schemes._word_pair(A, hom_dim, v, w, same))
                z1s.append(schemes._word_pair(A, _cocycle_dim, v, w, same))
                hom = hom_dim(A, Mi, Mj)
                b1 = sum(x * y for x, y in zip(Mi.dims, Mj.dims)) - hom
                assert homs[-1] == hom
                assert z1s[-1] - b1 == ext1_dim(A, Mi, Mj)
                into_tau += hom_dim(A, Mi, tau_dtr(A, Mj))
        assert schemes._pair_sum(A, multiset, hom_dim) == sum(homs)
        assert schemes._pair_sum(A, multiset, _cocycle_dim) == sum(z1s)
        g = [sum(col) for col in zip(*(g_vector(A, M) for M in mods))]
        d = [sum(col) for col in zip(*(M.dims for M in mods))]
        assert into_tau == sum(homs) + sum(x * y for x, y in zip(g, d))


def test_g_vector_and_pair_route_build_no_presentation(monkeypatch):
    calls = []
    real = homological.min_proj_presentation

    def counted(A, M):
        calls.append(M)
        return real(A, M)

    monkeypatch.setattr(homological, "min_proj_presentation", counted)
    monkeypatch.setattr(schemes, "min_proj_presentation", counted)
    A = golden_algebra("torus_quiver")
    for M in corpus(A, 5):
        g_vector(A, M)
    for Z in components(A, (1, 2, 2, 1)) + components(A, (2, 1, 1, 2)):
        ceh_by_words(A, Z)
    assert A.__dict__["_word_modules"]
    assert calls == []
