"""Work that a `components` request does once: one map through a word
module peels a copy of a repeated summand off, word modules and
component dimensions are kept on the algebra, support blocks are read
off by index, and the letter table tests only letter pairs that meet at
a vertex."""

import gc
import os
import random
import weakref

import pytest

from conftest import GOLDEN, golden
from gentlelam import (BandWord, band_module, build_QT, canonical_string,
                       decompose, direct_sum, enumerate_bands,
                       enumerate_strings, iso_test, schemes, string_module,
                       strings)
from gentlelam.fileio import (algebra_from_dict, load_algebra,
                              triangulation_from_dict)
from gentlelam.schemes import (canonical_decomposition, component_dim,
                               components)
from gentlelam.strings import (_algebra_memo, _letter_table, _peel,
                               _subrep, _support_split, _word_table,
                               conjugate, letter_s, letter_t, parse_word,
                               random_glpoint, word_sum)

SEED = 15
ALGEBRAS = ("a3_relation", "double_loop", "loop_algebra", "torus_quiver",
            "two_cycle")
SURFACES = ("annulus", "hexagon", "pants")


def golden_algebra(name):
    if name in SURFACES:
        return build_QT(triangulation_from_dict(golden(f"{name}.json")))
    return algebra_from_dict(golden(f"{name}.json"))


def words_of(A):
    """Strings of length <= 3 and bands of length <= 4, a band at 1."""
    return ([(C, None) for C in enumerate_strings(A, 3)]
            + [(B, 1) for B in enumerate_bands(A, 4)])


def module(A, w, lam):
    return string_module(A, w) if lam is None else band_module(A, w, lam)


def label(x):
    return str(x[0]) if isinstance(x, tuple) else str(x)


@pytest.fixture
def peels(monkeypatch):
    """The labels of the pieces `_peel` splits off with a rest (one with
    no rest, named whole, is an identification and not counted)."""
    seen = []
    peel = strings._peel

    def counted_peel(*args):
        got = peel(*args)
        if got is not None and got[1] is not None:
            seen.append(got[0])
        return got

    monkeypatch.setattr(strings, "_peel", counted_peel)
    return seen


# ---------------------------------------------------------------------------
# repeated summands


@pytest.mark.parametrize("surface", ["pants", "torus_quiver"])
def test_repeated_summands_split_through_a_word_module(surface):
    # on M + M every endomorphism acts as X (x) id_M modulo the radical;
    # a map through the word module M splits one copy off, and the rest,
    # ker g, is the other
    A = golden_algebra(surface)
    C = [C for C in enumerate_strings(A, 3) if len(C) == 2][0]
    W = string_module(A, C)
    M = direct_sum(A, [W] * 2)
    table = _word_table(A, M.dims)
    for seed in range(SEED, SEED + 8):
        N = conjugate(A, M, random_glpoint(random.Random(seed), M.dims, 3))
        label, rest = _peel(A, N, table, random.Random(seed))
        assert label == C
        assert iso_test(A, rest, W)
        assert decompose(A, N, seed=seed) == [C, C]


@pytest.mark.parametrize("seed", [3, 7])
def test_repeated_torus_summand_reaches_the_word_path(seed, peels):
    # six random endomorphisms of this M + M split it on neither seed;
    # one peel does, and the rest is named whole (a peel with no rest)
    A = golden_algebra("torus_quiver")
    C = canonical_string(A, parse_word("b2,a2-,c-"))
    M = direct_sum(A, [string_module(A, C)] * 2)
    M = conjugate(A, M, random_glpoint(random.Random(seed), M.dims, 3))
    assert decompose(A, M, seed=seed) == [C, C]
    assert peels == [C]


# ---------------------------------------------------------------------------
# word modules built once


@pytest.mark.parametrize("name", ("torus_quiver", "pants", "hexagon",
                                  "annulus", "double_loop"))
def test_word_sum_is_the_direct_sum_of_fresh_modules(name):
    A = golden_algebra(name)
    rng = random.Random(SEED)
    pool = [w for w, _ in words_of(A)]
    for _ in range(6):
        words = rng.sample(pool, min(len(pool), rng.randint(1, 4)))
        words += words[:1]  # a repeated word; a band takes a new parameter
        M = word_sum(A, words)
        lams = iter((2, 3, 5, 7, 11, 13))
        fresh = direct_sum(A, [band_module(A, w, next(lams))
                               if isinstance(w, BandWord)
                               else string_module(A, w) for w in words])
        assert M.dims == fresh.dims
        assert M.mats == fresh.mats
        # the summands are kept as the algebra's word modules
        memo = A.__dict__["_word_modules"]
        assert {w for w, _ in memo} >= set(words)


# ---------------------------------------------------------------------------
# support blocks by index


def unit_bases(rep, block_of):
    """Per block, per vertex, the unit vectors of the basis indices that
    `block_of` assigns to it, in increasing order."""
    out = {}
    for (v, i), b in sorted(block_of.items()):
        vec = [0] * rep.dims[v]
        vec[i] = 1
        out.setdefault(b, [[] for _ in rep.dims])[v].append(vec)
    return [out[b] for b in sorted(out)]


@pytest.mark.parametrize("name", ALGEBRAS + SURFACES)
def test_support_blocks_equal_the_subrep_route(name):
    # word modules summed and then shuffled by a permutation per vertex,
    # so the blocks interleave; _subrep on unit vectors is the reference
    A = golden_algebra(name)
    rng = random.Random(SEED)
    pool = words_of(A)
    for _ in range(4):
        parts = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
        reps = [module(A, w, lam) for w, lam in parts]
        M = direct_sum(A, reps)
        perms = [rng.sample(range(d), d) for d in M.dims]
        gs = [[[int(p[i] == j) for j in range(d)] for i in range(d)]
              for p, d in zip(perms, M.dims)]
        M = conjugate(A, M, gs)
        # summand k holds the shuffled positions of its own basis
        block_of, off = {}, [0] * A.n
        for k, r in enumerate(reps):
            for v, d in enumerate(r.dims):
                for i in range(off[v], off[v] + d):
                    block_of[(v, perms[v].index(i))] = k
                off[v] += d
        want = [_subrep(A, M, b) for b in unit_bases(M, block_of)]
        got = _support_split(A, M)
        assert sorted(map(repr, got)) == sorted(map(repr, want)), parts


# ---------------------------------------------------------------------------
# letter pairs by vertex


@pytest.mark.parametrize("name", ALGEBRAS + SURFACES)
def test_letter_table_tests_only_pairs_that_meet(name, monkeypatch):
    # `test_letter_table_matches_rule` compares the table with the rule
    # on all pairs; here only pairs (x, y) with t(y) = s(x) are tested
    A = golden_algebra(name)
    rule, tested = strings._pair_rule, []

    def counted(A, x, y):
        tested.append((x, y))
        return rule(A, x, y)

    monkeypatch.setattr(strings, "_pair_rule", counted)
    tab = _letter_table(A)
    assert len(tested) == len(set(tested))
    assert set(tested) == {(x, y) for x in tab.letters for y in tab.letters
                           if letter_t(A, y) == letter_s(A, x)}
    assert tab.pairs == {p for p in tested if rule(A, *p)}


# ---------------------------------------------------------------------------
# memo hygiene


def test_component_dims_live_on_the_algebra():
    path = os.path.join(GOLDEN, "torus_quiver.json")
    A, B = load_algebra(path), load_algebra(path)
    assert A == B and A is not B
    d = (2, 1, 1, 0)
    comps = components(A, d)
    dims = [component_dim(A, Z) for Z in comps]
    for Z in comps:
        canonical_decomposition(A, Z)
    # dim Z is a sum over the kept block records, not a memo of its own
    assert "_component_dims" not in A.__dict__
    memo = A.__dict__["_block_records"]
    assert memo
    assert _algebra_memo(A, "_block_records") is memo
    assert A.__dict__["_word_modules"]
    # a second load of the same file shares neither memo
    assert "_block_records" not in B.__dict__
    assert "_word_modules" not in B.__dict__
    assert [component_dim(B, Z) for Z in comps] == dims
    assert B.__dict__["_block_records"] == memo
    assert B.__dict__["_block_records"] is not memo
    word_sum(B, [next(iter(A.__dict__["_word_modules"]))[0]])
    assert B.__dict__["_word_modules"] is not A.__dict__["_word_modules"]
    # no module global holds them
    held = [id(m) for m in A.__dict__.values()]
    for mod in (strings, schemes):
        assert not [k for k, v in vars(mod).items() if id(v) in held]
    ref = weakref.ref(A)
    del A, memo
    gc.collect()
    assert ref() is None
