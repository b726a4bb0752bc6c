"""g-vectors in closed form: g_v = sum over the arrows a into v of
(d_s(a) - r_b) - d_v, with b the arrow for which (a, b) is a relation
(`strings._g_of_shape`, read by `g_vector`), against its two oracles:
dim Z^1(M, S_v) - dim M_v from the relation differential
(`homological._cocycle_dim`) and m_v - n_v from the minimal projective
presentation (`homological._g_of_presentation`).  Well under a second."""

import ast
import inspect
import random

from conftest import CASES, case_algebra
from fuzz import random_gentle
from gentlelam import (BandWord, DecoratedModule, StringWord, band_module,
                       ceh_by_words, decorated_g_vector, enumerate_bands,
                       enumerate_strings, g_vector, int_zero, string_module)
from gentlelam.homological import (_cocycle_dim, _g_of_presentation,
                                   min_proj_presentation)
from gentlelam.strings import (band_parameters, conjugate, random_glpoint,
                               word_sum)

GOLDEN_NAMES = tuple(name for name in CASES if not name.startswith("fuzz"))


def algebras():
    yield from (case_algebra(name) for name in GOLDEN_NAMES)
    yield from (random_gentle(random.Random(seed)) for seed in range(60))


def oracles(A, M, v):
    simples = [string_module(A, StringWord((), u)) for u in range(1, A.n + 1)]
    cocycle = tuple(_cocycle_dim(A, M, S) - d + x
                    for S, d, x in zip(simples, M.dims, v))
    return cocycle, _g_of_presentation(min_proj_presentation(A, M), v)


def test_closed_form_g_of_every_short_word():
    seen = 0
    for A in algebras():
        mods = [string_module(A, C) for C in enumerate_strings(A, 5)]
        mods += [band_module(A, B, lam) for B in enumerate_bands(A, 6)
                 for lam in (2, -3)]
        zero = (0,) * A.n
        for M in mods:
            g = g_vector(A, M)
            assert (g, g) == oracles(A, M, zero)
        seen += len(mods)
    assert len(GOLDEN_NAMES) == 8 and seen > 1000


def test_closed_form_g_of_conjugated_direct_sums():
    """Seeded sums of two to four words (repeats allowed), plus a band
    where the algebra has one, conjugated by a random unimodular matrix
    per vertex and decorated at random."""
    rng = random.Random(36)
    sums = with_bands = 0
    for A in algebras():
        words = enumerate_strings(A, 3) + enumerate_bands(A, 4)
        bands = enumerate_bands(A, 6)
        for _ in range(4):
            picked = [rng.choice(words) for _ in range(rng.randint(2, 4))]
            picked += [rng.choice(bands)] if bands else []
            M = word_sum(A, picked, band_parameters(rng))
            N = conjugate(A, M, random_glpoint(rng, M.dims, 3))
            v = tuple(rng.randint(0, 2) for _ in range(A.n))
            g = g_vector(A, DecoratedModule(N, v))
            assert (g, g) == oracles(A, N, v), picked
            assert g == g_vector(A, DecoratedModule(M, v))
            sums += 1
            with_bands += any(isinstance(w, BandWord) for w in picked)
    assert sums == 272 and with_bands > 40


def test_g_is_read_by_no_oracle_route():
    """The Z^1 route and the presentation route of g run in the tests
    only: no reader of g calls them."""
    oracle = {"_cocycle_dim", "_relation_rows", "min_proj_presentation",
              "_g_of_presentation"}
    for fn in (g_vector, ceh_by_words, decorated_g_vector, int_zero):
        tree = ast.parse(inspect.getsource(fn))
        called = {node.func.id if isinstance(node.func, ast.Name)
                  else node.func.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Call)}
        assert "_g_of_shape" in called and not called & oracle, fn.__name__
