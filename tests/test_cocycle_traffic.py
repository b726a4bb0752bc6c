"""What the pair route of c, e and h builds, counted, and what it returns,
pinned.

`surface.int_zero` reads Hom(M, tau N) = Hom(N, M) + g(N) . dim M off the
Hom pair values and the g-vectors, and a g-vector is read in closed form
off a shape (`strings._g_of_shape`), so it builds no relation rows at
all; `ceh_by_words` builds them once per new key of the Z^1 table, and
none for g.  The values of
`ceh_by_words` over every component of {0,1,2}^n on the five golden
algebras are pinned by a digest taken on commit 85d3c9e, before e and h
were read off the two differentials of the standard complex: sha256 of
the repr of the list of (algebra, d, rank function, (c, e, h)) in the
order below, `itertools.product` order and component order."""

import hashlib
import itertools

import pytest

import lamgen
from conftest import GOLDEN_ALGEBRAS, GOLDEN_SURFACES, case_algebra, golden
from gentlelam import build_QT, ceh_by_words, components, homological, \
    int_zero, strings, surface
from gentlelam.fileio import triangulation_from_dict
from gentlelam.homological import _cocycle_dim
from gentlelam.schemes import generic_multiset
from lamgen import curve_pool
from test_curve_layer import PAIRS, _accepted

CEH_ALGEBRAS = ("torus_quiver", "double_loop", "two_cycle", "a3_relation",
                "loop_algebra")
CEH_COMPONENTS = 394
CEH_SHA256 = \
    "d6e5b5dd9221cec08be6171846666b869fc7c3447d1f4931d94ad6533093fe2e"


@pytest.fixture
def relation_rows(monkeypatch):
    """The (M, N) of every `_relation_rows` call, in order."""
    calls = []
    real = homological._relation_rows

    def counted(A, M, N):
        calls.append((M, N))
        return real(A, M, N)

    monkeypatch.setattr(homological, "_relation_rows", counted)
    return calls


@pytest.mark.parametrize("name", GOLDEN_SURFACES)
def test_int_zero_builds_no_relation_rows(name, relation_rows):
    # a fresh triangulation, so no memo of another test answers for it
    T = triangulation_from_dict(golden(f"{name}.json"))
    pool = curve_pool(T, build_QT(T), max_crossings=8, depth=5)
    verdicts = [int_zero(T, g, pool[j]) for i, g in enumerate(pool)
                for j in range(i, len(pool))]
    assert len(pool) > 5 and any(verdicts) and not all(verdicts)
    # neither the Hom pair values nor the g-vectors build any
    assert relation_rows == []


def test_int_zero_builds_hom_of_a_module_with_itself_only_for_a_string(
        monkeypatch):
    """On fresh copies of the pools of `tests/test_curve_layer.py`, pool
    construction included: Hom(M, M) rows (one module object as both
    arguments) are built only for a string curve against itself, whose
    verdict reads dim Hom(M, M); never for two distinct curves, and never
    for a loop, whose second copy takes another band parameter."""
    current, diagonal = [None], []
    real_rows, real_int_zero = strings._intertwiner_rows, surface.int_zero

    def rows(A, M, N, skip=None):
        if M is N:
            diagonal.append(current[0])
        return real_rows(A, M, N, skip)

    def int_zero_at(T, g, h):
        current[0] = (g, h)
        return real_int_zero(T, g, h)

    monkeypatch.setattr(strings, "_intertwiner_rows", rows)
    monkeypatch.setattr(lamgen, "int_zero", int_zero_at)
    surfaces = [triangulation_from_dict(golden(f"{name}.json"))
                for name in ("pants", "hexagon", "annulus")]
    surfaces += itertools.islice(
        (T for T in _accepted() if len(T.internal_arcs) >= 2), 60)
    verdicts = 0
    for T in surfaces:
        pool = curve_pool(T, build_QT(T), max_crossings=8, depth=5)
        for i, g in enumerate(pool):
            for h in pool[i:]:
                int_zero_at(T, g, h)
                verdicts += 1
    assert verdicts == PAIRS
    assert diagonal and all(g is h and g.kind == "open" for g, h in diagonal)


def test_ceh_by_words_builds_rows_once_per_new_cocycle_key(relation_rows):
    A = case_algebra("torus_quiver")
    # the component with the most summands, a repeated word among them
    Z = max(components(A, (2, 2, 2, 2)),
            key=lambda Z: len(generic_multiset(A, Z)))
    words = generic_multiset(A, Z)
    assert len(set(words)) < len(words)
    first = ceh_by_words(A, Z)
    table = A.__dict__["_word_pairs"][_cocycle_dim]
    # one build per key of the Z^1 table, and none for the g-vector
    assert len(relation_rows) == len(table) < len(words) ** 2
    assert ceh_by_words(A, Z) == first
    assert len(relation_rows) == len(table)


def test_ceh_by_words_beyond_the_pants_is_pinned():
    assert set(CEH_ALGEBRAS) == set(GOLDEN_ALGEBRAS)
    rows = []
    for name in CEH_ALGEBRAS:
        A = case_algebra(name)
        rows += [(name, d, Z.r, ceh_by_words(A, Z))
                 for d in itertools.product(range(3), repeat=A.n)
                 for Z in components(A, d)]
    assert len(rows) == CEH_COMPONENTS
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == CEH_SHA256
