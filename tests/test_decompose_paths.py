"""`decompose` names word summands one way: it reads the multiplicity
of each word in a piece off one trace pairing of the Hom spaces through
its word module, which counts repeated summands too, never reduces the
End system of a piece and leaves no rest; its labels are those of the
peel it replaced (`conftest.peel_decompose`), and the word table it
reads lives on the algebra."""

import gc
import itertools
import os
import random
import weakref

import pytest

from conftest import GOLDEN, peel_decompose
from gentlelam import (BandWord, band_module, build_QT, canonical_string,
                       decompose, direct_sum, enumerate_bands,
                       enumerate_strings, schemes, string_module, strings)
from gentlelam.fileio import load_algebra
from gentlelam.schemes import components, generic_multiset
from gentlelam.strings import (_algebra_memo, _word_table, conjugate,
                               parse_word, random_glpoint, word_shape,
                               word_sum)

SEED = 14


def golden_algebras(request):
    return {"torus": request.getfixturevalue("torus_algebra"),
            "pants": request.getfixturevalue("pants_algebra"),
            "double_loop": request.getfixturevalue("double_loop"),
            "hexagon": build_QT(request.getfixturevalue("hexagon")),
            "annulus": build_QT(request.getfixturevalue("annulus"))}


def sums(A, rng):
    """Direct sums as lists of (word, band parameter or None): repeated
    strings (M + M, M + M + N), one band at two parameters, two bands,
    a string beside a band, then seeded ones: two or three copies of one
    word beside up to two copies of another, a band at one parameter."""
    strs = [C for C in enumerate_strings(A, 3) if 1 <= len(C) <= 2]
    bands = enumerate_bands(A, 4)
    C, D = strs[0], strs[len(strs) // 2]
    out = [[(C, None)] * 2, [(C, None), (C, None), (D, None)],
           [(D, None), (D, None), (C, None)]]
    if bands:
        B, B2 = bands[0], bands[-1]
        out += [[(B, 2), (B, 3)], [(B, 5), (B2, 7)], [(C, None), (B, 3)],
                [(B, 2), (B, 2), (C, None)]]
    words = [(w, None) for w in strs] + [(B, 2 + k) for k, B in
                                         enumerate(bands)]
    for _ in range(10):
        x, y = rng.sample(words, 2)
        out.append([x] * rng.randint(2, 3) + [y] * rng.randint(0, 2))
    return out


def label(w, lam):
    return ("string", str(w), None) if lam is None else ("band", str(w), lam)


def labels(parts):
    return sorted(label(*x) if isinstance(x, tuple) else label(x, None)
                  for x in parts)


def module(A, w, lam):
    return string_module(A, w) if lam is None else band_module(A, w, lam)


@pytest.fixture
def traced(monkeypatch):
    """Pieces whose End system was reduced (`_hom_space(p, p)`), and the
    multiplicities `_multiplicity` reads, each with its piece."""
    seen = {"endo": [], "paired": []}
    hom_space, multiplicity = strings._hom_space, strings._multiplicity

    def counted_hom_space(A, M, N):
        if M is N:
            seen["endo"].append(M)
        return hom_space(A, M, N)

    def counted_multiplicity(A, p, W):
        got = multiplicity(A, p, W)
        seen["paired"].append((p, got))
        return got

    monkeypatch.setattr(strings, "_hom_space", counted_hom_space)
    monkeypatch.setattr(strings, "_multiplicity", counted_multiplicity)
    return seen


def conjugated_sums(request):
    """(algebra name, algebra, parts, conjugated direct sum) for the sums
    of `sums` on the five golden algebras, seeded by SEED."""
    rng = random.Random(SEED)
    for name, A in golden_algebras(request).items():
        for parts in sums(A, rng):
            M = direct_sum(A, [module(A, w, lam) for w, lam in parts])
            # conjugated, so the support graph does not split it
            yield name, A, parts, conjugate(A, M,
                                            random_glpoint(rng, M.dims, 3))


def test_conjugated_sums_on_the_golden_algebras(request, traced):
    count = 0
    for name, A, parts, M in conjugated_sums(request):
        got = decompose(A, M)
        assert labels(got) == labels(parts), (name, parts)
        count += 1
    # every summand is counted by a pairing through its word module, a
    # repeated one at once, and no End system is reduced
    found = [m for _, m in traced["paired"]]
    assert max(found) >= 2 and not traced["endo"]
    assert count >= 75


REPEATED = [
    # M + M + N
    (None, ("a1,b1-", "a1,b1-", "b3,c"), 7, True),
    # C + C with C of dims (2, 3): no vector is c (x) w for a single copy
    ("annulus", ("t0:1>2,t1:1>2-,t0:1>2,t1:1>2-",) * 2, 0, False),
]


def repeated_sum(request, torus_algebra, surface, words):
    A = build_QT(request.getfixturevalue(surface)) if surface \
        else torus_algebra
    parts = [(canonical_string(A, parse_word(w)), None) for w in words]
    return A, parts, direct_sum(A, [module(A, w, lam) for w, lam in parts])


def test_decompose_finds_the_labels_of_the_frozen_peel(request,
                                                       torus_algebra):
    # the peel, one word summand split off along drawn maps at a time, is
    # the oracle of the pairing: the same labels with their parameters
    count = 0
    for name, A, parts, M in conjugated_sums(request):
        assert decompose(A, M) == peel_decompose(A, M, count), (name, parts)
        count += 1
    for surface, words, seed, _ in REPEATED:
        A, parts, M = repeated_sum(request, torus_algebra, surface, words)
        for k in range(seed, seed + 4):
            N = conjugate(A, M, random_glpoint(random.Random(k), M.dims, 3))
            assert decompose(A, N) == peel_decompose(A, N, k), k
            count += 1
    assert count >= 83


@pytest.mark.parametrize("surface,words,seed,mixed", REPEATED)
def test_repeated_summands_split_through_a_word(request, torus_algebra,
                                                traced, surface, words,
                                                seed, mixed):
    # on M + M every endomorphism acts as X (x) id_M modulo the radical;
    # the trace pairing through the word module M has rank 2, on every
    # seed: each word of the sum is paired with the piece once, and no
    # rest is formed
    A, parts, M = repeated_sum(request, torus_algebra, surface, words)
    assert (len(set(parts)) > 1) == mixed
    copies = sorted(parts.count(x) for x in set(parts))
    for k in range(seed, seed + 8):
        N = conjugate(A, M, random_glpoint(random.Random(k), M.dims, 3))
        traced["paired"].clear()
        assert labels(decompose(A, N)) == labels(parts), k
        assert {id(p) for p, _ in traced["paired"]} == {id(N)}, k
        assert sorted(m for _, m in traced["paired"] if m) == copies, k


# ---------------------------------------------------------------------------
# the word table


def test_word_table_lives_on_the_algebra():
    path = os.path.join(GOLDEN, "torus_quiver.json")
    A, B = load_algebra(path), load_algebra(path)
    assert A == B and A is not B
    d = (2, 1, 1, 0)
    for Z in components(A, d):
        schemes.canonical_decomposition(A, Z)
    table = _word_table(A, d)
    assert A.__dict__["_word_tables"] == {d: table}
    assert _algebra_memo(A, "_word_tables")[d] is table
    assert schemes._algebra_memo is _algebra_memo
    # the generic search and decompose read the same table
    words = {w for ws in table.values() for w in ws}
    for Z in components(A, d):
        assert set(generic_multiset(A, Z)) <= words
    assert not B.__dict__.get("_word_tables")
    assert _word_table(B, d) == table
    assert _word_table(B, d) is not table
    # no module global holds a table or a memo
    for mod in (strings, schemes):
        assert not [k for k, v in vars(mod).items()
                    if isinstance(v, dict) and v and
                    any(v is m for m in A.__dict__.values())]
    ref = weakref.ref(A)
    del A, Z, table, words
    gc.collect()
    assert ref() is None


def test_word_table_is_the_dictionary_of_decompose(torus_algebra):
    A = torus_algebra
    d = (2, 2, 1, 1)
    table = _word_table(A, d)
    words = [w for ws in table.values() for w in ws]
    assert len(words) == len(set(words))
    assert set(words) == set(enumerate_strings(A, sum(d), d)
                             + enumerate_bands(A, sum(d), d))
    for shape, ws in table.items():
        # a shape fixes the string count: strings only or bands only
        count = sum(shape[:A.n]) - sum(shape[A.n:])
        assert {isinstance(w, BandWord) for w in ws} == {count == 0}
        assert count in (0, 1)
    # the table is complete: no longer word fits d
    assert set(words) == set(enumerate_strings(A, sum(d) + 3, d)
                             + enumerate_bands(A, sum(d) + 3, d))
    assert _word_table(A, d) is table


def test_a_word_sum_builds_no_word_table():
    # a word_sum is in a monomial basis, so one walk of its coefficient
    # quiver names every summand and no word table is built at all
    A = load_algebra(os.path.join(GOLDEN, "torus_quiver.json"))
    words = [C for C in enumerate_strings(A, 3) if len(C) == 2][:2] \
        + enumerate_bands(A, 4)[:1]
    M = word_sum(A, words)
    got = decompose(A, M)
    assert sorted(str(x[0] if isinstance(x, tuple) else x) for x in got) \
        == sorted(map(str, words))
    assert not A.__dict__.get("_word_tables")


# ---------------------------------------------------------------------------
# the words a caller names


def test_named_words_need_no_table_and_a_miss_reads_its_own_dims():
    """The generic point of the torus component at (2, 2, 2, 2) with the
    most summands, a repeated one among them: decomposed against its
    certified words it builds no word table; against no words at all,
    each piece that no walk reads is filled from the table of its own
    dims, never that of (2, 2, 2, 2).  Nothing fills without a table, so
    a support block that is a sum of words (M + M) reads the table of its
    own dims, which are no word's."""
    A = load_algebra(os.path.join(GOLDEN, "torus_quiver.json"))
    d = (2, 2, 2, 2)
    Z = max(components(A, d), key=lambda Z: len(generic_multiset(A, Z)))
    words = generic_multiset(A, Z)
    assert len(words) > len(set(words)) > 1
    M = schemes.generic_point(A, Z, seed=SEED)
    want = sorted(map(str, words))
    got = decompose(A, M, words=words)
    assert sorted(str(x[0] if isinstance(x, tuple) else x)
                  for x in got) == want
    assert not A.__dict__.get("_word_tables")
    got = decompose(A, M, words=[])
    assert sorted(str(x[0] if isinstance(x, tuple) else x)
                  for x in got) == want
    tables = set(A.__dict__["_word_tables"])
    assert tables and d not in tables
    shapes = [word_shape(A, w)[0] for w in words]
    sub_sums = {tuple(map(sum, zip(*sub))) for k in range(1, len(shapes))
                for sub in itertools.combinations(shapes, k)}
    assert tables <= sub_sums
    assert tables - set(shapes)


def test_a_conjugated_word_module_is_named_by_one_pairing(monkeypatch):
    # a word of the piece's own shape fills it with one copy: one pairing
    # of Hom(p, W) with Hom(W, p), two Hom systems in all
    A = load_algebra(os.path.join(GOLDEN, "torus_quiver.json"))
    C = max(enumerate_strings(A, 4), key=len)
    M = string_module(A, C)
    M = conjugate(A, M, random_glpoint(random.Random(SEED), M.dims, 3))
    assert strings._monomial_steps(A, M) is None
    calls = []
    hom_space = strings._hom_space

    def counted_hom_space(A, X, Y):
        calls.append((X, Y))
        return hom_space(A, X, Y)

    monkeypatch.setattr(strings, "_hom_space", counted_hom_space)
    assert decompose(A, M, words=[C]) == [C]
    (X, Y), (U, V) = calls
    assert X is V is M and Y is U is strings._word_rep(A, C)
