"""Which route certifies which isomorphism, counted rather than guessed:
word-shaped modules are matched by following arrows
(`strings._basis_matching`) and never reach the Hom system."""

from gentlelam import (decompose, enumerate_strings, iso_test, strings,
                       string_module, tau_dtr, tau_string)
from gentlelam.laurent import generic_decorated_module
from lamgen import random_laminations


def counted(monkeypatch, name, seen):
    """Patch strings.<name>, a function of (A, M, N), to append (M, its
    result) to `seen` on every call."""
    real = getattr(strings, name)

    def wrapper(A, M, N):
        got = real(A, M, N)
        seen.append((M, got))
        return got
    monkeypatch.setattr(strings, name, wrapper)


def test_tau_pairs_reduce_no_hom_system(torus_algebra, pants_algebra,
                                        monkeypatch):
    pairs = []
    for A in (torus_algebra, pants_algebra):
        for C in enumerate_strings(A, 5):
            W = tau_string(A, C)
            if W is not None:
                pairs.append((A, string_module(A, W),
                              tau_dtr(A, string_module(A, C))))
    calls = []
    counted(monkeypatch, "_hom_space", calls)
    assert all(iso_test(A, M, N) for A, M, N in pairs)
    assert len(pairs) == 237 and calls == []


def test_lamination_pieces_are_identified_by_the_walk(pants, pants_algebra,
                                                      monkeypatch):
    """`decompose` of the generic decorated modules of the 50 laminations
    pinned in tests/test_pinned_outputs.py: each piece of the support
    split is a word module, certified by one walk, and no point of a Hom
    system certifies anything."""
    A = pants_algebra
    walks, certificates = [], []
    counted(monkeypatch, "_basis_matching", walks)
    counted(monkeypatch, "_hom_certificate", certificates)
    pieces = 0
    for L in random_laminations(pants, A, 50, seed=123):
        pieces += len(decompose(A, generic_decorated_module(pants, L).module))
    found = [M for M, f in walks if f is not None]
    assert pieces == 79 and len(found) == pieces
    assert all(f is None for _, f in certificates)


def test_lamination_pieces_reduce_no_hom_system(pants, pants_algebra,
                                                monkeypatch):
    """A piece in a monomial basis that no walk matches to a candidate
    word is no word module (`strings._peel`): decomposing the same 50
    laminations reduces no Hom system at all."""
    A = pants_algebra
    calls = []
    counted(monkeypatch, "_hom_space", calls)
    for L in random_laminations(pants, A, 50, seed=123):
        decompose(A, generic_decorated_module(pants, L).module)
    assert len(calls) == 0
