"""Which route names which module, counted rather than guessed: word
modules in a monomial basis are read off one walk of their coefficient
quiver (`strings._monomial_labels`) and never reach the support split,
a word table, a band-parameter search or the Hom system."""

from gentlelam import (decompose, enumerate_strings, iso_test, strings,
                       string_module, tau_dtr, tau_string)
from gentlelam.laurent import generic_decorated_module
from lamgen import random_laminations


def counted(monkeypatch, name, seen):
    """Patch strings.<name>, a function of (A, X, ...), to append (X, its
    result) to `seen` on every call."""
    real = getattr(strings, name)

    def wrapper(A, X, *rest):
        got = real(A, X, *rest)
        seen.append((X, got))
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
    pinned in tests/test_pinned_outputs.py: each module is read whole by
    one walk, which names all of its pieces, and it is neither split
    along its support nor peeled."""
    A = pants_algebra
    walks, splits, peels = [], [], []
    counted(monkeypatch, "_monomial_labels", walks)
    counted(monkeypatch, "_support_split", splits)
    counted(monkeypatch, "_peel", peels)
    pieces = 0
    for L in random_laminations(pants, A, 50, seed=123):
        pieces += len(decompose(A, generic_decorated_module(pants, L).module))
    # 12 of the 50 modules are 0, read as no piece
    assert pieces == 79 and len(walks) == 50
    assert sum(len(labels) for _, labels in walks) == pieces
    assert splits == peels == []


def test_lamination_pieces_reduce_no_hom_system(pants, pants_algebra,
                                                monkeypatch):
    """Decomposing the same 50 laminations builds no word table, searches
    no band parameter and reduces no Hom system at all."""
    A = pants_algebra
    calls, searches, tables = [], [], []
    counted(monkeypatch, "_hom_space", calls)
    counted(monkeypatch, "band_lambda_candidates", searches)
    counted(monkeypatch, "_word_table", tables)
    for L in random_laminations(pants, A, 50, seed=123):
        decompose(A, generic_decorated_module(pants, L).module)
    assert calls == searches == tables == []
