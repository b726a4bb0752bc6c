"""Monomial modules read as their words off one coefficient-quiver walk
(`strings._monomial_labels`).

Every corpus module in a monomial basis is read as the labels that
`decompose` gave it when it still matched candidate words basis vector
by basis vector, and each label is re-checked by an invertible
intertwiner onto its module.  Bands at other parameters are told apart
with no Hom system; dense conjugates are read by no walk and go to the
Hom system.  The verdicts of `iso_test` on every pair of equal dimension
vectors of the corpus are pinned."""

import functools
import hashlib
import random
from fractions import Fraction

from gentlelam import (band_module, direct_sum, enumerate_bands,
                       enumerate_strings, iso_test, string_module, strings,
                       tau_dtr, tau_string)
from gentlelam.exactlinalg import identity
from gentlelam.strings import (_hom_certificate, _monomial_labels,
                               _monomial_steps, _word_rep, conjugate,
                               random_glpoint)

from conftest import assert_certificate, case_algebra

ALGEBRAS = ("torus_quiver", "pants", "hexagon", "annulus")
LAMS = (1, -2, Fraction(3, 2))
SCALARS = (1, -1, 2, Fraction(1, 3))
SEED = 27


def monomial_copy(A, M, rng):
    """M conjugated by a random permutation times scalars from SCALARS
    at every vertex: a monomial module isomorphic to M."""
    gs = []
    for d in M.dims:
        perm = list(range(d))
        rng.shuffle(perm)
        gs.append([[rng.choice(SCALARS) if perm[i] == j else 0
                    for j in range(d)] for i in range(d)])
    return conjugate(A, M, gs)


def inverse_parameter(B, lam):
    """The mu with M(B^-, mu) = M(B, lam).  The last step of `word_walk`
    carries the parameter, and B^- ends with the inverse of B's first
    letter, so mu = lam when the first and last letters of B point the
    same way, else 1/lam."""
    return lam if B.letters[0][1] == B.letters[-1][1] else 1 / Fraction(lam)


@functools.cache
def corpus():
    """Per algebra: the algebra and five lists of module pairs.

    - tau: (M(tau_string C), tau_dtr M(C)) for the strings C of length
      <= 6 with tau C nonzero;
    - copies: (M, monomial copy) for the strings of length <= 4 and the
      bands of length <= 6 at each parameter of LAMS;
    - inverses: (M(B, lam), M(B^-, `inverse_parameter`)) for those
      bands;
    - apart: (M(B, 2), M(B, 3)) for the bands of length <= 6;
    - dense: (M, conjugate by `random_glpoint`) for the word modules of
      copies with a space of dimension >= 2."""
    rng = random.Random(SEED)
    out = {}
    for name in ALGEBRAS:
        A = case_algebra(name)
        tau = []
        for C in enumerate_strings(A, 6):
            W = tau_string(A, C)
            if W is not None:
                tau.append((string_module(A, W),
                            tau_dtr(A, string_module(A, C))))
        bands = [(B, lam, band_module(A, B, lam))
                 for B in enumerate_bands(A, 6) for lam in LAMS]
        words = [string_module(A, C) for C in enumerate_strings(A, 4)]
        words += [M for _, _, M in bands]
        copies = [(M, monomial_copy(A, M, rng)) for M in words]
        inverses = [(M, band_module(A, B.inverse(),
                                    inverse_parameter(B, lam)))
                    for B, lam, M in bands]
        apart = [(band_module(A, B, 2), band_module(A, B, 3))
                 for B in enumerate_bands(A, 6)]
        dense = [(M, conjugate(A, M, random_glpoint(rng, M.dims)))
                 for M in words if max(M.dims) > 1]
        out[name] = (A, {"tau": tau, "copies": copies, "inverses": inverses,
                         "apart": apart, "dense": dense})
    return out


def pairs(group):
    for A, groups in corpus().values():
        for M, N in groups[group]:
            yield A, M, N


def modules():
    """Every module of the corpus with its algebra, in corpus order."""
    for A, groups in corpus().values():
        for pairs_ in groups.values():
            for pair in pairs_:
                for M in pair:
                    yield A, M


@functools.cache
def walk_labels():
    """(algebra, module, labels) for the corpus modules in a monomial
    basis."""
    return [(A, M, _monomial_labels(A, M)) for A, M in modules()
            if _monomial_steps(A, M) is not None]


def test_monomial_modules_are_read_as_their_old_decomposition():
    """Pinned on commit edb7252, where `decompose` named each of these
    pieces by matching it against the word modules of its shape."""
    labels = [got for _, _, got in walk_labels()]
    assert (len(labels), sum(map(len, labels))) == (1354, 1354)
    assert hashlib.sha256(repr(labels).encode()).hexdigest() == \
        "36e5ad5729b320944b8f60b3a75c8dfc120398fc125b615319231bad2ad89cd0"


def test_each_walk_label_is_certified_onto_its_module():
    """A module that is the module of its labels, entry for entry, is
    certified by the identity; every other one by a point of its Hom
    system."""
    solved = 0
    for A, M, labels in walk_labels():
        W = direct_sum(A, [_word_rep(A, *x) if isinstance(x, tuple)
                           else _word_rep(A, x) for x in labels])
        if W == M:
            f = [identity(d) for d in M.dims]
        else:
            f = _hom_certificate(A, M, W)
            solved += 1
        assert_certificate(A, M, W, f)
    assert solved == 540


def test_bands_and_their_inverses_read_their_own_parameter():
    count = 0
    for A, groups in corpus().values():
        params = [(B, lam) for B in enumerate_bands(A, 6) for lam in LAMS]
        for (B, lam), pair in zip(params, groups["inverses"]):
            for M in pair:
                assert _monomial_labels(A, M) == [(B, lam)]
                count += 1
    assert count == 2 * 30


def test_tau_pairs_are_matched_by_following_arrows():
    count = 0
    for A, M, N in pairs("tau"):
        assert _monomial_labels(A, M) == _monomial_labels(A, N)
        assert iso_test(A, M, N)
        count += 1
    assert count == 401


def test_monomial_copies_and_inverse_bands_are_matched():
    count = 0
    for group in ("copies", "inverses"):
        for A, M, N in pairs(group):
            assert _monomial_labels(A, M) == _monomial_labels(A, N)
            assert iso_test(A, M, N) and iso_test(A, N, M)
            count += 1
    assert count == 195 + 30


def test_bands_at_other_parameters_are_not_matched(monkeypatch):
    """Told apart by their labels: no Hom system is reduced."""
    calls = []
    hom_space = strings._hom_space

    def counted_hom_space(A, M, N):
        calls.append(M)
        return hom_space(A, M, N)

    monkeypatch.setattr(strings, "_hom_space", counted_hom_space)
    count = 0
    for A, M, N in pairs("apart"):
        assert _monomial_labels(A, M) != _monomial_labels(A, N)
        assert not iso_test(A, M, N)
        count += 1
    assert count == 10 and calls == []


def test_dense_conjugates_fall_back_to_the_hom_system():
    count = 0
    for A, M, N in pairs("dense"):
        if _monomial_steps(A, N) is not None:
            continue  # a conjugate that stayed monomial
        assert _monomial_labels(A, N) is None
        assert_certificate(A, M, N, _hom_certificate(A, M, N))
        count += 1
    assert count == 80


def test_iso_test_verdicts_are_pinned():
    """Pinned on commit 122f5a9, before any walk: `iso_test` on every
    pair of modules of equal dimension vectors among all the corpus's
    modules of one algebra, in corpus order."""
    verdicts = []
    for A, groups in corpus().values():
        mods = [M for pairs_ in groups.values() for pair in pairs_
                for M in pair]
        verdicts += [iso_test(A, M, N) for i, M in enumerate(mods)
                     for N in mods[i + 1:] if M.dims == N.dims]
    assert (len(verdicts), sum(verdicts)) == (7677, 1535)
    assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == \
        "8d4b0c6debd4c956c216df63b23a9fb9be7a8521080b5be07f0b253f0fd2a01b"
