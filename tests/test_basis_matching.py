"""Isomorphisms between monomial modules, read by following arrows
(`strings._basis_matching`).

Every map the walk returns is re-checked as a certificate; pairs the walk
must not match (bands at other parameters, dense conjugates) get None,
and the Hom-system route still certifies the dense ones.  The verdicts
of `iso_test` on every pair of equal dimension vectors of the corpus
are pinned.  The whole file takes about four seconds."""

import functools
import hashlib
import random
from fractions import Fraction

from gentlelam import (band_module, enumerate_bands, enumerate_strings,
                       iso_test, string_module, tau_dtr, tau_string)
from gentlelam.strings import (_basis_matching, _monomial_steps, conjugate,
                               random_glpoint)

from conftest import assert_certificate, case_algebra, invertible_hom

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


def test_tau_pairs_are_matched_by_following_arrows():
    count = 0
    for A, M, N in pairs("tau"):
        assert_certificate(A, M, N, _basis_matching(A, M, N))
        count += 1
    assert count == 401


def test_monomial_copies_and_inverse_bands_are_matched():
    count = 0
    for group in ("copies", "inverses"):
        for A, M, N in pairs(group):
            assert_certificate(A, M, N, _basis_matching(A, M, N))
            assert_certificate(A, N, M, _basis_matching(A, N, M))
            count += 1
    assert count == 195 + 30


def test_bands_at_other_parameters_are_not_matched():
    count = 0
    for A, M, N in pairs("apart"):
        assert _basis_matching(A, M, N) is None
        assert not iso_test(A, M, N)
        count += 1
    assert count == 10


def test_dense_conjugates_fall_back_to_the_hom_system():
    count = 0
    for A, M, N in pairs("dense"):
        if _monomial_steps(A, N) is not None:
            continue  # a conjugate that stayed monomial
        assert _basis_matching(A, M, N) is None
        assert _basis_matching(A, N, M) is None
        assert_certificate(A, M, N, invertible_hom(A, M, N))
        count += 1
    assert count == 80


def test_iso_test_verdicts_are_pinned():
    """Pinned on commit 122f5a9, before the walk: `iso_test` on every
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
