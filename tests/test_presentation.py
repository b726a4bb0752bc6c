"""The minimal presentation against its definitions.

Ext^1 from the long exact sequence is checked against the restriction
route: Hom(Omega M, N) modulo the restrictions of a basis of
Hom(P0, N).  The tops of M and of Omega are checked against the rank
of the radical at each vertex."""

import random

import pytest

from gentlelam import (BandWord, DecoratedModule, band_module, direct_sum,
                       e_invariant, enumerate_bands, enumerate_strings,
                       ext1_dim, g_vector, homological,
                       min_proj_presentation, string_module, tau_dtr)
from gentlelam.exactlinalg import sparse_rank
from gentlelam.homological import _g_of_presentation, projective_rep
from gentlelam.strings import _subrep, hom_dim

from conftest import hom_basis

ALGEBRAS = ("torus_algebra", "pants_algebra", "double_loop", "a3_relation")
# the Hom corpora of criteria 3a and 3d: algebra and word length cap
CORPORA = (("torus_algebra", 5), ("a3_relation", 8), ("pants_algebra", 5))


def modules(A, max_len):
    out = []
    for w in enumerate_strings(A, max_len) + enumerate_bands(A, max_len):
        out.append(band_module(A, w, 2) if isinstance(w, BandWord)
                   else string_module(A, w))
    return out


def images(mat, vecs):
    """mat * vec for each vector, as dense rows."""
    return [[sum(x * y for x, y in zip(row, vec)) for row in mat]
            for vec in vecs]


def restriction_ext1(A, M, N):
    """dim Hom(Omega, N) minus the rank of F |-> F|_Omega on a basis of
    Hom(P0, N), the images of Omega's bases in the omega bases' order."""
    pres = min_proj_presentation(A, M)
    omega = _subrep(A, pres.p0, pres.omega_bases)
    if omega.dim() == 0:
        return 0
    rows = []
    for F in hom_basis(A, pres.p0, N):
        row = []
        for v in range(A.n):
            for img in images(F[v], pres.omega_bases[v]):
                row += img
        rows.append(row)
    return hom_dim(A, omega, N) - sparse_rank(rows)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_ext1_matches_the_restriction_route(request, name):
    A = request.getfixturevalue(name)
    mods = modules(A, 2 if name == "a3_relation" else 3)
    for M in mods:
        for N in mods:
            assert ext1_dim(A, M, N) == restriction_ext1(A, M, N)


def rad_rows(A, mats, bases, v):
    """Images of the bases under the arrows into vertex v (0-based)."""
    rows = []
    for aid in A.quiver.arrows_into(v + 1):
        rows += images(mats[aid], bases[A.s(aid) - 1])
    return rows


@pytest.mark.parametrize("name", ALGEBRAS)
def test_tops_complete_the_radical(request, name):
    A = request.getfixturevalue(name)
    for M in modules(A, 6):
        pres = min_proj_presentation(A, M)
        units = [[[int(i == j) for j in range(d)] for i in range(d)]
                 for d in M.dims]
        omega = pres.omega_bases
        for v in range(A.n):
            assert pres.n_vec[v] == M.dims[v] - sparse_rank(
                rad_rows(A, M.mats, units, v))
            rad = rad_rows(A, pres.p0.mats, omega, v)
            tops = [vec for u, vec in pres.omega_tops if u == v + 1]
            assert pres.m_vec[v] == len(tops) == \
                len(omega[v]) - sparse_rank(rad)
            assert sparse_rank(omega[v] + tops) == len(omega[v])
            assert sparse_rank(rad + tops) == len(omega[v])


@pytest.mark.parametrize("name,cap", CORPORA)
def test_p0_is_shared_by_equal_tops(request, name, cap):
    A = request.getfixturevalue(name)
    mods = modules(A, cap)
    first = {}
    for M in mods:
        pres = min_proj_presentation(A, M)
        same = first.setdefault(pres.n_vec, pres)
        assert pres.p0 is same.p0
        assert pres.p0 == direct_sum(
            A, [projective_rep(A, v)[0] for v, _ in pres.p0_copies])
    assert len(first) < len(mods)
    sample = random.Random(3).sample(mods, min(10, len(mods)))

    def g_of_presentation(A, M):
        return _g_of_presentation(min_proj_presentation(A, M), (0,) * A.n)

    def outputs(cold):
        def run(f, *args):
            if cold:  # build every P0 afresh
                A.__dict__.pop("_p0s", None)
            return f(A, *args)
        return ([run(g_of_presentation, M) for M in sample],
                [run(tau_dtr, M) for M in sample],
                [run(ext1_dim, M, N) for M in sample for N in sample])

    assert outputs(cold=False) == outputs(cold=True)


def test_e_invariant_reads_one_presentation(request, monkeypatch):
    """The sample of criterion 3d, against the two-presentation route
    (tau_dtr for Hom(N, tau M), g_vector for the dual expression)."""
    rng = random.Random(5)
    calls = []
    real = homological.min_proj_presentation
    monkeypatch.setattr(homological, "min_proj_presentation",
                        lambda A, M: calls.append(M) or real(A, M))
    for name, cap in CORPORA:
        A = request.getfixturevalue(name)
        words = enumerate_strings(A, cap) + enumerate_bands(A, cap)
        sample = [rng.choice(words) for _ in range(16)]
        mods = {w: band_module(A, w, 1) if isinstance(w, BandWord)
                else string_module(A, w) for w in sample}
        z = (0,) * A.n
        for X in sample:
            M = mods[X]
            tau = tau_dtr(A, M)
            g = g_vector(A, M)
            for Y in sample:
                N = mods[Y]
                want = hom_dim(A, N, tau)
                assert want == hom_dim(A, M, N) + sum(
                    gi * di for gi, di in zip(g, N.dims))
                del calls[:]
                got = e_invariant(A, DecoratedModule(M, z),
                                  DecoratedModule(N, z))
                assert len(calls) == 1
                assert got == want, (name, str(X), str(Y))
