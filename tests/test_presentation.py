"""The minimal presentation against its definitions.

Ext^1 from the long exact sequence is checked against the restriction
route: Hom(Omega M, N) modulo the restrictions of a basis of
Hom(P0, N).  The tops of M and of Omega are checked against the rank
of the radical at each vertex."""

import pytest

from gentlelam import (BandWord, band_module, enumerate_bands,
                       enumerate_strings, ext1_dim, min_proj_presentation,
                       string_module)
from gentlelam.exactlinalg import sparse_rank
from gentlelam.strings import _subrep, hom_basis, hom_dim

ALGEBRAS = ("torus_algebra", "pants_algebra", "double_loop", "a3_relation")


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
