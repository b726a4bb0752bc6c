"""Each linear system is reduced once: the forward pass gives ranks, one
back-substitution gives the reduced echelon form, and an isomorphism
certificate is one solution read off that form, never a Hom basis.

The echelon form is checked against a Fraction Gauss-Jordan reference,
every certificate is re-checked as a map, and the kernels and Hom bases
that read the echelon form are pinned.  The whole file takes about one
second."""

import hashlib
import random
from fractions import Fraction

from gentlelam import (band_module, enumerate_bands, enumerate_strings,
                       fileio, iso_test, string_module, tau_dtr, tau_string)
from gentlelam.exactlinalg import (_echelon, _kernel_point, is_invertible,
                                   nullspace, sparse_rank)
from gentlelam.homological import _paths_ending_at
from gentlelam.strings import _hom_certificate, conjugate, random_glpoint

from conftest import GOLDEN, assert_certificate, hom_basis, reference

SEED = 20


def entry(rng, density, fractions):
    if rng.random() >= density:
        return 0
    if fractions and rng.random() < 0.4:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rng.randint(-9, 9)


def matrices():
    """Seeded sparse and dense matrices with int and Fraction entries,
    some with duplicate and zero rows, then the edge cases."""
    rng = random.Random(SEED)
    for k in range(240):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        density = (0.2, 0.5, 0.95)[k % 3]
        mat = [[entry(rng, density, k % 2) for _ in range(n)]
               for _ in range(m)]
        if k % 5 == 0:
            mat.append(list(mat[rng.randrange(m)]))
        if k % 7 == 0:
            mat.insert(rng.randrange(m + 1), [0] * n)
        yield mat, n
    yield from [([], 3), ([[0, 0, 0]], 3), ([[0]], 1), ([[5]], 1),
                ([[-3]], 1), ([[Fraction(-2, 3)]], 1),
                ([[2, -4, 6], [2, -4, 6], [-1, 2, -3]], 3)]


def as_dicts(mat):
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def test_echelon_is_the_reduced_form_with_positive_pivots():
    for mat, n in matrices():
        want = reference(mat, n)
        for rows in (mat, as_dicts(mat), mat[::-1]):
            got = _echelon(rows)
            assert got == want, mat
            assert all(row[p] > 0 for p, row in got.items())


def test_rank_and_invertibility_read_the_forward_pass():
    for mat, n in matrices():
        rank = len(reference(mat, n))
        assert sparse_rank(mat) == sparse_rank(as_dicts(mat)) == rank
        square = all(len(row) == len(mat) for row in mat)
        assert is_invertible(mat) == (square and rank == len(mat)), mat


def test_kernel_points_solve_the_system():
    """Seeded values of the free unknowns, zeros among them: each point
    is in the kernel and is L t_f at every free column f."""
    rng = random.Random(SEED)
    for mat, n in matrices():
        ech = _echelon(mat)
        free = [f for f in range(n) if f not in ech]
        values = {f: rng.randint(-3, 3) for f in free}
        x = _kernel_point(ech, n, values)
        assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in mat)
        scale = {x[f] // t for f, t in values.items() if t}
        assert len(scale) <= 1 and all(s > 0 for s in scale), mat
        assert all(x[f] == 0 for f, t in values.items() if not t)


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_nullspace_and_hom_basis_vectors_are_pinned(torus_algebra):
    """Digests computed on the kernel that reduced every new pivot row
    against all others (Gauss-Jordan per row), whose echelon form had a
    pivot sign that depended on the order of the rows."""
    A = torus_algebra
    rng = random.Random(2020)
    kernels = []
    for k in range(300):
        m, n = rng.randint(0, 7), rng.randint(1, 8)
        mat = [[entry(rng, 0.5, True) for _ in range(n)] for _ in range(m)]
        if m and k % 3 == 0:
            mat.append(list(mat[0]))
        kernels.append(nullspace(mat, n))
    assert digest(kernels) == \
        "7b0607da382b0acd6aa62ba8cab7c43d6e406514490c47ea91fca159d40882f1"
    mods = [string_module(A, C) for C in enumerate_strings(A, 3)] + \
        [band_module(A, B, 2) for B in enumerate_bands(A, 4)]
    mods += [conjugate(A, M, random_glpoint(rng, M.dims)) for M in mods[::5]]
    assert digest([hom_basis(A, M, N) for M in mods for N in mods]) == \
        "22879f632f86d7538cd90ffba146867bfb419df09da8fa576796569e91537977"


def test_certificates_of_conjugated_word_modules(torus_algebra,
                                                 pants_algebra):
    rng = random.Random(SEED)
    for A in (torus_algebra, pants_algebra):
        words = [string_module(A, C) for C in enumerate_strings(A, 4)]
        words += [band_module(A, B, lam) for B in enumerate_bands(A, 6)
                  for lam in (1, -2, Fraction(3, 2))]
        for M in words[::3]:
            N = conjugate(A, M, random_glpoint(rng, M.dims))
            assert_certificate(A, M, N, _hom_certificate(A, M, N))


def test_certificates_of_tau_string_against_tau_dtr(torus_algebra,
                                                    pants_algebra):
    for A in (torus_algebra, pants_algebra):
        for C in enumerate_strings(A, 5)[::4]:
            W = tau_string(A, C)
            N = tau_dtr(A, string_module(A, C))
            if W is None:
                assert N.dim() == 0
                continue
            M = string_module(A, W)
            assert M.dims == N.dims
            assert_certificate(A, M, N, _hom_certificate(A, M, N))


def test_bands_at_different_parameters_have_no_certificate(torus_algebra,
                                                           pants_algebra):
    """Equal dims and rank functions, not isomorphic."""
    for A in (torus_algebra, pants_algebra):
        bands = enumerate_bands(A, 6)
        assert bands
        for B in bands:
            M2, M3 = band_module(A, B, 2), band_module(A, B, 3)
            assert _hom_certificate(A, M2, M3) is None
            assert not iso_test(A, M2, M3)


def test_paths_ending_at_are_kept_on_their_own_algebra():
    path = f"{GOLDEN}/torus_quiver.json"
    A, B = fileio.load_algebra(path), fileio.load_algebra(path)
    for v in range(1, A.n + 1):
        got = _paths_ending_at(A, v)
        assert _paths_ending_at(A, v) is got
        assert _paths_ending_at(B, v) == got
        assert _paths_ending_at(B, v) is not got
    assert A.__dict__["_paths_ending_at"] is not \
        B.__dict__["_paths_ending_at"]
