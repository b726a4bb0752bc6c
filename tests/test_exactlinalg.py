"""The exact elimination behind rref, rank, nullspace, solve and inverse,
on seeded random rational matrices given both as dense rows and as
{col: value} rows."""

import random
from fractions import Fraction

import pytest

from gentlelam.errors import InternalError
from gentlelam.exactlinalg import (charpoly, identity, is_invertible,
                                   mat_inverse, mat_mul, nullspace,
                                   rational_roots, rref, solve, sparse_rank)

SEED = 31
SAMPLES = 400


def entry(rng):
    k = rng.random()
    if k < 0.4:
        return 0
    if k < 0.75:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def random_matrix(rng, m, n):
    """An m x n matrix, rank-deficient one time in three (a product
    through a smaller inner dimension), with some zero rows."""
    if rng.random() < 1 / 3:
        k = rng.randint(0, max(0, min(m, n) - 1))
        if k:
            mat = mat_mul([[entry(rng) for _ in range(k)] for _ in range(m)],
                          [[entry(rng) for _ in range(n)] for _ in range(k)])
        else:
            # the zero inner dimension: mat_mul cannot tell n from b
            mat = [[0] * n for _ in range(m)]
    else:
        mat = [[entry(rng) for _ in range(n)] for _ in range(m)]
    for i in range(m):
        if rng.random() < 0.1:
            mat[i] = [0] * n
    return mat


def sparse(mat):
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def matrices():
    rng = random.Random(SEED)
    out = [([], 0), ([], 3), ([[]], 0), ([[0, 0], [0, 0]], 2)]
    for _ in range(SAMPLES):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        out.append((random_matrix(rng, m, n), n))
    return out


def apply(mat, v):
    return [sum(x * y for x, y in zip(row, v)) for row in mat]


def test_rref_is_reduced_echelon_of_the_rows():
    for mat, n in matrices():
        red, pivots = rref(mat, n)
        assert (red, pivots) == rref(sparse(mat), n)
        assert pivots == sorted(set(pivots)) and len(red) == len(pivots)
        for i, (row, p) in enumerate(zip(red, pivots)):
            assert len(row) == n and all(type(x) is Fraction for x in row)
            assert row[p] == 1 and not any(row[:p])
            assert all(red[k][p] == 0 for k in range(len(red)) if k != i)
        for row in mat:
            w = [Fraction(x) for x in row]
            for r, p in zip(red, pivots):
                w = [x - w[p] * y for x, y in zip(w, r)]
            assert not any(w)


def test_nullspace_and_rank():
    for mat, n in matrices():
        _, pivots = rref(mat, n)
        basis = nullspace(mat, n)
        assert basis == nullspace(sparse(mat), n)
        assert len(pivots) + len(basis) == n
        for v in basis:
            assert len(v) == n and not any(apply(mat, v))
        assert sparse_rank(mat) == sparse_rank(sparse(mat)) == len(pivots)


def test_solve_exact_or_inconsistent():
    rng = random.Random(SEED + 1)
    inconsistent = 0
    for mat, n in matrices():
        if not mat:
            continue
        for rhs in (apply(mat, [entry(rng) for _ in range(n)]),
                    [entry(rng) for _ in mat]):
            x = solve(mat, rhs)
            if x is None:
                aug = [list(row) + [b] for row, b in zip(mat, rhs)]
                assert sparse_rank(aug) == sparse_rank(mat) + 1
                inconsistent += 1
            else:
                assert apply(mat, x) == rhs
    assert inconsistent > 10


def test_inverse_and_invertibility():
    rng = random.Random(SEED + 2)
    singular = 0
    for _ in range(SAMPLES):
        n = rng.randint(0, 6)
        mat = random_matrix(rng, n, n)
        if is_invertible(mat):
            assert sparse_rank(mat) == n
            assert mat_mul(mat_inverse(mat), mat) == identity(n)
        else:
            singular += 1
            assert sparse_rank(mat) < n
            with pytest.raises(ValueError):
                mat_inverse(mat)
    assert singular > 10
    assert not is_invertible([[1, 0]])
    assert mat_inverse([]) == [] and is_invertible([])


def test_mat_mul_through_empty_dimensions():
    # a with no rows: the empty product, whatever b is
    assert mat_mul([], []) == []
    assert mat_mul([], [[1, 2], [3, 4]]) == []
    # a zero column count is read off b's rows: (2 x 3)(3 x 0) is 2 x 0
    assert mat_mul([[1, 2, 3], [4, 5, 6]], [[], [], []]) == [[], []]
    # b with no rows says nothing of the product's column count
    for a in ([[], []], [[1, 2]]):
        with pytest.raises(InternalError):
            mat_mul(a, [])
    assert issubclass(InternalError, RuntimeError)
    assert not issubclass(InternalError, ValueError)  # not an input error


def block_diagonal(blocks):
    total = sum(len(b) for b in blocks)
    out = []
    off = 0
    for b in blocks:
        for row in b:
            out.append([0] * off + list(row) + [0] * (total - off - len(b)))
        off += len(b)
    return out


def test_block_diagonal_eigenvalues_are_the_blocks():
    rng = random.Random(SEED + 3)
    for _ in range(60):
        blocks = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 3)
            if rng.random() < 0.5:
                # triangular, so every eigenvalue is rational
                b = [[rng.randint(-2, 2) if j >= i else 0 for j in range(d)]
                     for i in range(d)]
            else:
                b = [[entry(rng) for _ in range(d)] for _ in range(d)]
            blocks.append(b)
        union = set()
        for b in blocks:
            union.update(rational_roots(charpoly(b)))
        assert set(rational_roots(charpoly(block_diagonal(blocks)))) == union


def poly_product(*factors):
    out = [1]
    for f in factors:
        new = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                new[i + j] += a * b
        out = new
    return out


def test_rational_roots_of_large_repeated_eigenvalues():
    # the constant of (x - r)^k is r^k: trial division up to its square
    # root would run for hours; the roots come from their digits instead
    big = 10 ** 12 + 39
    quad = [1, -1, -(10 ** 20 + 1)]  # discriminant 4 10^20 + 5
    cases = [
        (poly_product([1, -big], [1, -big], [1, -big], quad),
         [big] * 3),
        (poly_product([1, -17721], [1, -17721], quad, [1, 0]),
         [0, 17721, 17721]),
        (poly_product(quad, quad, [1, 0, 2]), []),
        (poly_product([1, -21965883698, -56481312731163321320], [1, 9]),
         [-2325188162, -9, 24291071860]),
        (poly_product([3, 7], [3, 7], [1, big], [5, -2 * big]),
         [-big, Fraction(-7, 3), Fraction(-7, 3), Fraction(2 * big, 5)]),
        (quad, []),
    ]
    for poly, roots in cases:
        assert rational_roots(poly) == roots
        assert rational_roots([Fraction(c, 7) for c in poly]) == roots
