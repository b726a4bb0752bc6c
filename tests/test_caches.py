"""Objects built once and kept on the object they describe."""

from gentlelam import (Quiver, build_QT, components, generic_point,
                       rho_blocks, validate_gentle)
from gentlelam.homological import projective_rep


def test_algebra_kept_on_triangulation(pants, annulus):
    A = build_QT(pants)
    assert build_QT(pants) is A
    assert build_QT(annulus) is not A


def test_projectives_kept_on_algebra(pants_algebra, torus_algebra):
    for A in (pants_algebra, torus_algebra):
        for i in range(1, A.n + 1):
            assert projective_rep(A, i) is projective_rep(A, i)
    assert projective_rep(pants_algebra, 1) is not \
        projective_rep(torus_algebra, 1)


def test_blocks_kept_on_algebra(pants_algebra):
    blocks = rho_blocks(pants_algebra)
    assert isinstance(blocks, tuple)
    assert rho_blocks(pants_algebra) is blocks
    # equal algebras are distinct objects, each with its own blocks
    q = Quiver(3, (("a", 2, 1), ("b", 3, 2)))
    A, B = (validate_gentle(q, [("a", "b")]) for _ in range(2))
    assert A == B
    assert rho_blocks(A) == rho_blocks(B)
    assert rho_blocks(A) is not rho_blocks(B)


def test_generic_points_kept_on_algebra(pants_algebra):
    A = pants_algebra
    Z = components(A, (1, 1, 1, 1, 1, 1))[0]
    M = generic_point(A, Z, 4)
    assert generic_point(A, Z, 4) is M
    assert generic_point(A, Z, 5) is not M
    assert generic_point(A, Z, 5) is generic_point(A, Z, 5)


def test_fresh_algebra_starts_with_empty_generic_point_memo():
    q = Quiver(3, (("a", 2, 1), ("b", 3, 2)))
    A, B = (validate_gentle(q, [("a", "b")]) for _ in range(2))
    assert not A.__dict__.get("_generic_points")
    Z = components(A, (1, 1, 1))[0]
    M = generic_point(A, Z, 0)
    assert len(A.__dict__["_generic_points"]) == 1
    # an equal algebra is a distinct object with its own memo
    assert not B.__dict__.get("_generic_points")
    assert generic_point(B, Z, 0) is not M
    assert generic_point(B, Z, 0) == M
