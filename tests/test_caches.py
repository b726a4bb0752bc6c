"""Objects built once and kept on the object they describe."""

from gentlelam import build_QT
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
