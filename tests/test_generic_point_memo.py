"""The generic-point memo on an algebra holds one component's points."""

from gentlelam import (Triangulation, build_QT, canonical_decomposition,
                       ceh_values, components, generic_point)

DIMS = ((1, 1, 1, 1, 1, 1), (1, 0, 1, 1, 0, 1), (2, 1, 0, 1, 1, 0),
        (1, 1, 0, 0, 1, 1))


def fresh_pants_algebra():
    return build_QT(Triangulation(
        (1, 2, 3, 4, 5, 6), ("bA", "bB", "bC"),
        ((2, 1, 6), (4, 3, 6), (3, 2, "bB"), (5, 4, "bC"), (5, 1, "bA"))))


def test_memo_keeps_the_latest_component_only():
    A = fresh_pants_algebra()
    seen = 0
    for d in DIMS:
        for Z in components(A, d):
            ceh_values(A, Z, seed=4)
            memo = A.__dict__["_generic_points"]
            assert sorted(memo) == [(Z.d, Z.r, s) for s in (4, 5, 6)]
            seen += 1
    assert seen > len(DIMS)
    assert len(A.__dict__["_generic_points"]) <= 3


def test_canonical_decomposition_reuses_the_ceh_point():
    A = fresh_pants_algebra()
    for Z in components(A, DIMS[0]):
        ceh_values(A, Z, seed=2)
        M = generic_point(A, Z, 2)
        canonical_decomposition(A, Z, 6, seed=2)
        assert A.__dict__["_generic_points"][(Z.d, Z.r, 2)] is M
        assert len(A.__dict__["_generic_points"]) == 3
