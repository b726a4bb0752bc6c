import pytest

from gentlelam import (BandWord, CurveSeq, DecoratedModule,
                       InconsistentSequence, InternalError,
                       InvalidLamination, InvalidTriangulation, StringWord,
                       Triangulation, band_module, band_to_curve, build_QT,
                       canonical_band, canonical_string, coefficient_quiver,
                       curve_to_module, decorated_g_vector, enumerate_bands,
                       enumerate_strings, eta, g_vector, generic_point,
                       int_zero, is_jacobian, make_lamination, rotate_tau,
                       shear_coordinates, shear_of_lamination, string_module,
                       string_to_curve, tau_string, validate_curve)
from lamgen import random_laminations

SIGMA = (3, 6, 1, 5, 4, 6, 2)


def test_triangulation_validation_errors():
    with pytest.raises(InvalidTriangulation):
        Triangulation((1,), ("b",), ((1, 1, "b"),))
    with pytest.raises(InvalidTriangulation):  # arc in three triangles
        Triangulation((1, 2), ("x", "y", "z"),
                      ((1, 2, "x"), (1, 2, "y"), (1, 2, "z")))


def test_pants_structure(pants):
    assert len(pants.marked_points()) == 3
    assert pants._cache["genus"] == 0
    assert pants._cache["boundary_count"] == 3


def test_pants_algebra(pants_algebra):
    A = pants_algebra
    assert A.n == 6
    assert len(A.quiver.arrows) == 9
    assert is_jacobian(A)
    arrow_pairs = {(s, t) for _, s, t in A.quiver.arrows}
    assert arrow_pairs == {(1, 2), (2, 6), (6, 1), (2, 3), (6, 3),
                           (3, 4), (4, 6), (4, 5), (1, 5)}
    assert len(A.relations) == 6


def test_hexagon_is_a3(hexagon):
    A = build_QT(hexagon)
    assert A.n == 3 and len(A.quiver.arrows) == 2
    assert not A.relations
    assert {(s, t) for _, s, t in A.quiver.arrows} == {(1, 2), (2, 3)}


def test_annulus_is_kronecker(annulus):
    A = build_QT(annulus)
    assert A.n == 2 and len(A.quiver.arrows) == 2
    assert {(s, t) for _, s, t in A.quiver.arrows} == {(1, 2)}
    assert not A.relations


def test_validate_curve_rejects_equal_consecutive(pants):
    with pytest.raises(InconsistentSequence):
        validate_curve(pants, "loop", (3, 3, 6))


def test_validate_curve_rejects_bools(pants):
    # True == 1 is in the set of arcs, but it is no arc
    with pytest.raises(InconsistentSequence):
        validate_curve(pants, "loop", (3, 6, True, 5, 4, 6, 2))
    with pytest.raises(InconsistentSequence):
        validate_curve(pants, "arc", arc=True)


def test_validate_curve_rejects_strangers(hexagon):
    with pytest.raises(InconsistentSequence):
        validate_curve(hexagon, "loop", (1, 3))  # arcs share no triangle


def test_arc_curve(pants):
    g = validate_curve(pants, "arc", arc=4)
    assert curve_to_module(pants, g) == ("neg", 4)


def test_sigma_band(pants, pants_algebra):
    sigma = validate_curve(pants, "loop", SIGMA)
    w = curve_to_module(pants, sigma)
    assert isinstance(w, BandWord) and len(w) == 7
    M = band_module(pants_algebra, w, 1)
    assert M.dims == (1, 1, 1, 1, 1, 2)


def test_sigma_coefficient_quiver(pants):
    sigma = validate_curve(pants, "loop", SIGMA)
    Q = coefficient_quiver(pants, sigma)
    assert Q.cyclic and Q.labels == SIGMA
    shape = {(f, t) for f, t, _ in Q.arrows}
    assert shape == {(2, 1), (2, 3), (3, 4), (5, 4), (5, 6), (7, 6), (7, 1)}


def test_single_crossing_coefficient_quiver(pants, pants_algebra):
    g = string_to_curve(pants, pants_algebra, StringWord((), 2))
    Q = coefficient_quiver(pants, g)
    assert Q.labels == (2,) and Q.arrows == () and not Q.cyclic


def test_two_crossing_coefficient_quiver(hexagon):
    A = build_QT(hexagon)
    g = string_to_curve(hexagon, A,
                        canonical_string(A, enumerate_strings(A, 1)[-1]))
    Q = coefficient_quiver(hexagon, g)
    assert len(Q.labels) == 2 and len(Q.arrows) == 1


def test_rotation_identity_on_loops(pants):
    sigma = validate_curve(pants, "loop", SIGMA)
    assert rotate_tau(pants, sigma, "forward") is sigma


def test_rotation_round_trip_on_arcs(pants, hexagon, annulus):
    for T in (pants, hexagon, annulus):
        for j in T.internal_arcs:
            g = CurveSeq("arc", arc=j)
            r = rotate_tau(T, g, "forward")
            back = rotate_tau(T, r, "backward")
            assert back.kind == "arc" and back.arc == j


def test_rotation_realizes_tau(pants, hexagon):
    for T in (pants, hexagon):
        A = build_QT(T)
        for C in enumerate_strings(A, 6):
            g = string_to_curve(T, A, C)
            t_comb = tau_string(A, C)
            r = rotate_tau(T, g, "forward")
            if t_comb is None:
                assert r.kind == "arc", str(C)
            else:
                w2 = curve_to_module(T, r)
                assert canonical_string(A, w2) == \
                    canonical_string(A, t_comb), str(C)


def test_backward_rotation_undoes_forward(pants, hexagon, annulus):
    # both endpoints of open curves, moved each way: only arcs were
    # rotated backward elsewhere
    seen = 0
    for T in (pants, hexagon, annulus):
        A = build_QT(T)
        for C in enumerate_strings(A, 10):
            g = string_to_curve(T, A, C)
            r = rotate_tau(T, g, "forward")
            if r.kind == "arc":
                continue  # a projective module
            back = rotate_tau(T, r, "backward")
            assert curve_to_module(T, back) == curve_to_module(T, g), str(C)
            seen += 1
    assert seen == 704 + 3 + 20


def test_rotation_checks_its_transitions(hexagon):
    from gentlelam.surface import _mk_open
    g = CurveSeq("arc", arc=1)
    r = rotate_tau(hexagon, g, "forward")
    P, Q = (hexagon.marked_of_marker(e) for e in r.endpoints)
    assert _mk_open(hexagon, r.crossings, r.transitions, P, Q) == r
    # a transition triangle that misses its crossing
    wrong = next(t for t in range(len(hexagon.triangles))
                 if r.crossings[0] not in hexagon.triangles[t])
    with pytest.raises(InternalError):
        _mk_open(hexagon, r.crossings, (wrong,) + r.transitions[1:], P, Q)
    with pytest.raises(InternalError):
        _mk_open(hexagon, r.crossings, r.transitions[1:], P, Q)


def test_projective_curve_lands_on_arc(hexagon):
    A = build_QT(hexagon)
    # tau-inverse of each arc is the curve of a projective
    for j in hexagon.internal_arcs:
        g = rotate_tau(hexagon, CurveSeq("arc", arc=j), "backward")
        assert rotate_tau(hexagon, g, "forward").arc == j


def test_shear_of_arcs(pants):
    for j in range(1, 7):
        want = tuple(1 if i == j - 1 else 0 for i in range(6))
        assert shear_coordinates(pants, CurveSeq("arc", arc=j)) == want


def test_shear_of_sigma(pants):
    sigma = validate_curve(pants, "loop", SIGMA)
    assert shear_coordinates(pants, sigma) == (0, -1, 1, -1, 1, 0)


def test_shear_linearity(pants, pants_algebra):
    p1 = validate_curve(pants, "loop", (6, 2, 3))
    L = make_lamination(pants, [(p1, 2), (CurveSeq("arc", arc=4), 1)])
    s1 = shear_coordinates(pants, p1)
    want = tuple(2 * a for a in s1)
    want = tuple(w + (1 if i == 3 else 0) for i, w in enumerate(want))
    assert shear_of_lamination(pants, L) == want


def test_shear_matches_g_vector_of_strings(pants, hexagon, annulus):
    from gentlelam import DecoratedModule, g_vector
    seen = 0
    for T in (pants, hexagon, annulus):
        A = build_QT(T)
        curves = [(string_to_curve(T, A, C), string_module(A, C))
                  for C in enumerate_strings(A, 10)]
        curves += [(band_to_curve(T, A, B), band_module(A, B, 2))
                   for B in enumerate_bands(A, 10)]
        for g, M in curves:
            gv = g_vector(A, DecoratedModule(M, (0,) * A.n))
            assert shear_coordinates(T, g) == gv, str(g)
        seen += len(curves)
    assert seen == 746


def test_int_zero_cases(pants, pants_algebra):
    arc3 = CurveSeq("arc", arc=3)
    arc4 = CurveSeq("arc", arc=4)
    sigma = validate_curve(pants, "loop", SIGMA)
    petal = validate_curve(pants, "loop", (6, 2, 3))
    assert int_zero(pants, arc3, arc4)
    assert int_zero(pants, petal, petal)
    assert not int_zero(pants, arc3, sigma)
    assert not int_zero(pants, sigma, sigma)
    # symmetry
    assert int_zero(pants, petal, arc4) == \
        int_zero(pants, arc4, petal)


def test_lamination_rejects_crossing(pants, pants_algebra):
    sigma = validate_curve(pants, "loop", SIGMA)
    with pytest.raises(InvalidLamination):
        make_lamination(pants, [(sigma, 1)])


def test_eta_of_arc_lamination(pants, pants_algebra):
    L = make_lamination(pants, [(CurveSeq("arc", arc=2), 1)])
    DZ = eta(pants, L)
    assert DZ.component.d == (0, 0, 0, 0, 0, 0)
    assert DZ.v == (0, 1, 0, 0, 0, 0)
    assert decorated_g_vector(pants_algebra, DZ) == (0, 1, 0, 0, 0, 0)


def test_eta_of_petals(pants, pants_algebra):
    p1 = validate_curve(pants, "loop", (6, 2, 3))
    p2 = validate_curve(pants, "loop", (1, 6, 4, 5))
    L = make_lamination(pants, [(p1, 1), (p2, 1)])
    DZ = eta(pants, L)
    assert DZ.component.d == (1, 1, 1, 1, 1, 2)
    assert decorated_g_vector(pants_algebra, DZ) == \
        shear_of_lamination(pants, L) == (0, -1, 1, -1, 1, 0)


def test_decorated_g_vector_is_that_of_a_generic_point(pants, pants_algebra):
    # the word route against the g-vector of sampled generic points, on
    # the laminations of acceptance criterion 5
    A = pants_algebra
    for k, L in enumerate(random_laminations(pants, A, 50, seed=123)):
        DZ = eta(pants, L)
        M = generic_point(A, DZ.component, k)
        assert decorated_g_vector(A, DZ) == \
            g_vector(A, DecoratedModule(M, DZ.v)), L


def test_word_curve_roundtrips(pants, pants_algebra):
    A = pants_algebra
    for C in enumerate_strings(A, 5)[::9]:
        g = string_to_curve(pants, A, C)
        w = curve_to_module(pants, g)
        assert canonical_string(A, w) == canonical_string(A, C)
    for B in enumerate_bands(A, 7):
        g = band_to_curve(pants, A, B)
        w = curve_to_module(pants, g)
        assert canonical_band(A, w) == canonical_band(A, B)


def test_backtrack_cancellation(hexagon):
    # crossing 1 then 2 then 1 with both transitions in the one shared
    # triangle is not minimal; the pair cancels once
    g = validate_curve(hexagon, "open", (2, 1, 2, 3),
                       ((("s3"), 0), (("s6"), 0)))
    assert (g.crossings, g.transitions) == ((2, 3), (1, 2, 3))


def test_torus_with_boundary_gives_two_cycle_algebra(torus_algebra):
    # one marked point on the single boundary of a genus-1 surface
    T = Triangulation((1, 2, 3, 4), ("s",),
                      ((2, 1, 3), (2, 1, 4), (4, 3, "s")))
    A = build_QT(T)
    assert is_jacobian(A)
    pairs = sorted((s, t) for _, s, t in A.quiver.arrows)
    want = sorted((s, t) for _, s, t in torus_algebra.quiver.arrows)
    assert pairs == want
    assert len(A.relations) == len(torus_algebra.relations) == 6


def test_lamination_merges_duplicates(pants, pants_algebra):
    arc = CurveSeq("arc", arc=5)
    L = make_lamination(pants, [(arc, 1), (CurveSeq("arc", arc=5), 2)])
    assert len(L.entries) == 1
    assert L.entries[0][1] == 3
