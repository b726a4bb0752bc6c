"""Each end of an open curve is the triangle corner opposite its end
crossing: rotation and shear read it there, and `validate_curve` rejects
an open curve whose endpoint is any other point.  Rotation is checked
against tau, and shear against the g-vector, on random surfaces of
`tests/surfgen.py`, many of which have a marked point with two corners
in one triangle."""

import hashlib

import pytest

from gentlelam import (CurveSeq, DecoratedModule, InternalError,
                       InvalidTriangulation, NotLocallyMinimal, StringWord,
                       Triangulation, band_to_curve, build_QT,
                       canonical_string, curve_to_module, decorated_g_vector,
                       enumerate_bands, enumerate_strings, eta, g_vector,
                       rotate_tau, shear_coordinates, shear_of_lamination,
                       string_module, string_to_curve, tau_string,
                       validate_curve)
from gentlelam.laurent import verify_bangle_equals_generic
from gentlelam.strings import parse_word
from gentlelam.surface import _mk_open
from lamgen import random_laminations
from surfgen import gluings

# The forward and backward rotations and the shear of the arcs, the
# strings of length <= 11 and the bands of length <= 12 on the pants,
# the hexagon and the annulus, hashed before rotation read curve ends
# off their corners.
GOLDEN_CURVES = 1073
GOLDEN_CURVES_DIGEST = \
    "176e022b38a1c2726ca3df7176296547c26a208942f819126c90835d15968aeb"


def _fields(g):
    return (g.kind, g.arc, g.crossings, g.endpoints, g.transitions)


def test_golden_curves_are_pinned(pants, hexagon, annulus):
    """About 0.1 s."""
    digest, count = hashlib.sha256(), 0
    for name, T in (("pants", pants), ("hexagon", hexagon),
                    ("annulus", annulus)):
        A = build_QT(T)
        curves = [CurveSeq("arc", arc=j) for j in T.internal_arcs]
        curves += [string_to_curve(T, A, C) for C in enumerate_strings(A, 11)]
        curves += [band_to_curve(T, A, B) for B in enumerate_bands(A, 12)]
        for g in curves:
            row = (name, str(g), _fields(rotate_tau(T, g, "forward")),
                   _fields(rotate_tau(T, g, "backward")),
                   shear_coordinates(T, g))
            digest.update(repr(row).encode() + b"\n")
            count += 1
    assert count == GOLDEN_CURVES
    assert digest.hexdigest() == GOLDEN_CURVES_DIGEST


def _repeated_corner(T):
    """Whether some marked point has two corners in one triangle."""
    return any(len({t for t, _ in corners}) < len(corners)
               for _, corners in map(T.fan, T.marked_points()))


def _random_surfaces():
    """Up to three accepted surfaces with an arc per (genus, boundary
    count, arc count, marked point count) among the 10,000 draws of
    `tests/surfgen.py` seed 1, in draw order."""
    out, per_type = [], {}
    for arcs, bnds, tris in gluings(1, 10_000):
        if not arcs:
            continue
        try:
            T = Triangulation(arcs, bnds, tris)
        except InvalidTriangulation:
            continue
        kind = (T._cache["genus"], T._cache["boundary_count"], len(arcs),
                len(T.marked_points()))
        if per_type.get(kind, 0) < 3:
            per_type[kind] = per_type.get(kind, 0) + 1
            out.append(T)
    return out


@pytest.fixture(scope="module")
def surfaces():
    return _random_surfaces()


def test_random_surfaces(surfaces):
    assert len(surfaces) == 51
    assert sum(map(_repeated_corner, surfaces)) == 33
    assert sum(T._cache["genus"] == 1 for T in surfaces) == 15


# The forward and backward rotations of every arc of the 51 surfaces,
# hashed before rotation read curve ends off their corners.  65 of the
# 234 arcs have both ends at one marked point, where the order of the
# two ends picks the direction the rotated arc is read in.
RANDOM_ARCS_DIGEST = \
    "011d591cd895a60196e514e3f10745e3a35833fb95993ef181dca3fd94470e94"


def test_rotated_arcs_of_random_surfaces_are_pinned(surfaces):
    digest = hashlib.sha256()
    for T in surfaces:
        for j in T.internal_arcs:
            g = CurveSeq("arc", arc=j)
            row = (T.triangles, j, _fields(rotate_tau(T, g, "forward")),
                   _fields(rotate_tau(T, g, "backward")))
            digest.update(repr(row).encode() + b"\n")
    assert digest.hexdigest() == RANDOM_ARCS_DIGEST


def test_rotation_is_tau_on_random_surfaces(surfaces):
    """Every string of length <= 4 on the 51 surfaces; about 1.5 s."""
    seen = 0
    for T in surfaces:
        A = build_QT(T)
        for C in enumerate_strings(A, 4):
            g = string_to_curve(T, A, C)
            where = (T.triangles, str(C))
            gv = g_vector(A, DecoratedModule(string_module(A, C),
                                             (0,) * A.n))
            assert shear_coordinates(T, g) == gv, where
            r = rotate_tau(T, g, "forward")
            tau = tau_string(A, C)
            if tau is None:
                # a projective lands on the arc i with g = -e_i
                assert r.kind == "arc", where
                assert gv == tuple(-(i == r.arc) for i in range(1, A.n + 1))
            else:
                assert canonical_string(A, curve_to_module(T, r)) == \
                    canonical_string(A, tau), where
            back = rotate_tau(T, r, "backward")
            assert curve_to_module(T, back) == C, where
            seen += 1
    assert seen == 2459


def test_laminations_on_random_surfaces(surfaces):
    """Five laminations on each surface with 2-6 arcs, drawn by
    `tests/lamgen.py` (through `rotate_tau`); about 5 s."""
    drawn = 0
    for T in surfaces:
        A = build_QT(T)
        if not 2 <= A.n <= 6:
            continue
        shears = set()
        for L in random_laminations(T, A, 5, seed=1):
            DZ = eta(T, L)
            s = shear_of_lamination(T, L)
            assert decorated_g_vector(A, DZ) == s, \
                (T.triangles, L)
            assert verify_bangle_equals_generic(T, L)[0], (T.triangles, L)
            shears.add(s)
        assert len(shears) == 5, T.triangles
        drawn += 5
    assert drawn == 195


def test_rotation_at_a_repeated_corner():
    # an annulus whose rotated curve of t0:2>3 gave 1@4 when the end
    # corner was guessed from the marked point
    T = Triangulation((1, 2, 3, 4), ("b22", "b10", "b30", "b21"),
                      ((2, 1, 3), ("b10", 1, 4), (2, "b21", "b22"),
                       ("b30", 4, 3)))
    A = build_QT(T)
    C = StringWord(parse_word("t0:2>3"))
    r = rotate_tau(T, string_to_curve(T, A, C), "forward")
    assert str(curve_to_module(T, r)) == str(tau_string(A, C)) == "t3:3>4"


def test_endpoints_off_the_opposite_corner_are_rejected(pants, hexagon):
    # (s5, 0) is marked point (3, 0), an endpoint of arc 3: the curve
    # leaves arc 3 towards it, not through the opposite side
    with pytest.raises(NotLocallyMinimal, match="opposite it"):
        validate_curve(hexagon, "open", (2, 1, 2, 3), (("s3", 0), ("s5", 0)))
    # a curve crossing arc 1 once has ends in its two triangles, whose
    # opposite corners are two different marked points
    with pytest.raises(NotLocallyMinimal, match="opposite it"):
        validate_curve(pants, "open", (1,), (("bA", 0), ("bA", 0)))


def test_rotation_builds_curves_that_end_where_they_should(hexagon):
    r = rotate_tau(hexagon, CurveSeq("arc", arc=1), "forward")
    P, Q = (hexagon.marked_of_marker(e) for e in r.endpoints)
    assert P != Q
    with pytest.raises(InternalError, match="ends at"):
        _mk_open(hexagon, r.crossings, r.transitions, Q, P)
