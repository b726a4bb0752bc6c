"""Pins of the two places where a closed word is read as an open one
around its cycle: `validate_curve` (with the shear of what it accepts)
on seeded crossing sequences, and `standard_homs` on every ordered pair
of short strings and bands.  `tests/test_word_lookups.py` checks
`standard_homs` against a reference that shares its factor generator,
so these digests, taken before loops and bands were read that way, are
what hold the factors and the transitions fixed."""

import hashlib
import random

from conftest import case_algebra
from gentlelam import (InputError, InvalidTriangulation, Triangulation,
                       enumerate_bands, enumerate_strings, shear_coordinates,
                       standard_homs, validate_curve)
from gentlelam.surface import _end_corner
from surfgen import gluings

CURVE_INPUTS = 18_300
CURVE_DIGEST = \
    "ca630b1f2da80dc722bdb34da3872dc54259e35d85e8e70b9047bc328c64ea38"
HOMS = 31_306
HOMS_DIGEST = \
    "6125e1b6290e252be50cfe694125b0bc3333d59897893b5c3ff0b16a91937043"


def _surfaces(pants, hexagon, annulus, count):
    """The three golden surfaces, then the first accepted gluings of
    `tests/surfgen.py` seed 1 with at least one arc, `count` in all."""
    out = [pants, hexagon, annulus]
    for arcs, bnds, tris in gluings(1, 10_000):
        if len(out) == count:
            break
        try:
            T = Triangulation(arcs, bnds, tris)
        except InvalidTriangulation:
            continue
        if T.internal_arcs:
            out.append(T)
    return out


def _walk(T, rng, steps, inside):
    """Crossings of a random walk across arcs from a random side of a
    random arc, up to `steps` of them or until it meets the boundary, and
    the triangle before each crossing and after the last.  An `inside`
    walk leaves each triangle through an arc where it has one."""
    x = rng.choice(T.internal_arcs)
    t = rng.choice(T.triangles_at_arc(x))
    crossings, tris = [], [t]
    for _ in range(steps):
        crossings.append(x)
        ts = T.triangles_at_arc(x)
        t = ts[1] if ts[0] == t else ts[0]
        tris.append(t)
        sides = [e for e in T.triangles[t] if e != x] or [x]
        x = rng.choice([e for e in sides if isinstance(e, int)] if inside
                       and any(isinstance(e, int) for e in sides) else sides)
        if not isinstance(x, int):
            break
    return crossings, tris


def _input(T, rng):
    """One (kind, crossings, endpoints, arc) draw: open walks ending at
    the opposite corners or at random marked points, closed walks and
    their rotations, walks with a backtrack or a repeat put in, arcs, and
    bad arcs, kinds, markers and marker counts."""
    n = len(T.internal_arcs)
    markers = [T.marker_of_marked(P) for P in T.marked_points()]
    r = rng.random()
    crossings, tris = _walk(T, rng, rng.randint(1, 10), 0.4 <= r < 0.65)
    ends = [T.marker_of_marked(T._corner(_end_corner(T, tris[0],
                                                     crossings[0]))),
            T.marker_of_marked(T._corner(_end_corner(T, tris[-1],
                                                     crossings[-1])))]
    if r < 0.1:
        return "arc", (), (), rng.choice([0, n + 1, "1", 1.0, True]
                                         + list(T.internal_arcs) * 3)
    if r < 0.4:
        if rng.random() < 0.3:
            ends = [rng.choice(markers) for _ in range(2)]
        return "open", crossings, ends, None
    if r < 0.65:
        # a closed walk: cut where the walk first comes back across its
        # first arc in the same direction, else keep it as drawn
        for k in range(1, len(crossings)):
            if crossings[k] == crossings[0] and tris[k] == tris[0]:
                crossings = crossings[:k]
                break
        k = rng.randrange(len(crossings))
        return "loop", crossings[k:] + crossings[:k], (), None
    if r < 0.8:
        k = rng.randrange(len(crossings) + 1)
        put = rng.choice([[rng.choice(T.internal_arcs)] * 2,
                          crossings[k - 1:k] * 2 if k else [],
                          crossings[max(k - 2, 0):k][::-1]])
        kind = rng.choice(["open", "loop"])
        return kind, crossings[:k] + put + crossings[k:], ends, None
    bad = rng.randrange(4)
    kind = rng.choice(["open", "loop"])
    if bad == 0:
        crossings = list(crossings)
        crossings[rng.randrange(len(crossings))] = \
            rng.choice([0, n + 1, -1, "2", 2.0, None])
    elif bad == 1:
        kind = rng.choice(["band", "string", "", None, "Loop"])
    elif bad == 2:
        ends = ends[:rng.randrange(2)] + [rng.choice(markers)] * \
            rng.choice([0, 2])
    else:
        ends = [rng.choice([("nope", 0), 5, (markers[0][0], 2),
                            (markers[0][0], True)]), ends[1]]
    return kind, crossings, ends, None


def test_validate_curve_is_pinned(pants, hexagon, annulus):
    """(fields, shear) of each accepted draw, (exception, message) of each
    rejected one, 100 draws on each of 183 surfaces."""
    digest, count = hashlib.sha256(), 0
    for k, T in enumerate(_surfaces(pants, hexagon, annulus, 183)):
        rng = random.Random(k)
        for _ in range(100):
            kind, crossings, ends, arc = _input(T, rng)
            try:
                g = validate_curve(T, kind, crossings, ends, arc)
            except InputError as exc:
                row = (type(exc).__name__, str(exc))
            else:
                row = (g.kind, g.arc, g.crossings, g.endpoints,
                       g.transitions, shear_coordinates(T, g))
            digest.update(repr((k, row)).encode() + b"\n")
            count += 1
    assert (count, digest.hexdigest()) == (CURVE_INPUTS, CURVE_DIGEST)


def test_standard_homs_are_pinned():
    """Strings of length <= 5 and bands of length <= 6, both ways."""
    digest, count = hashlib.sha256(), 0
    for name in ("torus_quiver", "pants", "a3_relation", "double_loop"):
        A = case_algebra(name)
        words = enumerate_strings(A, 5) + enumerate_bands(A, 6)
        for X in words:
            for Y in words:
                for h in standard_homs(A, X, Y):
                    digest.update(repr((name, str(X), str(Y), h.quot, h.sub,
                                        h.oriented, h.two_sided,
                                        h.is_identity)).encode() + b"\n")
                    count += 1
    assert (count, digest.hexdigest()) == (HOMS, HOMS_DIGEST)
