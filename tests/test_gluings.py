"""`Triangulation` accepts exactly the marked surfaces among random
gluings of triangles (`tests/surfgen.py`), with internal arcs 1..n."""

import hashlib
import json

import pytest

from gentlelam import InvalidTriangulation, Triangulation
from surfgen import gluings, is_connected

# Over the 10,000 draws of seed 1, the verdict on each connected gluing
# and, for an accepted one, its genus, boundary count and fans, hashed.
CONNECTED_DIGEST = \
    "54aaa40967b03ce6a006da6aab84b37068b31a5a39b5f42d66f0dc79fcc8de81"
# Of the 5,055 disconnected draws, 21 passed the Euler characteristic
# check as one surface before connectedness was required.
DISCONNECTED = 5055


def _summary(T):
    return [T._cache["genus"], T._cache["boundary_count"],
            [[list(edges), [list(c) for c in corners]]
             for edges, corners in map(T.fan, T.marked_points())]]


def test_random_gluings_are_pinned():
    """About one second."""
    digest = hashlib.sha256()
    disconnected = 0
    for arcs, bnds, tris in gluings(1, 10_000):
        connected = is_connected(tris)
        try:
            T = Triangulation(arcs, bnds, tris)
        except InvalidTriangulation:
            T = None
        if not connected:
            assert T is None, (arcs, bnds, tris)
            disconnected += 1
            continue
        record = "rejected" if T is None else _summary(T)
        digest.update(json.dumps(record).encode() + b"\n")
    assert disconnected == DISCONNECTED
    assert digest.hexdigest() == CONNECTED_DIGEST


ANNULUS = (("out", "inn"), (("out", 2, 1), ("inn", 2, 1)))


@pytest.mark.parametrize("arcs", ((2, 3), (0, 1), (1, 1, 2), (True, 2)),
                         ids=str)
def test_internal_arcs_must_be_the_integers_1_to_n(arcs):
    bnds, tris = ANNULUS
    relabel = dict(zip((1, 2), arcs))
    tris = tuple(tuple(relabel.get(e, e) for e in t) for t in tris)
    with pytest.raises(InvalidTriangulation, match="must be the integers 1"):
        Triangulation(arcs, bnds, tris)


def test_empty_and_disconnected_gluings_are_rejected():
    with pytest.raises(InvalidTriangulation, match="one piece"):
        Triangulation((), (), ())
    # a one-holed torus beside a lone triangle
    with pytest.raises(InvalidTriangulation, match="one piece"):
        Triangulation((1, 2, 3, 4, 5),
                      ("b32", "b02", "b31", "b20", "b30"),
                      ((4, 3, "b02"), (5, 3, 2), ("b20", 1, 5),
                       ("b30", "b31", "b32"), (1, 4, 2)))
