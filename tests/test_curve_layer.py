"""The curve layer of `surface` pinned by digests: the Jacobian algebra of
every accepted gluing of `tests/surfgen.py` seed 1, and, on the lamgen
curve pools of the golden pants, hexagon and annulus and of the first 60
seed-1 surfaces with at least two arcs, each curve's coefficient quiver,
its word, the curve read back off that word, and every `int_zero`
verdict.  On the golden pools `int_zero` is also checked against the
module route: Hom(M, tau N) = Hom(N, tau M) = 0 with tau as D Tr, and
band parameters 2 and 3 for two copies of one loop."""

import hashlib

import pytest

from gentlelam import (BandWord, InconsistentSequence, InvalidTriangulation,
                       Triangulation, band_module, band_to_curve, build_QT,
                       coefficient_quiver, curve_to_module, hom_dim,
                       int_zero, string_module, string_to_curve, tau_dtr,
                       validate_curve)
from gentlelam.fileio import algebra_to_dict
from lamgen import curve_pool
from surfgen import gluings

ALGEBRAS = 1895
ALGEBRAS_DIGEST = \
    "c1c86cae2a9ca1fc46a67e87fd5adfacf60a01e365b9ef8d57a133b5f8e2cd2f"
# curves over the 63 pools, and their pairs (i <= j)
CURVES, PAIRS = 1139, 12882
CURVES_DIGEST = \
    "c273971d3ea8ed345e89f4da1686860cf6718d0fac77fb64fdf6dfbf48c2fad7"
VERDICTS_DIGEST = \
    "622311f2ad366d60c7b7356b1a79782116fd64e56f5991cd8af5ebbcab4fd294"


def _accepted():
    for arcs, bnds, tris in gluings(1, 10_000):
        try:
            yield Triangulation(arcs, bnds, tris)
        except InvalidTriangulation:
            pass


def test_algebras_of_the_gluings_are_pinned():
    """About half a second."""
    digest, count = hashlib.sha256(), 0
    for T in _accepted():
        digest.update(repr(algebra_to_dict(build_QT(T))).encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == (ALGEBRAS, ALGEBRAS_DIGEST)


@pytest.fixture(scope="module")
def pools(pants, hexagon, annulus):
    surfaces = [pants, hexagon, annulus]
    for T in _accepted():
        if len(surfaces) == 63:
            break
        if len(T.internal_arcs) >= 2:
            surfaces.append(T)
    return [(T, curve_pool(T, build_QT(T), max_crossings=8, depth=5))
            for T in surfaces]


def _fields(g):
    return (g.kind, g.crossings, g.endpoints, g.transitions)


def test_curves_are_pinned(pools):
    digest, count = hashlib.sha256(), 0
    for k, (T, pool) in enumerate(pools):
        A = build_QT(T)
        for g in pool:
            w = curve_to_module(T, g)
            row = (k, _fields(g), str(w))
            if g.kind != "arc":
                Q = coefficient_quiver(T, g)
                back = (band_to_curve(T, A, w) if isinstance(w, BandWord)
                        else string_to_curve(T, A, w))
                row += ((Q.labels, Q.arrows, Q.cyclic), _fields(back))
            digest.update(repr(row).encode() + b"\n")
            count += 1
    assert (count, digest.hexdigest()) == (CURVES, CURVES_DIGEST)


def test_intersection_verdicts_are_pinned(pools):
    verdicts = "".join("1" if int_zero(T, g, pool[j]) else "0"
                       for T, pool in pools for i, g in enumerate(pool)
                       for j in range(i, len(pool)))
    digest = hashlib.sha256(verdicts.encode()).hexdigest()
    assert (len(verdicts), digest) == (PAIRS, VERDICTS_DIGEST)


def _module_route(T, g, h):
    A = build_QT(T)
    v, w = curve_to_module(T, g), curve_to_module(T, h)

    def module(word, lam):
        return (band_module(A, word, lam) if isinstance(word, BandWord)
                else string_module(A, word))

    M = module(v, 2)
    N = module(w, 3 if v == w else 2)
    return hom_dim(A, M, tau_dtr(A, N)) == 0 and \
        hom_dim(A, N, tau_dtr(A, M)) == 0


def test_intersections_match_the_module_route(pools):
    count = 0
    for T, pool in pools[:3]:
        curves = [g for g in pool if g.kind != "arc"]
        for i, g in enumerate(curves):
            for h in curves[i:]:
                assert int_zero(T, g, h) == _module_route(T, g, h), (g, h)
                count += 1
    assert count > 100


@pytest.mark.parametrize("marker", [("bA", True), ("bA", 1.0), 5, ("bA",)],
                         ids=repr)
def test_a_marker_is_a_segment_and_the_int_0_or_1(pants, marker):
    with pytest.raises(InconsistentSequence, match="bad endpoint marker"):
        pants.marked_of_marker(marker)
    with pytest.raises(InconsistentSequence, match="bad endpoint marker"):
        validate_curve(pants, "open", [1], [marker, ("bA", 0)])
