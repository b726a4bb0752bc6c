"""The transfer-matrix sweep of `coideal_generating_function` against the
scan over all vertex subsets that `order_coideals` makes."""

import itertools
import json
import os
import random

import pytest

from conftest import GOLDEN
from gentlelam import (LaurentPoly, NotPathOrCycle, band_to_curve, bangle,
                       build_QT, coefficient_quiver, enumerate_bands,
                       enumerate_strings, order_coideals, signed_adjacency,
                       string_to_curve, validate_curve,
                       word_coefficient_quiver, yhat)
from gentlelam.cli import main
from gentlelam.laurent import coideal_generating_function
from gentlelam.surface import CoefficientQuiver

FIGURE_EIGHT = (3, 6, 1, 5, 4, 6, 2)


def scan_sum(Q, B):
    """The sum of the yhat products over order_coideals(Q)."""
    n = len(B)
    hats = {}
    for j in set(Q.labels):
        ((xe, ye), _), = yhat(j, B).terms
        hats[j] = xe + ye
    total = {}
    for coideal in order_coideals(Q):
        e = [0] * (2 * n)
        for pos in coideal:
            e = [a + b for a, b in zip(e, hats[Q.labels[pos - 1]])]
        total[tuple(e)] = total.get(tuple(e), 0) + 1
    return LaurentPoly.from_dict(
        n, {(k[:n], k[n:]): c for k, c in total.items()})


def chain(m, orientation, labels, cyclic):
    """Arrow k between positions k and k+1 (mod m), pointing forward
    where orientation[k-1] is true."""
    arrows = []
    for k, fwd in enumerate(orientation, 1):
        nxt = k % m + 1
        arrows.append((k, nxt, f"a{k}") if fwd else (nxt, k, f"a{k}"))
    return CoefficientQuiver(tuple(labels), tuple(arrows), cyclic)


def surface_quivers(T, max_crossings):
    A = build_QT(T)
    for C in enumerate_strings(A, max_crossings - 1):
        yield coefficient_quiver(T, string_to_curve(T, A, C))
    for w in enumerate_bands(A, max_crossings):
        yield coefficient_quiver(T, band_to_curve(T, A, w))


def test_every_oriented_path_and_cycle(pants):
    B = signed_adjacency(pants)
    rng = random.Random(5)
    count = 0
    for m in range(1, 10):
        for cyclic in (False, True):
            arrows = m if cyclic else m - 1
            for orientation in itertools.product((True, False),
                                                 repeat=arrows):
                labels = [rng.randint(1, 6) for _ in range(m)]
                Q = chain(m, orientation, labels, cyclic)
                assert coideal_generating_function(Q, B) == scan_sum(Q, B)
                count += 1
    assert count == (2 ** 9 - 1) + (2 ** 10 - 2)


def test_self_loop_and_two_cycles(pants):
    B = signed_adjacency(pants)
    loop = CoefficientQuiver((4,), ((1, 1, "a"),), True)
    assert coideal_generating_function(loop, B) == \
        LaurentPoly.one(6) + yhat(4, B)
    for arrows in (((1, 2, "a"), (2, 1, "b")), ((1, 2, "a"), (1, 2, "b")),
                   ((2, 1, "a"), (2, 1, "b"))):
        Q = CoefficientQuiver((2, 5), arrows, True)
        assert coideal_generating_function(Q, B) == scan_sum(Q, B)
    # an oriented 2-cycle admits only the empty and the full coideal
    both = CoefficientQuiver((2, 5), ((1, 2, "a"), (2, 1, "b")), True)
    assert len(coideal_generating_function(both, B).terms) == 2


@pytest.mark.parametrize("name, max_crossings",
                         [("pants", 12), ("annulus", 14), ("hexagon", 14)])
def test_surface_curves(request, name, max_crossings):
    T = request.getfixturevalue(name)
    B = signed_adjacency(T)
    count = 0
    for Q in surface_quivers(T, max_crossings):
        assert coideal_generating_function(Q, B) == scan_sum(Q, B), Q
        count += 1
    assert count > 0


def test_word_quivers_on_pants(pants):
    A = build_QT(pants)
    B = signed_adjacency(pants)
    words = enumerate_strings(A, 10) + enumerate_bands(A, 10)
    assert any(len(w.letters) == 10 for w in words)
    for w in words:
        Q = word_coefficient_quiver(A, w)
        assert coideal_generating_function(Q, B) == scan_sum(Q, B), w


@pytest.mark.parametrize("labels, arrows, cyclic", [
    # a chord 1 -> 3 in place of the arrow between positions 3 and 4
    ((1, 2, 3, 4), ((1, 2, "a"), (2, 3, "b"), (1, 3, "c")), False),
    # the chord as a fifth arrow of a 4-cycle
    ((1, 2, 3, 4), ((1, 2, "a"), (2, 3, "b"), (3, 4, "c"), (4, 1, "d"),
                    (1, 3, "e")), True),
    # a path with its closing arrow
    ((1, 2, 3), ((1, 2, "a"), (2, 3, "b"), (3, 1, "c")), False),
    # a cycle with its closing arrow missing
    ((1, 2, 3), ((1, 2, "a"), (2, 3, "b")), True),
    # arrows out of position order
    ((1, 2, 3), ((2, 3, "b"), (1, 2, "a")), False),
    # no positions
    ((), (), False),
    ((), (), True),
])
def test_other_shapes_raise(pants, labels, arrows, cyclic):
    Q = CoefficientQuiver(labels, arrows, cyclic)
    with pytest.raises(NotPathOrCycle):
        coideal_generating_function(Q, signed_adjacency(pants))


def test_figure_eight_three_times(pants):
    # pinned from the subset scan: 980 terms, coefficient sum 17498
    gamma = validate_curve(pants, "loop", FIGURE_EIGHT * 3)
    poly = bangle(pants, gamma)
    assert len(poly.terms) == 980
    assert poly.coeff_sum() == 17498


def test_cli_bangle_figure_eight_three_times(capsys):
    curve = "loop:" + ",".join(map(str, FIGURE_EIGHT * 3))
    code = main(["bangle", "--input", os.path.join(GOLDEN, "pants.json"),
                 "--curve", curve, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(json.loads(out)["terms"]) == 980
