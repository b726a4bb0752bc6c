"""`rational_roots` takes the roots of linear and quadratic polynomials,
and `charpoly` a 2 x 2 matrix, in closed form (`band_lambda_candidates`
reads band parameters through them); the Fraction routes of
`test_integer_routes` are their reference.  `decompose` does not test a
block of a support split for a support split again."""

import random
from fractions import Fraction

from gentlelam import (direct_sum, enumerate_strings, exactlinalg,
                       string_module, strings)
from gentlelam.exactlinalg import charpoly, rational_roots
from gentlelam.strings import conjugate, random_glpoint
from test_integer_routes import reference_rational_roots

SEED = 16


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_rational_roots_of_low_degree_in_closed_form(monkeypatch):
    def no_lifting(h):
        raise AssertionError(f"degree {len(h) - 1} lifted")

    monkeypatch.setattr(exactlinalg, "_integer_roots", no_lifting)
    rng = random.Random(SEED)

    def rational():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 5))

    def nonzero():
        return rng.choice([-1, 1]) * Fraction(rng.randint(1, 12),
                                              rng.randint(1, 5))

    polys = []
    for _ in range(150):
        lead = nonzero()
        r, s = nonzero(), nonzero()
        polys += [
            [lead, rational()],  # linear, non-monic
            poly_mul([lead], poly_mul([1, -r], [1, -s])),  # two roots
            poly_mul([lead], poly_mul([1, -r], [1, -r])),  # a double root
            [lead, rational(), nonzero()],  # mostly irrational
        ]
    # negative discriminants and a square one
    polys += [[1, 0, 1], [3, 1, 1], [-2, 1, -1], [4, 4, 1], [1, 1, -1]]
    irrational = 0
    for poly in polys:
        # zero roots and leading zeros are stripped before the closed form
        poly = [0] * rng.randint(0, 1) + poly + [0] * rng.randint(0, 2)
        got = rational_roots(poly)
        assert got == reference_rational_roots(poly), poly
        assert all(type(r) is Fraction for r in got)
        degree = len(poly) - 1 - poly.index(next(c for c in poly if c))
        irrational += len(got) < degree
    assert irrational  # some quadratics have no rational root


def test_two_by_two_charpoly_in_closed_form():
    rng = random.Random(SEED + 1)
    for _ in range(300):
        m = [[Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
              for _ in range(2)] for _ in range(2)]
        (a, b), (c, d) = m
        cp = charpoly(m)
        assert cp == [1, -(a + d), a * d - b * c]
        assert all(type(x) is (int if Fraction(x).denominator == 1
                               else Fraction) for x in cp), cp


def test_support_blocks_skip_the_support_test(pants_algebra, monkeypatch):
    # a block of a support split is connected by construction; the rest
    # of a peel is read by a walk or tested (it may fall apart) before it
    # is peeled again, and a piece named whole (a peel with no rest) is
    # one or the other.  A module in a monomial basis is read by a walk
    # before any split, so the support blocks here come from a conjugated
    # M + M and a conjugated word beside two word modules.
    A = pants_algebra
    tested, support_blocks, rests, named, walked = [], [], [], [], []
    support_split, peel = strings._support_split, strings._peel
    monomial_labels = strings._monomial_labels

    def recording_support_split(A, rep):
        tested.append(rep)
        blocks = support_split(A, rep)
        support_blocks.extend(blocks or ())
        return blocks

    def recording_peel(A, p, table, rng):
        peeled = peel(A, p, table, rng)
        if peeled is not None and peeled[1] is None:
            named.append(p)
        elif peeled is not None:
            rests.append(peeled[1])
        return peeled

    def recording_monomial_labels(A, rep):
        labels = monomial_labels(A, rep)
        if labels is not None:
            walked.append(rep)
        return labels

    monkeypatch.setattr(strings, "_support_split", recording_support_split)
    monkeypatch.setattr(strings, "_peel", recording_peel)
    monkeypatch.setattr(strings, "_monomial_labels",
                        recording_monomial_labels)
    rng = random.Random(SEED)
    words = [w for w in enumerate_strings(A, 3) if len(w)]
    # a word with a space of dimension 2 stays dense when conjugated
    tall = [w for w in words if max(string_module(A, w).dims) > 1]

    def conjugated(ws):
        M = direct_sum(A, [string_module(A, w) for w in ws])
        return conjugate(A, M, random_glpoint(rng, M.dims, 2))

    for k in range(6):
        parts = rng.sample(words, 3) + rng.sample(tall, 1)
        want = parts + parts[:1]
        if k % 2:
            M = conjugated(want)
        else:
            M = direct_sum(A, [conjugated(parts[:1] * 2),
                               conjugated(parts[3:])]
                           + [string_module(A, w) for w in parts[1:3]])
        got = strings.decompose(A, M, seed=k, words=want)
        assert sorted(map(str, got)) == sorted(map(str, want))
    tested_ids = {id(p) for p in tested}
    block_ids = {id(b) for b in support_blocks}
    rest_ids = {id(b) for b in rests}
    walked_ids = {id(p) for p in walked}
    assert support_blocks and rests and named
    assert block_ids - walked_ids  # a block that is not monomial
    assert not tested_ids & block_ids
    assert rest_ids <= tested_ids | walked_ids
    assert {id(p) for p in named} <= block_ids | rest_ids
