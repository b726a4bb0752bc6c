"""The lazy-offset sweep and bulk read-back of `coideal_generating_function`
against the eager route it replaced: a sweep that adds the shift of each
position to every key of a rebuilt dict, and a read-back of each key by
`int.to_bytes` in the native byte order and a `memoryview` cast."""

import random
import sys

import pytest

from gentlelam import (LaurentPoly, ShapeMismatch, band_to_curve,
                       build_QT, coefficient_quiver, enumerate_bands,
                       enumerate_strings, shear_coordinates,
                       signed_adjacency, string_to_curve)
from gentlelam import laurent
from gentlelam.laurent import (_admits, _arrow_directions, _key_width,
                               coideal_generating_function)
from gentlelam.surface import CoefficientQuiver
from test_packed_sweep import random_chain, skew


def _add_into(d, other):
    for k, c in other.items():
        d[k] = d.get(k, 0) + c
    return d


def _eager_sweep(state, forward, shift):
    out, into = state
    for k, fwd in enumerate(forward, 1):
        s = shift[k]
        if fwd:
            shifted = {key + s: c for key, c in into.items()}
            out, into = _add_into(out, into), shifted
        else:
            into = {key + s: c for key, c in _add_into(into, out).items()}
    return out, into


def eager_sum(Q, B, offset=None):
    """The coideal sum by the eager sweep and the per-key read-back."""
    n = len(B)
    offset = (0,) * n if offset is None else offset
    forward = _arrow_directions(Q)
    w = _key_width(Q, B, offset)
    radix = 1 << 8 * w
    x_place = [radix ** (2 * n - i) for i in range(1, n + 1)]
    bias = (radix >> 1) * sum(x_place)
    start = bias + sum(o * p for o, p in zip(offset, x_place))
    shift = [sum(B[i][j - 1] * x_place[i] for i in range(n))
             + radix ** (n - j) for j in Q.labels]
    if Q.cyclic:
        total = {}
        for first in (0, 1):
            state = ({start: 1}, {}) if first == 0 else \
                ({}, {start + shift[0]: 1})
            ends = _eager_sweep(state, forward[:-1], shift)
            for last in (0, 1):
                if _admits(forward[-1], last, first):
                    _add_into(total, ends[last])
    else:
        out, into = _eager_sweep(({start: 1}, {start + shift[0]: 1}),
                                 forward, shift)
        total = _add_into(out, into)
    nbytes, fmt = 2 * n * w, "bhiq"[w.bit_length() - 1]
    step = -1 if sys.byteorder == "little" else 1
    terms = []
    for key in sorted(total):
        e = tuple(memoryview((key ^ bias).to_bytes(nbytes, sys.byteorder))
                  .cast(fmt))[::step]
        terms.append(((e[:n], e[n:]), total[key]))
    return LaurentPoly(n, tuple(terms))


@pytest.fixture
def merge_branches(monkeypatch):
    """Counts of the sweep's merges into a surviving dict's copy and into
    a dict in place (`_union`'s merges included)."""
    counts = {"copy": 0, "in_place": 0}
    fresh = []
    merge = laurent._merge

    def copying_dict(*args):
        d = dict(*args)
        fresh.append(d)
        return d

    def counting_merge(d, at, other, off):
        if any(d is f for f in fresh):
            counts["copy"] += 1
            fresh.remove(d)
        else:
            counts["in_place"] += 1
        return merge(d, at, other, off)

    monkeypatch.setattr(laurent, "dict", copying_dict, raising=False)
    monkeypatch.setattr(laurent, "_merge", counting_merge)
    return counts


def test_the_bangles_corpus(pants, merge_branches):
    # the curves the bangles benchmark draws from, with their shear
    # offsets: every band of <= 16 letters on the pants, every string of
    # <= 12 and 40 seeded strings of each length 13-15 (all 3,776 of
    # those hold 741,000 terms, too many for both routes in a test)
    A = build_QT(pants)
    B = signed_adjacency(pants)
    rng = random.Random(18)
    strings = enumerate_strings(A, 15)
    words = [C for C in strings if len(C) <= 12]
    for m in (13, 14, 15):
        words += rng.sample([C for C in strings if len(C) == m], 40)
    curves = [string_to_curve(pants, A, C) for C in words]
    curves += [band_to_curve(pants, A, w) for w in enumerate_bands(A, 16)]
    for gamma in curves:
        Q = coefficient_quiver(pants, gamma)
        offset = shear_coordinates(pants, gamma)
        got = coideal_generating_function(Q, B, offset)
        assert got.terms == eager_sum(Q, B, offset).terms, gamma
    assert merge_branches["copy"] and merge_branches["in_place"]


def test_random_chains_and_cycles(merge_branches):
    rng = random.Random(18)
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 12)
        B = skew(rng, n, rng.choice((1, 3, 200)))
        Q = random_chain(rng, n, m, rng.random() < 0.5)
        offset = tuple(rng.randint(-50, 50) for _ in range(n))
        for off in (None, offset):
            assert coideal_generating_function(Q, B, off).terms == \
                eager_sum(Q, B, off).terms, (Q, B, off)
    assert merge_branches["copy"] and merge_branches["in_place"]


@pytest.mark.parametrize("offset, labels, bad", [
    ((1,), (4, 2, 5), "length 1"),
    ((0,) * 8, (4, 2, 5), "length 8"),
    (None, (4, 0, 5), "label 0"),
    (None, (4, 7, 5), "label 7"),
])
def test_offset_and_labels_must_fit_the_matrix(pants, offset, labels, bad):
    # the eager route truncated a short or long offset, read column -1 of
    # B for a label 0, and raised a bare IndexError for a label 7
    Q = CoefficientQuiver(labels, ((1, 2, "a"), (3, 2, "b")), False)
    with pytest.raises(ShapeMismatch, match=bad):
        coideal_generating_function(Q, signed_adjacency(pants), offset)
