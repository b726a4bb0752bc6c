"""The packed integer keys of `coideal_generating_function` where the
surface goldens do not reach: large and random exchange matrices, large
and negative offsets, repeated labels, and every digit width."""

import itertools
import random

import pytest

from gentlelam import LaurentPoly, signed_adjacency, yhat
from gentlelam.laurent import (ExponentOutOfRange, _key_width,
                               coideal_generating_function)
from gentlelam.surface import CoefficientQuiver
from test_coideal_sweep import chain, scan_sum


def skew(rng, n, bound):
    B = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        B[i][j] = rng.randint(-bound, bound)
        B[j][i] = -B[i][j]
    return B


def expected(Q, B, offset):
    n = len(B)
    return LaurentPoly.monomial(n, offset, (0,) * n) * scan_sum(Q, B)


def random_chain(rng, n, m, cyclic, labels=None):
    orientation = [rng.random() < 0.5 for _ in range(m if cyclic else m - 1)]
    labels = labels or [rng.randint(1, n) for _ in range(m)]
    return chain(m, orientation, labels, cyclic)


def test_random_skew_matrices_use_two_byte_digits():
    rng = random.Random(10)
    for _ in range(60):
        n, m = rng.randint(3, 6), rng.randint(2, 8)
        B = skew(rng, n, 300)
        Q = random_chain(rng, n, m, rng.random() < 0.5)
        offset = tuple(rng.randint(-300, 300) for _ in range(n))
        assert _key_width(Q, B, offset) == 2
        assert coideal_generating_function(Q, B, offset) == \
            expected(Q, B, offset)


def test_negative_offsets_and_repeated_labels(pants):
    B = signed_adjacency(pants)
    rng = random.Random(11)
    for m in range(1, 9):
        for cyclic in (False, True):
            for labels in ([4] * m, [rng.choice((2, 5)) for _ in range(m)]):
                Q = random_chain(rng, 6, m, cyclic, labels)
                offset = tuple(rng.randint(-40, 0) for _ in range(6))
                assert coideal_generating_function(Q, B, offset) == \
                    expected(Q, B, offset)


@pytest.mark.parametrize("big, width", [(40000, 4), (1 << 40, 8)])
def test_wide_digits(big, width):
    rng = random.Random(12)
    B = skew(rng, 4, 3)
    B[0][2], B[2][0] = big, -big
    for cyclic in (False, True):
        Q = random_chain(rng, 4, 5, cyclic, [3, 1, 3, 2, 4])
        for offset in ((0, 0, 0, 0), (-big, 7, big, -1)):
            assert _key_width(Q, B, offset) == width
            assert coideal_generating_function(Q, B, offset) == \
                expected(Q, B, offset)
    offset = (0, -big, 0, 0)
    assert _key_width(Q, skew(rng, 4, 3), offset) == width


def test_long_path_counts_need_two_byte_digits():
    # a linearly oriented path has the m + 1 initial segments as coideals
    m, B = 200, [[0, 0], [0, 0]]
    Q = chain(m, [True] * (m - 1), [1] * m, False)
    assert _key_width(Q, B, (0, 0)) == 2
    assert coideal_generating_function(Q, B) == LaurentPoly.from_dict(
        2, {((0, 0), (k, 0)): 1 for k in range(m + 1)})


def test_self_loop_with_offset(pants):
    B = signed_adjacency(pants)
    loop = CoefficientQuiver((4,), ((1, 1, "a"),), True)
    offset = (-3, 0, 2, -1, 0, 5)
    assert _key_width(loop, B, offset) == 1
    shift = LaurentPoly.monomial(6, offset, (0,) * 6)
    assert coideal_generating_function(loop, B, offset) == \
        shift * (LaurentPoly.one(6) + yhat(4, B))


def test_exponents_past_64_bits_raise(pants):
    B = signed_adjacency(pants)
    loop = CoefficientQuiver((4,), ((1, 1, "a"),), True)
    with pytest.raises(ExponentOutOfRange):
        coideal_generating_function(loop, B, (1 << 63, 0, 0, 0, 0, 0))
    assert _key_width(loop, B, ((1 << 63) - 2, 0, 0, 0, 0, 0)) == 8


def test_power_needs_a_non_negative_integer():
    p = LaurentPoly.monomial(2, (1, -1), (0, 1), 2) + LaurentPoly.one(2)
    assert p ** 0 == LaurentPoly.one(2)
    assert p ** 3 == p * p * p
    for k in (-1, -3, 0.5, 2.0):
        with pytest.raises(ExponentOutOfRange):
            p ** k
