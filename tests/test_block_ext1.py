"""e read off the block records against the Z^1 pair sum, and the paper's
smoothness criterion against e == c.

`ceh_by_words` reads e as c + the sum of the blocks' Ext^1
(`BlockRecord.ext1`), with no Z^1 system.  Its oracle is the route it
replaced: dim Z^1(M, M) summed over the word pairs of the certified
multiset (`_pair_sum(A, words, _cocycle_dim)`), less the orbit.  The
generic point of a component is smooth exactly when e == c, that is
when no block carries Ext^1, and `critical_relation_pairs` must say the
same.  The pants box {0,1,2}^6 (1,785 components), {0,1,2}^n on the
five golden algebras (394) and 40 `fuzz.random_gentle` algebras (seeds
0-39, 5,873 components): about 3 seconds in all."""

import itertools
import random

import pytest

from conftest import GOLDEN_ALGEBRAS, case_algebra
from fuzz import random_gentle
from gentlelam import ceh_by_words, components, critical_relation_pairs
from gentlelam.homological import _cocycle_dim
from gentlelam.schemes import _block_records, _pair_sum, dim_gl, \
    generic_multiset
from gentlelam.strings import hom_dim


def box(A):
    for d in itertools.product(range(3), repeat=A.n):
        yield from components(A, d)


def z1_minus_orbit(A, Z):
    words = generic_multiset(A, Z)
    return _pair_sum(A, words, _cocycle_dim) - (
        dim_gl(Z.d) - _pair_sum(A, words, hom_dim))


def random_algebras():
    return [random_gentle(random.Random(seed)) for seed in range(40)]


@pytest.mark.parametrize("name", ("pants",) + GOLDEN_ALGEBRAS)
def test_e_is_the_z1_pair_sum_on_the_golden_boxes(name):
    A = case_algebra(name)
    count = 0
    for Z in box(A):
        assert ceh_by_words(A, Z)[1] == z1_minus_orbit(A, Z), (Z.d, Z.r)
        count += 1
    assert count == {"pants": 1785, "a3_relation": 35, "double_loop": 126,
                     "loop_algebra": 3, "torus_quiver": 217,
                     "two_cycle": 13}[name]


def test_e_is_the_z1_pair_sum_on_random_algebras():
    count = 0
    for seed, A in enumerate(random_algebras()):
        for Z in box(A):
            assert ceh_by_words(A, Z)[1] == z1_minus_orbit(A, Z), \
                (seed, Z.d, Z.r)
            count += 1
    assert count == 5873


def test_no_critical_pair_exactly_when_e_equals_c():
    """The paper's criterion, read off the relations, against the tangent
    space read off the blocks: e - c is the sum of the blocks' Ext^1."""
    smooth = singular = 0
    for A in [case_algebra("pants")] + random_algebras():
        for Z in box(A):
            ext1 = sum(rec.ext1 for _, rec in _block_records(A, Z))
            free = not critical_relation_pairs(A, Z.d, Z.rank())
            assert free == (ext1 == 0), (Z.d, Z.r)
            smooth += free
            singular += not free
    assert smooth and singular and smooth + singular == 1785 + 5873
