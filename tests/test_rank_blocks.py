"""Maximal rank functions as a product over rho-blocks, against the
oracle: the full enumeration of rank functions filtered by the
single-arrow increment test."""

import itertools
import random
import time

import pytest

from conftest import golden
from fuzz import random_gentle
from gentlelam import (Quiver, build_QT, components, maximal_rank_functions,
                       rank_functions, rho_blocks, validate_gentle)
from gentlelam.fileio import algebra_from_dict, triangulation_from_dict
from gentlelam.schemes import Component

ALGEBRAS = ("a3_relation", "double_loop", "loop_algebra", "torus_quiver",
            "two_cycle")
SURFACES = ("annulus", "hexagon", "pants")
FUZZ_SEEDS = range(40)


def golden_algebra(name):
    if name in SURFACES:
        return build_QT(triangulation_from_dict(golden(f"{name}.json")))
    return algebra_from_dict(golden(f"{name}.json"))


def is_valid(A, d, r):
    return all(r[a] <= min(d[A.s(a) - 1], d[A.t(a) - 1])
               for a in A.arrow_ids) and \
        all(r[a] + r[b] <= d[A.s(a) - 1] for a, b in A.relations)


def is_maximal(A, d, r):
    return all(not is_valid(A, d, {**r, a: r[a] + 1}) for a in A.arrow_ids)


def oracle(A, d):
    """The maximal rank functions, taken from the full enumeration."""
    return [r for r in rank_functions(A, d) if is_maximal(A, d, r)]


def same(A, d, got, want):
    """Equal lists, order and the arrow order of each dict included."""
    assert got == want, d
    assert [list(r) for r in got] == [list(A.arrow_ids)] * len(got), d


def box(A):
    return itertools.product(range(4 if A.n <= 4 else 3), repeat=A.n)


@pytest.mark.parametrize("name", ALGEBRAS + SURFACES)
def test_golden_algebras_match_the_oracle(name):
    A = golden_algebra(name)
    for d in box(A):
        same(A, d, maximal_rank_functions(A, d), oracle(A, d))


def test_fuzzed_algebras_match_the_oracle():
    types = set()
    for seed in FUZZ_SEEDS:
        A = random_gentle(random.Random(seed), 4, 8)
        types |= {b.type_name for b in rho_blocks(A)}
        for d in itertools.product(range(3), repeat=A.n):
            got = maximal_rank_functions(A, d)
            assert got == oracle(A, d), f"seed {seed}, d {d}"
    # loops with a^2 = 0 and 2-cycles with both composites zero
    assert {"C~1", "C~2"} <= types, sorted(types)


def test_pants_components_match_the_oracle(pants_algebra):
    A = pants_algebra
    for d in itertools.product(range(3), repeat=A.n):
        want = sorted((Component(d, tuple(sorted(r.items())))
                       for r in oracle(A, d)), key=lambda z: z.r)
        assert components(A, d) == want, d


def test_long_relation_chain():
    # 1 -> 2 -> ... -> 13, every composite zero: one block of type C13,
    # with 5^12 points in the box of the full enumeration
    n = 13
    q = Quiver(n, tuple((f"a{i}", i, i + 1) for i in range(1, n)))
    A = validate_gentle(q, [(f"a{i + 1}", f"a{i}") for i in range(1, n - 1)])
    assert [b.type_name for b in rho_blocks(A)] == ["C13"]
    d = (4,) * n
    t0 = time.perf_counter()
    out = maximal_rank_functions(A, d)
    elapsed = time.perf_counter() - t0
    assert out
    assert len({tuple(r.items()) for r in out}) == len(out)
    for r in out:
        assert is_valid(A, d, r) and is_maximal(A, d, r), r
    assert out == sorted(out, key=lambda r: [r[a] for a in A.arrow_ids])
    assert elapsed <= 1.0, elapsed
