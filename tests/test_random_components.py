"""Every component of the box {0,1,2}^n on 40 random gentle algebras
(`fuzz.random_gentle`, seeds 0-39, at most 4 vertices): the pair route
`ceh_by_words` equals the sampled `ceh_values`, and
`canonical_decomposition` finds the certified multiset at a generic
point, which runs `decompose`'s trace pairings on algebras no golden
file holds.
About 1,850 components, 5-6 seconds."""

import itertools
import random

from fuzz import random_gentle
from gentlelam import (canonical_decomposition, ceh_by_words, ceh_values,
                       components, strings)


def test_components_of_random_algebras(monkeypatch):
    found = []
    multiplicity = strings._multiplicity

    def counted_multiplicity(*args):
        got = multiplicity(*args)
        found.append(got)
        return got

    monkeypatch.setattr(strings, "_multiplicity", counted_multiplicity)
    count = 0
    for seed in range(40):
        A = random_gentle(random.Random(seed), max_vertices=4)
        for d in itertools.product(range(3), repeat=A.n):
            for Z in components(A, d):
                why = f"seed {seed}, d {d}, r {Z.r}"
                assert ceh_by_words(A, Z) == ceh_values(A, Z), why
                # raises ConsistencyFailure on another multiset
                canonical_decomposition(A, Z)
                count += 1
    assert count >= 1800
    # 1,793 of 1,862 pairings find a summand, some of them repeated
    assert sum(map(bool, found)) >= 100, "the pairing was not reached"
    assert max(found) >= 2
