"""Band parameters read off the integer Hom system
(`strings.band_lambda_candidates`).

For M(B, lam) and a conjugate of it, the candidates hold lam and every
small mu at which dim Hom(M(B, mu), -) rises above its value at a far
parameter, and every candidate but 1 is such a rise; in a conjugated
direct sum each band summand's parameter is listed for its word, as
`_through_words` needs.  Bands of length <= 7 on four golden algebras
and of length <= 6 on the `tests/fuzz.py` algebras of seeds 0-59."""

import random
from fractions import Fraction

from conftest import case_algebra
from gentlelam import (band_module, enumerate_bands, enumerate_strings,
                       hom_dim, string_module)
from gentlelam.strings import (band_lambda_candidates, conjugate, direct_sum,
                               random_glpoint)

SEED = 31
GOLDEN = ("pants", "torus_quiver", "hexagon", "annulus")
LAMS = (2, Fraction(-1, 3), Fraction(3, 2))
SMALL = sorted({s * Fraction(p, q) for p in range(1, 6)
                for q in range(1, 6) for s in (1, -1)})
FAR = 10007


def bands():
    """(algebra, band) over the corpus."""
    for name in GOLDEN:
        A = case_algebra(name)
        yield from ((A, B) for B in enumerate_bands(A, 7))
    for seed in range(60):
        A = case_algebra(f"fuzz{seed}")
        yield from ((A, B) for B in enumerate_bands(A, 6))


def candidates(A, B, rep):
    """The candidates as a set, each checked to raise the Hom dimension
    over its value at FAR (1 is listed whether it does or not)."""
    got = band_lambda_candidates(A, B, rep)
    assert got == sorted(set(got)) and 1 in got and 0 not in got
    far = hom_dim(A, band_module(A, B, FAR), rep)
    assert all(hom_dim(A, band_module(A, B, mu), rep) > far
               for mu in got if mu != 1), (B, got)
    return set(got)


def test_candidates_hold_every_jump_of_the_hom_dimension():
    rng = random.Random(SEED)
    cases = 0
    for A, B in bands():
        probes = {mu: band_module(A, B, mu) for mu in SMALL + [FAR]}
        for lam in LAMS:
            M = band_module(A, B, lam)
            for rep in (M, conjugate(A, M, random_glpoint(rng, M.dims))):
                far = hom_dim(A, probes[FAR], rep)
                jumps = {mu for mu in SMALL
                         if hom_dim(A, probes[mu], rep) > far}
                assert lam in jumps
                assert jumps <= candidates(A, B, rep), (B, lam)
                cases += 1
    assert cases == 2 * len(LAMS) * 30


def test_a_conjugated_sum_lists_each_band_parameter():
    # two bands of length <= 7 and two strings, four sums per algebra;
    # the hexagon has no band and the annulus one
    rng = random.Random(SEED)
    for name in ("pants", "torus_quiver"):
        A = case_algebra(name)
        strings, bands = enumerate_strings(A, 3), enumerate_bands(A, 7)
        for _ in range(4):
            parts = [(B, rng.choice(LAMS)) for B in rng.sample(bands, 2)]
            mods = [band_module(A, B, lam) for B, lam in parts]
            mods += [string_module(A, C) for C in rng.sample(strings, 2)]
            M = direct_sum(A, mods)
            rep = conjugate(A, M, random_glpoint(rng, M.dims))
            for B, lam in parts:
                assert lam in candidates(A, B, rep), (name, B, lam)
