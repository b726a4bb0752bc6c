"""dim End and dim Ext^1 of the generic block module against the Hom and
Ext^1 spaces of the model algebra itself.  C_m has arrows a_i: i -> i + 1 (i < m) and C~_m arrows
a_i: i -> i % m + 1 (i <= m), with every length-2 path a_{t_i} a_i zero.
P_i is the string module of the letter a_i and S_i the trivial string at
i.  `_block_end_dim(block, p, q)` must be dim End of
X = (+) P_i^{p_i} (+) S_i^{q_i}, computed here from the intertwiner system
(`hom_dim`), which knows nothing of the model's Hom table, and
`_block_ext1(block, q)` dim Ext^1(X, X), computed from the standard
complex (`ext1_complex_dim`), which knows nothing of which summands
extend which."""

import itertools

import pytest

from gentlelam import (Quiver, ext1_complex_dim, hom_dim, rho_blocks,
                       validate_gentle)
from gentlelam.schemes import _block_end_dim, _block_ext1
from gentlelam.strings import StringWord, direct_sum, letter, string_module

# (m, closed, the (p, q) with entries <= 2 and sum <= 5): 2,012 in all
MODELS = [(1, False, 3), (2, False, 26), (3, False, 147), (4, False, 540),
          (1, True, 9), (2, True, 66), (3, True, 294), (4, True, 927)]


def model_algebra(m, closed):
    ends = {i: i % m + 1 for i in range(1, (m if closed else m - 1) + 1)}
    arrows = tuple((f"a{i}", i, t) for i, t in ends.items())
    relations = [(f"a{t}", f"a{i}") for i, t in ends.items() if t in ends]
    return validate_gentle(Quiver(m, arrows), relations), len(ends)


@pytest.mark.parametrize("m,closed,count", MODELS)
def test_end_of_the_generic_block_module(m, closed, count):
    A, k = model_algebra(m, closed)
    (block,) = rho_blocks(A)
    assert block.relabel == tuple(range(1, m + 1))
    assert block.type_name == f"{'C~' if closed else 'C'}{m}"
    P = [string_module(A, (letter(f"a{i}"),)) for i in range(1, k + 1)]
    S = [string_module(A, StringWord((), i)) for i in range(1, m + 1)]
    cases = 0
    for mult in itertools.product(range(3), repeat=k + m):
        if sum(mult) > 5:
            continue
        p = [0, *mult[:k]] + [0] * (m - k)
        q = [0, *mult[k:]]
        parts = [M for M, n in zip(P + S, mult) for _ in range(n)]
        M = direct_sum(A, parts)
        assert _block_end_dim(block, p, q) == hom_dim(A, M, M), (p, q)
        assert _block_ext1(block, q) == ext1_complex_dim(A, M, M), (p, q)
        cases += 1
    assert cases == count
