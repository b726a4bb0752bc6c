"""Per-block records: the maximal local rank assignments per (block, local
dims) and the orbit dimension and critical summands per (block, local
dims, local ranks), kept on the algebra.  `components`, `component_dim`
and `block_critical_summands` read them; the reference below is the
route that solved every block again for each component (one
`_block_maximal` walk per block and d, `_model_multiplicities` per
block and component).  Each test builds its own algebra, so no memo of
a box sweep outlives it."""

import gc
import itertools
import os
import random
import weakref

import pytest

from conftest import GOLDEN, golden
from fuzz import random_gentle
from gentlelam import (block_critical_summands, build_QT, component_dim,
                       components, rho_blocks, schemes, transport_dimvec)
from gentlelam.fileio import load_algebra, triangulation_from_dict
from gentlelam.schemes import (Component, InvalidDimensionVector,
                               _block_end_dim, _block_maximal,
                               _model_multiplicities)


def reference_components(A, d):
    arrows = A.arrow_ids
    blocks = [b for b in rho_blocks(A) if b.arrows]
    where = {a: i for i, a in enumerate(a for b in blocks for a in b.arrows)}
    rows = []
    for parts in itertools.product(*[_block_maximal(b, transport_dimvec(b, d))
                                     for b in blocks]):
        flat = sum(parts, ())
        rows.append(tuple(flat[where[a]] for a in arrows))
    return sorted((Component(d, tuple(sorted(zip(arrows, row))))
                   for row in rows), key=lambda z: z.r)


def local(block, Z):
    """Local dims and the model multiplicities (p, q) of Z on the block."""
    r = Z.rank()
    dd = transport_dimvec(block, Z.d)
    return dd, _model_multiplicities(block, dd,
                                     tuple(r[a] for a in block.arrows))


def reference_dim(A, Z):
    total = 0
    for block in rho_blocks(A):
        dd, (p, q) = local(block, Z)
        total += sum(x * x for x in dd) - _block_end_dim(block, p, q)
    return total


def reference_critical(A, Z):
    report = []
    for block in rho_blocks(A):
        if block.model_size == 1 and block.block_type == "C":
            continue
        _, (p, q) = local(block, Z)
        m = block.model_size
        cyclic = block.block_type == "Ct"
        n_arrows = m if cyclic else m - 1
        type1, type2 = [], []
        for i in range(1, n_arrows + 1):
            ti = i % m + 1 if cyclic else i + 1
            arrow = block.arrows[i - 1]
            if q[i] >= 1 and q[ti] >= 1:
                type1.append(arrow)
            if ti <= n_arrows and q[i] >= 1 and p[ti] >= 1:
                type2.append(arrow)
        if type1 or type2:
            report.append((block, tuple(type1), tuple(type2)))
    return report


def fresh_pants():
    return build_QT(triangulation_from_dict(golden("pants.json")))


def sweep_matches_reference(A, bound):
    count = 0
    for d in itertools.product(range(bound + 1), repeat=A.n):
        comps = components(A, d)
        assert comps == reference_components(A, d), d
        for Z in comps:
            assert component_dim(A, Z) == reference_dim(A, Z), Z
            assert block_critical_summands(A, Z) == \
                reference_critical(A, Z), Z
        count += len(comps)
    return count


def test_pants_box_matches_the_per_component_route():
    A = fresh_pants()
    assert sweep_matches_reference(A, 3) == 14536
    # one walk per (block, local dims) of the box
    assert len(A.__dict__["_block_maximals"]) == 176


def test_fuzzed_algebras_match_the_per_component_route():
    count = 0
    for seed in range(40):
        A = random_gentle(random.Random(seed), max_vertices=4)
        count += sweep_matches_reference(A, 2)
    assert count >= 1800


def test_maximal_lists_are_bounded_by_the_local_boxes(monkeypatch):
    walks = []

    def counted(block, dd):
        walks.append((block.block_id, dd))
        return _block_maximal(block, dd)

    monkeypatch.setattr(schemes, "_block_maximal", counted)
    A = fresh_pants()
    box = list(itertools.product(range(3), repeat=A.n))
    for d in box:
        components(A, d)
    kept = A.__dict__["_block_maximals"]
    assert len(kept) == len(walks) == len(set(walks)) == 81
    # at most 3^(vertices of the block) local dims per block
    assert len(kept) <= sum(3 ** len(b.vertices) for b in rho_blocks(A))
    count = 0
    for d in box:
        for Z in components(A, d):
            component_dim(A, Z)
            count += 1
    assert len(walks) == 81
    assert len(A.__dict__["_block_records"]) < count == 1785


def test_records_live_on_the_algebra():
    path = os.path.join(GOLDEN, "torus_quiver.json")
    A, B = load_algebra(path), load_algebra(path)
    assert A == B and A is not B
    d = (2, 1, 1, 1)
    comps = components(A, d)
    dims = [component_dim(A, Z) for Z in comps]
    crit = [block_critical_summands(A, Z) for Z in comps]
    names = ("_block_maximals", "_block_records")
    kept = [A.__dict__[name] for name in names]
    assert all(kept)
    # a second load of the same file shares none of them
    assert not any(name in B.__dict__ for name in names)
    assert components(B, d) == comps
    assert [component_dim(B, Z) for Z in comps] == dims
    assert [block_critical_summands(B, Z) for Z in comps] == crit
    for name, memo in zip(names, kept):
        assert B.__dict__[name] == memo
        assert B.__dict__[name] is not memo
    # no module global holds them, and they die with the algebra
    held = [id(m) for m in kept]
    assert not [k for k, v in vars(schemes).items() if id(v) in held]
    ref = weakref.ref(A)
    del A, kept
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("d", [(True, 1, 0), (1, False, 0), (1.0, 1, 0)])
def test_a_bool_is_no_dimension(a3_relation, d):
    # `make_rep` and `fileio._int` reject them too, and a kept record
    # keyed by True would answer for 1
    with pytest.raises(InvalidDimensionVector):
        components(a3_relation, d)
