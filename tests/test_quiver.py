import random

import pytest

from fuzz import random_gentle
from gentlelam import (NonComposableRelation, NotGentle, Quiver, is_jacobian,
                       rho_blocks, transport_dimvec, validate_gentle)


def test_single_loop_with_square_zero_is_gentle(loop_algebra):
    assert loop_algebra.relations == frozenset({("a", "a")})


def test_chain_with_relation_is_gentle(a3_relation):
    assert ("a", "b") in a3_relation.relations


def test_three_outgoing_arrows_rejected():
    q = Quiver(2, (("a", 1, 2), ("b", 1, 2), ("c", 1, 2)))
    with pytest.raises(NotGentle, match="axiom"):
        validate_gentle(q, [])


@pytest.mark.parametrize("aid", ["a-", "a,b", "1@2", "", " a", "a\n", 5,
                                 None, ("a",)])
def test_arrow_ids_that_word_text_misreads_are_rejected(aid):
    with pytest.raises(ValueError, match="arrow id"):
        Quiver(2, (("b", 1, 2), (aid, 2, 1)))


@pytest.mark.parametrize("n", [-1, -5])
def test_a_negative_vertex_count_is_rejected(n):
    # no arrow endpoint is range-checked against n when there is no arrow
    with pytest.raises(ValueError, match="vertex count"):
        Quiver(n, ())


def test_arrow_ids_of_the_word_text_are_kept():
    # an inner '-', '@' or space and the ids build_QT writes all pass
    q = Quiver(2, (("a-b", 1, 2), ("x@1", 2, 1), ("c d", 1, 1),
                   ("t0:2>b3", 2, 2)))
    assert q.arrow_ids == ("a-b", "x@1", "c d", "t0:2>b3")


def test_noncomposable_relation_rejected():
    q = Quiver(3, (("a", 1, 2), ("b", 2, 3)))
    with pytest.raises(NonComposableRelation):
        validate_gentle(q, [("a", "b")])


def test_axiom_three_violation():
    # two arrows into 2 and one out, with both composites surviving
    q = Quiver(3, (("a", 1, 2), ("b", 3, 2), ("c", 2, 1)))
    with pytest.raises(NotGentle):
        validate_gentle(q, [])


def test_unbounded_paths_rejected():
    # 2-cycle with no relations is infinite-dimensional
    q = Quiver(2, (("a", 1, 2), ("b", 2, 1)))
    with pytest.raises(NotGentle, match="admissible"):
        validate_gentle(q, [])


def test_jacobian_examples(torus_algebra, loop_algebra, a3_relation):
    assert is_jacobian(torus_algebra)
    assert not is_jacobian(loop_algebra)  # loops are forbidden
    assert not is_jacobian(a3_relation)  # no completing 3-cycle


def test_disconnected_gentle_but_not_jacobian():
    q = Quiver(2, (("a", 1, 1), ("b", 2, 2)))
    A = validate_gentle(q, [("a", "a"), ("b", "b")])
    assert not is_jacobian(A)


def test_blocks_of_linear_path_algebra():
    n = 5
    q = Quiver(n, tuple((f"a{i}", i, i + 1) for i in range(1, n)))
    A = validate_gentle(q, [])
    blocks = rho_blocks(A)
    assert len(blocks) == n - 1
    assert all(b.type_name == "C2" for b in blocks)


def test_blocks_of_torus_algebra(torus_algebra):
    blocks = rho_blocks(torus_algebra)
    names = sorted(b.type_name for b in blocks)
    assert names == ["C2", "C~3", "C~3"]
    sizes = sorted(len(b.vertices) for b in blocks)
    assert sizes == [2, 3, 3]


def test_wheel_block_and_transport():
    q = Quiver(5, (("a1", 1, 2), ("a2", 2, 3), ("a3", 3, 4), ("a4", 4, 5),
                   ("a5", 5, 3), ("a6", 3, 1), ("a7", 1, 5)))
    rels = [(f"a{i + 1}", f"a{i}") for i in range(1, 7)]
    A = validate_gentle(q, rels)
    blocks = rho_blocks(A)
    assert len(blocks) == 1
    b = blocks[0]
    assert b.type_name == "C8"
    d = (10, 20, 30, 40, 50)
    assert transport_dimvec(b, d) == (10, 20, 30, 40, 50, 30, 10, 50)


def test_transport_two_block(a3_relation):
    # the free 2-blocks of a path algebra read off source then target
    q = Quiver(2, (("a", 2, 1),))
    A = validate_gentle(q, [])
    b = rho_blocks(A)[0]
    assert transport_dimvec(b, (7, 9)) == (9, 7)


def test_transport_three_block(torus_algebra):
    blocks = {b.arrows: b for b in rho_blocks(torus_algebra)}
    b = blocks[("a1", "a2", "a3")]
    d = (1, 2, 3, 4)
    assert transport_dimvec(b, d) == tuple(d[v - 1] for v in b.relabel)
    assert len(b.relabel) == 3


def test_transport_length_mismatch(torus_algebra):
    b = rho_blocks(torus_algebra)[0]
    with pytest.raises(ValueError):
        transport_dimvec(b, (1,))


def test_block_partition_fuzzed():
    rng = random.Random(13)
    for _ in range(40):
        A = random_gentle(rng)
        blocks = rho_blocks(A)
        covered = [a for b in blocks for a in b.arrows]
        assert sorted(covered) == sorted(A.arrow_ids)
        from collections import Counter
        vertex_count = Counter(v for b in blocks for v in b.vertices)
        assert all(c <= 2 for c in vertex_count.values())
        assert set(vertex_count) == set(range(1, A.n + 1))


def test_block_model_consistency_fuzzed():
    rng = random.Random(29)
    for _ in range(40):
        A = random_gentle(rng)
        for b in rho_blocks(A):
            chain = list(b.arrows)
            block_rels = {(x, y) for (x, y) in A.relations
                          if x in set(chain) or y in set(chain)}
            model_rels = set()
            for i in range(len(chain) - 1):
                model_rels.add((chain[i + 1], chain[i]))
            if b.block_type == "Ct" and chain:
                model_rels.add((chain[0], chain[-1]))
            assert block_rels == model_rels


def test_jacobian_relations_sit_in_three_blocks():
    rng = random.Random(41)
    hits = 0
    for _ in range(120):
        A = random_gentle(rng)
        if not is_jacobian(A):
            continue
        hits += 1
        by_arrow = {a: b for b in rho_blocks(A) for a in b.arrows}
        for x, y in A.relations:
            bx = by_arrow[x]
            assert bx is by_arrow[y]
            assert bx.type_name == "C~3"
    assert hits >= 3  # the fuzzer does hit Jacobian algebras


def test_arrow_ids_are_one_tuple_kept_on_the_quiver(torus_algebra):
    A = torus_algebra
    ids = A.arrow_ids
    assert ids == tuple(aid for aid, _, _ in A.quiver.arrows)
    assert A.arrow_ids is ids and A.quiver.arrow_ids is ids
