import itertools
import random

import pytest

from conftest import case_algebra
from gentlelam import (InputError, InvalidDimensionVector, NotJacobian,
                       StringWord, band_module,
                       block_critical_summands, canonical_decomposition,
                       ceh_by_words, ceh_values, component_dim, components,
                       dim_gl, direct_sum, enumerate_bands, enumerate_strings,
                       generic_point, hom_dim_oracle, is_generically_reduced,
                       is_smooth_point, is_tau_reduced,
                       maximal_rank_functions, rank_function_of,
                       rank_functions, string_module, tangent_dim,
                       strings, tau_reduced_components_census)
from gentlelam.schemes import (components_through, generic_multiset,
                               max_component_dim_through)
from gentlelam.strings import (band_parameters, conjugate, make_rep,
                               random_glpoint, word_sum)


def test_rank_functions_a3(a3_relation):
    maxi = maximal_rank_functions(a3_relation, (1, 1, 1))
    as_sets = {tuple(sorted(r.items())) for r in maxi}
    assert as_sets == {(("a", 1), ("b", 0)), (("a", 0), ("b", 1))}
    maxi2 = maximal_rank_functions(a3_relation, (1, 2, 1))
    assert [dict(m) for m in maxi2] == [{"a": 1, "b": 1}]


def test_rank_functions_loop(loop_algebra):
    assert rank_functions(loop_algebra, (1,)) == [{"a": 0}]


def test_bad_dimension_vectors_are_input_errors(a3_relation):
    assert issubclass(InvalidDimensionVector, InputError)
    for d in ((-1, 0, 0), (1, 1, 1, 1), (1, 1), (1, 0.5, 1)):
        for f in (components, maximal_rank_functions, rank_functions):
            with pytest.raises(InvalidDimensionVector):
                f(a3_relation, d)


def test_a_dimension_vector_check_for_modules_and_words(pants_algebra):
    # the word dictionary and make_rep reject what the schemes reject,
    # before a vertex's room or a matrix shape is read off the entry
    A = pants_algebra
    for d in ((1.9, 1, 1, 1, 1, 1), (True, 1, 1, 1, 1, 1),
              (-1, 1, 1, 1, 1, 1)):
        for f in (enumerate_strings, enumerate_bands):
            with pytest.raises(InvalidDimensionVector):
                f(A, 4, d)
    with pytest.raises(InvalidDimensionVector):
        make_rep(A, (-1, 0, 0, 0, 0, 0), {})
    assert issubclass(InvalidDimensionVector, ValueError)


def test_the_word_search_takes_a_thousand_summands(pants_algebra):
    # one frame per summand on an explicit stack: Python's recursion
    # limit (1,000 by default) does not bound the number of summands
    (Z,) = components(pants_algebra, (1000, 0, 0, 0, 0, 0))
    assert generic_multiset(pants_algebra, Z) == [StringWord((), 1)] * 1000


def test_generic_point_forms_no_matrix_where_no_arrow_acts(monkeypatch,
                                                           pants_algebra):
    # no arrow of the pants has both ends at vertex 1, so the 300 x 300
    # conjugating matrix there would act on nothing
    calls = []
    for name in ("mat_mul", "mat_inverse"):
        real = getattr(strings, name)

        def counted(*args, name=name, real=real):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(strings, name, counted)
    d = (300, 0, 0, 0, 0, 0)
    (Z,) = components(pants_algebra, d)
    M = generic_point(pants_algebra, Z, seed=5)
    assert calls == []
    assert M == direct_sum(pants_algebra, [
        string_module(pants_algebra, StringWord((), 1))] * 300)


def acting(A, dims):
    """The vertices at an end of an arrow with nonzero dims at both ends:
    those where a conjugating matrix acts."""
    return {v for _, s, t in A.quiver.arrows
            if dims[s - 1] and dims[t - 1] for v in (s, t)}


@pytest.mark.parametrize("name", ("pants", "torus_quiver", "double_loop"))
def test_generic_points_keep_the_draws_of_random_glpoint(name):
    # the draws of `random_glpoint` with dim 0 at every vertex no arrow
    # acts on, so a conjugating matrix is drawn only where it acts
    A = case_algebra(name)
    seen = 0
    for d in itertools.product(range(3), repeat=A.n):
        if sum(d) > 5:
            continue
        live = acting(A, d)
        for Z in components(A, d):
            for seed in (0, 3):
                rng = random.Random(seed)
                M = word_sum(A, generic_multiset(A, Z), band_parameters(rng))
                gs = random_glpoint(rng, [x if v in live else 0
                                          for v, x in enumerate(d, 1)], 3)
                assert generic_point(A, Z, seed) == conjugate(A, M, gs), \
                    (d, Z.r, seed)
                seen += 1
    assert seen > 100


def test_conjugators_are_drawn_at_acting_vertices_only(monkeypatch,
                                                       pants_algebra):
    # L and U of a d x d conjugator take d (d - 1) / 2 draws each, and a
    # vertex no arrow acts on takes none: none at all at (300, 0, ..., 0)
    made = []

    class Counting(random.Random):
        def __init__(self, seed=None):
            super().__init__(seed)
            self.randints = 0
            made.append(self)

        def randint(self, a, b):
            self.randints += 1
            return super().randint(a, b)

    monkeypatch.setattr(random, "Random", Counting)
    A = pants_algebra
    box = list(itertools.product(range(3), repeat=A.n))[::7]
    seen = skipped = 0
    for d in [(300, 0, 0, 0, 0, 0)] + box:
        live = acting(A, d)
        skipped += any(d[v - 1] for v in set(range(1, A.n + 1)) - live)
        for Z in components(A, d):
            made.clear()
            generic_point(A, Z, seed=1)
            (rng,) = made
            assert rng.randints == sum(d[v - 1] * (d[v - 1] - 1)
                                       for v in live), (d, Z.r)
            seen += 1
    assert seen > 100 and skipped > 10


def test_component_counts(a3_relation, double_loop, loop_algebra):
    assert len(components(a3_relation, (1, 1, 1))) == 2
    assert len(components(a3_relation, (1, 2, 1))) == 1
    assert len(components(double_loop, (2, 2, 2, 2))) == 3
    assert len(components(loop_algebra, (1,))) == 1
    assert len(components(loop_algebra, (0,))) == 1  # the point


def test_loop_dimension_and_smoothness(loop_algebra):
    Z = components(loop_algebra, (1,))[0]
    assert component_dim(loop_algebra, Z) == 0
    S1 = string_module(loop_algebra, StringWord((), 1))
    assert not is_smooth_point(loop_algebra, S1)
    assert tangent_dim(loop_algebra, S1) == 1
    assert not is_generically_reduced(loop_algebra, Z)
    Z2 = components(loop_algebra, (2,))[0]
    assert is_generically_reduced(loop_algebra, Z2)


def test_double_loop_band_components(double_loop):
    d = (2, 2, 2, 2)
    for Z in components(double_loop, d):
        assert component_dim(double_loop, Z) == dim_gl(d) == 16
        labels = canonical_decomposition(double_loop, Z, seed=3)
        assert all(kind == "band" for kind, _ in labels)


def test_orbit_closure_dimension_formula(torus_algebra):
    # rigid string module: dim of its component is dim GL - dim End
    A = torus_algebra
    from gentlelam import is_tau_rigid
    for C in enumerate_strings(A, 4):
        M = string_module(A, C)
        if not is_tau_rigid(A, M):
            continue
        rM = rank_function_of(A, M)
        hits = [Z for Z in components(A, M.dims) if Z.rank() == rM]
        assert hits, str(C)
        want = dim_gl(M.dims) - hom_dim_oracle(A, M, M)
        assert component_dim(A, hits[0]) == want
        break


def test_simple_sum_singular(a3_relation):
    M = direct_sum(a3_relation, [
        string_module(a3_relation, StringWord((), v)) for v in (1, 2, 3)])
    assert not is_smooth_point(a3_relation, M)
    assert tangent_dim(a3_relation, M) == 2
    assert max_component_dim_through(a3_relation, M) == 1


def test_smoothness_oracle_small_corpus(loop_algebra, a3_relation,
                                        double_loop):
    rng = random.Random(9)
    for A in (loop_algebra, a3_relation, double_loop):
        words = enumerate_strings(A, 3) + enumerate_bands(A, 4)
        mods = [band_module(A, w, 2) if not isinstance(w, StringWord)
                else string_module(A, w) for w in words]
        pool = list(mods)
        for _ in range(25):
            parts = rng.sample(mods, k=min(len(mods), rng.randint(1, 3)))
            M = direct_sum(A, parts)
            if max(M.dims) > 3:
                continue
            pool.append(M)
        for M in pool:
            if M.dim() == 0:
                continue
            assert is_smooth_point(A, M) == \
                (tangent_dim(A, M) == max_component_dim_through(A, M))


def test_singular_iff_two_components_jacobian(torus_algebra):
    A = torus_algebra
    rng = random.Random(15)
    words = enumerate_strings(A, 3)
    mods = [string_module(A, w) for w in words]
    for _ in range(20):
        parts = rng.sample(mods, k=rng.randint(1, 2))
        M = direct_sum(A, parts)
        n_comp = len(components_through(A, M))
        assert is_smooth_point(A, M) == (n_comp == 1)


def test_critical_summands_band_components(double_loop):
    for Z in components(double_loop, (2, 2, 2, 2)):
        assert block_critical_summands(double_loop, Z) == []


def test_critical_summands_type2(torus_algebra):
    # a component whose a-block generic module is P_2 + S_1: type II at a1
    A = torus_algebra
    d = (1, 1, 1, 0)
    hits = []
    for Z in components(A, d):
        if Z.rank().get("a2") == 1 and Z.rank().get("a1") == 0:
            for block, t1, t2 in block_critical_summands(A, Z):
                hits.extend(t2)
    assert "a1" in hits


def test_is_tau_reduced_needs_jacobian(a3_relation):
    Z = components(a3_relation, (1, 1, 1))[0]
    with pytest.raises(NotJacobian):
        is_tau_reduced(a3_relation, Z)


def test_generic_point_rank(torus_algebra):
    A = torus_algebra
    rng = random.Random(2)
    for _ in range(6):
        d = tuple(rng.randint(0, 2) for _ in range(4))
        for Z in components(A, d)[:2]:
            M = generic_point(A, Z, seed=rng.randint(0, 99))
            assert rank_function_of(A, M) == Z.rank()
            assert M.dims == d


def test_ceh_band_and_rigid(double_loop, torus_algebra):
    Z = components(double_loop, (2, 2, 2, 2))[0]
    assert ceh_values(double_loop, Z, seed=1) == (1, 1, 1)
    for Z in components(double_loop, (2, 2, 2, 2)):
        assert ceh_by_words(double_loop, Z) == ceh_values(double_loop, Z,
                                                          seed=11)
    # a tau-rigid orbit closure has ceh (0,0,0)
    A = torus_algebra
    from gentlelam import is_tau_rigid
    for C in enumerate_strings(A, 3):
        M = string_module(A, C)
        if is_tau_rigid(A, M) and M.dim() > 0:
            Z = [Z for Z in components(A, M.dims)
                 if Z.rank() == rank_function_of(A, M)][0]
            assert ceh_values(A, Z, seed=1) == (0, 0, 0)
            assert ceh_by_words(A, Z) == (0, 0, 0)
            break


def test_ceh_inequalities_fuzzed(torus_algebra):
    A = torus_algebra
    rng = random.Random(4)
    for _ in range(4):
        d = tuple(rng.randint(0, 2) for _ in range(4))
        for Z in components(A, d)[:2]:
            c, e, h = ceh_values(A, Z, seed=5)
            assert ceh_by_words(A, Z) == (c, e, h)
            assert 0 <= c <= e <= h
            if is_generically_reduced(A, Z):
                assert c == e
            if is_tau_reduced(A, Z):
                assert c == h


def test_canonical_decomposition_counts(torus_algebra):
    A = torus_algebra
    d = (1, 1, 0, 0)
    for Z in components(A, d):
        labels = canonical_decomposition(A, Z, seed=2)
        n_strings = sum(1 for k, _ in labels if k == "string")
        assert n_strings == sum(d) - sum(Z.rank().values())


def test_band_only_iff_dim_gl(double_loop):
    A = double_loop
    rng = random.Random(6)
    for _ in range(6):
        d = tuple(rng.randint(0, 2) for _ in range(4))
        if sum(d) == 0:
            continue
        for Z in components(A, d)[:3]:
            labels = canonical_decomposition(A, Z, seed=3)
            band_only = all(k == "band" for k, _ in labels) and labels
            assert bool(band_only) == \
                (component_dim(A, Z) == dim_gl(d)), (d, Z.r)


def test_census_small(torus_algebra):
    out = tau_reduced_components_census(torus_algebra, 1)
    seen_d = [d for d, _ in out]
    assert len(seen_d) == len(set(seen_d))  # at most one per dimension vector
    assert ((0, 0, 0, 0), components(torus_algebra, (0, 0, 0, 0))[0]) \
        in [(d, Z) for d, Z in out]


def test_census_simple_modules(torus_algebra):
    from gentlelam import is_tau_rigid
    out = dict(tau_reduced_components_census(torus_algebra, 1))
    for j in range(1, 5):
        d = tuple(1 if i == j - 1 else 0 for i in range(4))
        S = string_module(torus_algebra, StringWord((), j))
        if is_tau_rigid(torus_algebra, S):
            assert d in out
        else:
            assert d not in out
