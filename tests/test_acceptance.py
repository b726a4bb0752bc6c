"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import itertools
import random
import time

import pytest

from conftest import golden
from gentlelam import (BandWord, DecoratedModule, LaurentPoly,
                       StringWord, band_module, bangle, canonical_decomposition, cc_prime, ceh_by_words, ceh_values,
                       component_dim, components, decorated_g_vector, dim_gl,
                       direct_sum, enumerate_bands, enumerate_strings, eta,
                       hom_dim_oracle, is_generically_reduced,
                       is_smooth_point, is_tau_reduced, iso_test,
                       shear_coordinates,
                       shear_of_lamination, signed_adjacency, specialize,
                       standard_homs, string_module, tangent_dim, tau_dtr,
                       tau_reduced_components_census, tau_string,
                       validate_curve, verify_bangle_equals_generic)
from gentlelam.schemes import max_component_dim_through
from ff_oracle import euler_char_factor_grassmannian
from lamgen import random_laminations

SIGMA = (3, 6, 1, 5, 4, 6, 2)


def _report(name, detail):
    print(f"\n[criterion {name}] PASS  {detail}")


def test_criterion_1_component_census(loop_algebra, a3_relation, double_loop):
    t0 = time.time()
    # loop algebra
    cs = components(loop_algebra, (1,))
    assert len(cs) == 1
    assert component_dim(loop_algebra, cs[0]) == 0
    S1 = string_module(loop_algebra, StringWord((), 1))
    assert not is_smooth_point(loop_algebra, S1)
    assert not is_generically_reduced(loop_algebra, cs[0])
    assert is_generically_reduced(loop_algebra, components(loop_algebra,
                                                           (2,))[0])
    # chain with one relation
    assert len(components(a3_relation, (1, 1, 1))) == 2
    assert len(components(a3_relation, (1, 2, 1))) == 1
    # two loops and a 2-cycle
    d = (2, 2, 2, 2)
    cs = components(double_loop, d)
    assert len(cs) == 3
    for Z in cs:
        assert component_dim(double_loop, Z) == dim_gl(d) == 16
        labels = canonical_decomposition(double_loop, Z, seed=3)
        assert labels and all(kind == "band" for kind, _ in labels)
    assert time.time() - t0 < 30
    _report("1", "component census over the three reference algebras")


def test_criterion_2_golden_example(pants, pants_algebra):
    t0 = time.time()
    expected = golden("pants_expected.json")
    B = signed_adjacency(pants)
    assert B == expected["signed_adjacency"]
    sigma = validate_curve(pants, "loop", SIGMA)
    s = shear_coordinates(pants, sigma)
    assert list(s) == expected["figure_eight_shear"] == [0, -1, 1, -1, 1, 0]
    bg = bangle(pants, sigma, B)
    xs = LaurentPoly.monomial(6, s, (0,) * 6)
    from gentlelam import yhat
    shown = expected["displayed_contributions"]
    for js, want in (((2,), shown["y2"]), ((4, 2), shown["y2*y4"]),
                     ((4, 6, 2), shown["y2*y4*y6"])):
        t = xs
        for j in js:
            t = t * yhat(j, B)
        (key, _), = t.terms
        assert dict(bg.terms).get(key) == want
    # coideal count recorded from the 2^7 brute force
    from gentlelam import coefficient_quiver, order_coideals
    Q = coefficient_quiver(pants, sigma)
    preds = {}
    for u, v, _ in Q.arrows:
        preds.setdefault(v, set()).add(u)
    brute = sum(1 for mask in range(1 << 7)
                if all(preds.get(v, set()) <= {i + 1 for i in range(7)
                                               if mask >> i & 1}
                       for v in range(1, 8) if mask >> (v - 1) & 1))
    assert brute == len(order_coideals(Q)) == expected["coideal_count"] == 26
    # bangle equals the dual CC function of the band module, exactly
    w = __import__("gentlelam").curve_to_module(pants, sigma)
    M = band_module(pants_algebra, w, 7)
    assert bg == cc_prime(pants, DecoratedModule(M, (0,) * 6))
    assert time.time() - t0 < 10
    _report("2", "matrix, shear, displayed terms, coideal count 26 "
            "(prose said 27; discrepancy recorded in the golden file), "
            "bangle == dual CC of the band module")


@pytest.fixture(scope="module")
def hom_corpora(torus_algebra, a3_relation, pants_algebra):
    # per-algebra length caps keep the full suite fast while the pair
    # total stays well above the 10^4 floor
    caps = ((torus_algebra, 5), (a3_relation, 8), (pants_algebra, 5))
    out = []
    for A, cap in caps:
        words = enumerate_strings(A, cap) + enumerate_bands(A, cap)
        mods = {w: band_module(A, w, 1) if isinstance(w, BandWord)
                else string_module(A, w) for w in words}
        out.append((A, words, mods))
    return out


def test_criterion_3a_standard_hom_basis(hom_corpora):
    t0 = time.time()
    pairs = 0
    for A, words, mods in hom_corpora:
        for X in words:
            for Y in words:
                assert len(standard_homs(A, X, Y)) == \
                    hom_dim_oracle(A, mods[X], mods[Y]), (str(X), str(Y))
                pairs += 1
    assert pairs >= 10 ** 4
    _report("3a", f"{pairs} pairs, zero mismatches "
            f"({round(time.time() - t0, 1)}s)")


def test_criterion_3b_tau_agreement(torus_algebra, a3_relation,
                                    pants_algebra):
    t0 = time.time()
    checked = 0
    for A in (torus_algebra, a3_relation, pants_algebra):
        for C in enumerate_strings(A, 8):
            M = string_module(A, C)
            t_comb = tau_string(A, C)
            t_hom = tau_dtr(A, M)
            if t_comb is None:
                assert t_hom.dim() == 0, str(C)
            else:
                assert iso_test(A, string_module(A, t_comb), t_hom), str(C)
            checked += 1
    _report("3b", f"{checked} strings of length <= 8 "
            f"({round(time.time() - t0, 1)}s)")


def test_criterion_3c_smoothness_oracle(loop_algebra, a3_relation,
                                        double_loop, pants_algebra):
    t0 = time.time()
    rng = random.Random(77)
    checked = 0
    for A in (loop_algebra, a3_relation, double_loop, pants_algebra):
        words = enumerate_strings(A, 3) + enumerate_bands(A, 5)
        mods = [band_module(A, w, 2) if isinstance(w, BandWord)
                else string_module(A, w) for w in words]
        corpus = list(mods)
        for _ in range(40):
            parts = rng.sample(mods, k=min(len(mods), rng.randint(2, 3)))
            M = direct_sum(A, parts)
            if max(M.dims) <= 3:
                corpus.append(M)
        for M in corpus:
            if M.dim() == 0:
                continue
            assert is_smooth_point(A, M) == \
                (tangent_dim(A, M) == max_component_dim_through(A, M))
            checked += 1
    _report("3c", f"{checked} modules, rank criterion == tangent oracle "
            f"({round(time.time() - t0, 1)}s)")


def test_criterion_3d_e_invariant_formulas(hom_corpora):
    # e_invariant computes both expressions and raises on any mismatch
    from gentlelam import e_invariant
    t0 = time.time()
    rng = random.Random(5)
    checked = 0
    for A, words, mods in hom_corpora:
        z = (0,) * A.n
        sample = [rng.choice(words) for _ in range(16)]
        for X in sample:
            for Y in sample:
                e_invariant(A, DecoratedModule(mods[X], z),
                            DecoratedModule(mods[Y], z))
                checked += 1
    _report("3d", f"both formulas agreed on {checked} pairs "
            f"({round(time.time() - t0, 1)}s)")


def test_criterion_4_tau_reduced_theory(pants_algebra):
    t0 = time.time()
    A = pants_algebra
    # (i) uniqueness per dimension vector; the census raises otherwise
    census = tau_reduced_components_census(A, 2)
    ds = [d for d, _ in census]
    assert len(ds) == len(set(ds))
    # (ii) block criterion == sampled c = e = h on every component
    n_comp = 0
    band_like = []
    for d in itertools.product(range(3), repeat=6):
        for Z in components(A, d):
            n_comp += 1
            c, e, h = ceh_values(A, Z, seed=11)
            assert is_tau_reduced(A, Z) == (c == e == h), (d, Z.r)
            assert ceh_by_words(A, Z) == (c, e, h), (d, Z.r)
            if sum(d) and component_dim(A, Z) == dim_gl(d):
                band_like.append((Z, (c, e, h)))
    # (iii) indecomposable band components have c = e = h = 1
    n_band = 0
    for Z, ceh in band_like:
        labels = canonical_decomposition(A, Z, seed=2)
        assert all(k == "band" for k, _ in labels)
        if len(labels) == 1:
            assert ceh == (1, 1, 1), Z
            n_band += 1
    assert n_band >= 3
    _report("4", f"census over 3^6 dimension vectors, {n_comp} components, "
            f"{len(census)} tau-reduced, {n_band} band components at "
            f"(1,1,1) ({round(time.time() - t0, 1)}s)")


def test_criterion_5_lamination_correspondence(pants, pants_algebra):
    t0 = time.time()
    A = pants_algebra
    lams = random_laminations(pants, A, 50, seed=123)
    shears = {}
    for L in lams:
        DZ = eta(pants, L)
        s = shear_of_lamination(pants, L)
        assert decorated_g_vector(A, DZ) == s, L
        # distinct laminations carry distinct shear vectors
        assert s not in shears, (L, shears[s])
        shears[s] = L
        equal, lhs, rhs, diff = verify_bangle_equals_generic(pants, L)
        assert equal, (L, diff)
    _report("5", f"{len(lams)} random laminations: g == shear (all "
            f"distinct) and bangle == generic dual CC "
            f"({round(time.time() - t0, 1)}s)")


def test_criterion_6_annulus_sanity(annulus):
    t0 = time.time()
    A = __import__("gentlelam").build_QT(annulus)
    loop = validate_curve(annulus, "loop", (1, 2))
    p = bangle(annulus, loop)
    assert len(p.terms) == 3
    sp = specialize(p)
    want = LaurentPoly.from_dict(2, {
        ((1, -1), (0, 0)): 1, ((-1, 1), (0, 0)): 1, ((-1, -1), (0, 0)): 1})
    assert sp == want
    # certify the counting route against the finite-field oracle
    w = __import__("gentlelam").curve_to_module(annulus, loop)
    M = band_module(A, w, 1)
    from gentlelam import coefficient_quiver, order_coideals
    Q = coefficient_quiver(annulus, loop)
    degs = {}
    for I in order_coideals(Q):
        e = [0, 0]
        for pos in I:
            e[Q.labels[pos - 1] - 1] += 1
        degs[tuple(e)] = degs.get(tuple(e), 0) + 1
    for e in itertools.product(range(2), repeat=2):
        assert euler_char_factor_grassmannian(A, M, e) == degs.get(e, 0)
    _report("6", "annulus loop: 3 terms, equals (x1^2+x2^2+1)/(x1 x2) at "
            f"y=1, chi certified over finite fields "
            f"({round(time.time() - t0, 1)}s)")
