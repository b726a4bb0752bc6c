import random

import pytest

from conftest import golden
from gentlelam import (CurveSeq, DecoratedModule, LaurentPoly, ShapeMismatch,
                       bangle,
                       bangle_lamination, band_module, cc_prime,
                       coefficient_quiver, curve_to_module, direct_sum,
                       enumerate_strings, make_lamination, order_coideals,
                       shear_coordinates, signed_adjacency, specialize,
                       string_module, string_to_curve, validate_curve,
                       verify_bangle_equals_generic, yhat)
from gentlelam.strings import (conjugate, decompose, parse_word,
                               random_glpoint, string_word, zero_rep)
from gentlelam.surface import CoefficientQuiver

SIGMA = (3, 6, 1, 5, 4, 6, 2)
# a 13-letter string on the pants algebra, the module of an open curve
LONG = ("t0:1>2-,t2:2>3-,t1:3>4-,t3:4>5-,t4:1>5,t0:1>2-,t2:2>3-,t1:3>4-,"
        "t3:4>5-,t4:1>5,t0:1>2-,t2:2>3-,t1:3>4-")


def test_poly_arithmetic():
    x = LaurentPoly.monomial(2, (1, 0), (0, 0))
    y = LaurentPoly.monomial(2, (0, -1), (1, 0), 3)
    s = x + y
    assert len(s.terms) == 2
    p = s * s
    assert dict(p.terms)[((2, 0), (0, 0))] == 1
    assert dict(p.terms)[((1, -1), (1, 0))] == 6
    assert dict(p.terms)[((0, -2), (2, 0))] == 9
    assert (x + LaurentPoly.monomial(2, (1, 0), (0, 0), -1)).terms == ()


def test_poly_arithmetic_needs_one_n():
    # the exponents were zipped: x1*y3 (n = 3) times x4^5*y4 (n = 4) gave
    # x1*y3, and the sum an n = 3 polynomial holding a 4-tuple term
    p = LaurentPoly.monomial(3, (1, 0, 0), (0, 0, 1))
    q = LaurentPoly.monomial(4, (0, 0, 0, 5), (0, 0, 0, 1))
    for a, b in ((p, q), (q, p)):
        with pytest.raises(ShapeMismatch, match="variables"):
            a * b
        with pytest.raises(ShapeMismatch, match="variables"):
            a + b
    assert (p * p).n == (p + p).n == 3


def test_specialize_and_yhat_need_shapes_of_n(pants):
    # a short y-list raised a bare IndexError and a long one was cut;
    # yhat(0, B) read column -1 of B and yhat(n + 1, B) an IndexError
    B = signed_adjacency(pants)
    n = len(B)
    p = yhat(2, B) * yhat(2, B)
    assert specialize(p, [3] * n) == LaurentPoly.monomial(
        n, [2 * row[1] for row in B], (0,) * n, 9)
    for values in ([3] * (n - 1), [3] * (n + 1), []):
        with pytest.raises(ShapeMismatch, match=f"{len(values)} y-values"):
            specialize(p, values)
    for j in (0, n + 1, -1):
        with pytest.raises(ShapeMismatch, match=f"label {j}"):
            yhat(j, B)


def test_poly_json_roundtrip():
    p = LaurentPoly.from_dict(2, {((1, -2), (0, 3)): 5, ((0, 0), (0, 0)): -1})
    assert LaurentPoly.from_json(2, p.to_json()) == p


def test_signed_adjacency_matches_golden(pants):
    assert signed_adjacency(pants) == golden("pants_expected.json")[
        "signed_adjacency"]


def test_signed_adjacency_hexagon(hexagon):
    B = signed_adjacency(hexagon)
    assert B == [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]


def test_signed_adjacency_skew(pants, annulus):
    for T in (pants, annulus):
        B = signed_adjacency(T)
        n = len(B)
        for i in range(n):
            for j in range(n):
                assert B[i][j] == -B[j][i]


def test_yhat_columns(pants):
    B = signed_adjacency(pants)
    y2 = yhat(2, B)
    ((xe, ye), c), = y2.terms
    assert c == 1 and ye == (0, 1, 0, 0, 0, 0)
    assert xe == (1, 0, -1, 0, 0, -1)  # y2 * x1 / (x3 x6)
    y4 = yhat(4, B)
    ((xe4, ye4), _), = y4.terms
    assert xe4 == (0, 0, 1, 0, -1, -1)  # y4 * x3 / (x5 x6)
    zero = [[0] * 6 for _ in range(6)]
    ((xe0, ye0), _), = yhat(3, zero).terms
    assert xe0 == (0,) * 6 and ye0 == (0, 0, 1, 0, 0, 0)


def test_order_coideals_small():
    empty = CoefficientQuiver((), (), False)
    assert order_coideals(empty) == [frozenset()]
    one_arrow = CoefficientQuiver((1, 2), ((1, 2, "a"),), False)
    got = {tuple(sorted(I)) for I in order_coideals(one_arrow)}
    assert got == {(), (1,), (1, 2)}


def test_sigma_coideal_count_and_brute_force(pants):
    sigma = validate_curve(pants, "loop", SIGMA)
    Q = coefficient_quiver(pants, sigma)
    cs = order_coideals(Q)
    # independent exhaustive filter over all 2^7 subsets
    preds = {}
    for u, v, _ in Q.arrows:
        preds.setdefault(v, set()).add(u)
    brute = 0
    for mask in range(1 << 7):
        S = {i + 1 for i in range(7) if mask >> i & 1}
        if all(preds.get(v, set()) <= S for v in S):
            brute += 1
    assert len(cs) == brute == golden("pants_expected.json")["coideal_count"]


def test_bangle_of_arc(pants):
    p = bangle(pants, CurveSeq("arc", arc=3))
    ((xe, ye), c), = p.terms
    assert c == 1 and xe == (0, 0, 1, 0, 0, 0) and ye == (0,) * 6


def test_annulus_loop_bangle(annulus):
    loop = validate_curve(annulus, "loop", (1, 2))
    p = bangle(annulus, loop)
    assert len(p.terms) == 3
    sp = specialize(p)
    want = LaurentPoly.from_dict(2, {
        ((1, -1), (0, 0)): 1, ((-1, 1), (0, 0)): 1, ((-1, -1), (0, 0)): 1})
    assert sp == want  # (x1^2 + x2^2 + 1) / (x1 x2)


def test_sigma_bangle_displayed_terms(pants):
    B = signed_adjacency(pants)
    sigma = validate_curve(pants, "loop", SIGMA)
    bg = bangle(pants, sigma, B)
    s = shear_coordinates(pants, sigma)
    xs = LaurentPoly.monomial(6, s, (0,) * 6)
    expected = golden("pants_expected.json")["displayed_contributions"]
    for js, want in (((2,), expected["y2"]), ((4, 2), expected["y2*y4"]),
                     ((4, 6, 2), expected["y2*y4*y6"])):
        t = xs
        for j in js:
            t = t * yhat(j, B)
        (key, _), = t.terms
        assert dict(bg.terms).get(key) == want
    assert specialize(bg, [1] * 6).coeff_sum() == bg.coeff_sum() == 26


def test_bangle_term_count_is_coideal_count(pants):
    B = signed_adjacency(pants)
    for seq in ((6, 2, 3), (1, 6, 4, 5), SIGMA):
        g = validate_curve(pants, "loop", seq)
        Q = coefficient_quiver(pants, g)
        assert bangle(pants, g, B).coeff_sum() == len(order_coideals(Q))


def test_bangle_positivity(pants):
    B = signed_adjacency(pants)
    for seq in ((6, 2, 3), (1, 6, 4, 5), SIGMA):
        g = validate_curve(pants, "loop", seq)
        assert all(c > 0 for _, c in bangle(pants, g, B).terms)


def test_bangle_homogeneity(pants):
    # deg x_j = e_j, deg y_j = -sum_i b_ij e_i: all terms share one degree
    B = signed_adjacency(pants)
    sigma = validate_curve(pants, "loop", SIGMA)
    bg = bangle(pants, sigma, B)
    degs = set()
    for (xe, ye), _ in bg.terms:
        d = list(xe)
        for j, e in enumerate(ye):
            if e:
                for i in range(6):
                    d[i] -= B[i][j] * e
        degs.add(tuple(d))
    assert len(degs) == 1


def test_bangle_lamination_arcs_only(pants, pants_algebra):
    L = make_lamination(pants, [(CurveSeq("arc", arc=1), 2),
                                (CurveSeq("arc", arc=6), 1)])
    p = bangle_lamination(pants, L)
    ((xe, ye), c), = p.terms
    assert c == 1 and xe == (2, 0, 0, 0, 0, 1) and ye == (0,) * 6


def test_bangle_lamination_square(pants, pants_algebra):
    p1 = validate_curve(pants, "loop", (6, 2, 3))
    L = make_lamination(pants, [(p1, 2)])
    assert bangle_lamination(pants, L) == bangle(pants, p1) ** 2


def test_naive_product_oracle(pants, pants_algebra):
    p1 = validate_curve(pants, "loop", (6, 2, 3))
    arc = CurveSeq("arc", arc=4)
    L = make_lamination(pants, [(p1, 1), (arc, 1)])
    got = bangle_lamination(pants, L)
    # expand the product naively term by term
    a, b = bangle(pants, p1), bangle(pants, arc)
    naive = {}
    for (x1, y1), c1 in a.terms:
        for (x2, y2), c2 in b.terms:
            k = (tuple(u + v for u, v in zip(x1, x2)),
                 tuple(u + v for u, v in zip(y1, y2)))
            naive[k] = naive.get(k, 0) + c1 * c2
    assert got == LaurentPoly.from_dict(6, naive)


def test_cc_prime_negative_simple(pants, pants_algebra):
    dec = DecoratedModule(zero_rep(pants_algebra), (0, 0, 1, 0, 0, 0))
    p = cc_prime(pants, dec)
    ((xe, ye), c), = p.terms
    assert c == 1 and xe == (0, 0, 1, 0, 0, 0)
    dec0 = DecoratedModule(zero_rep(pants_algebra), (0,) * 6)
    assert cc_prime(pants, dec0) == LaurentPoly.one(6)


def test_cc_prime_of_sigma_band_is_bangle(pants, pants_algebra):
    sigma = validate_curve(pants, "loop", SIGMA)
    w = curve_to_module(pants, sigma)
    M = band_module(pants_algebra, w, 5)
    dec = DecoratedModule(M, (0,) * 6)
    assert cc_prime(pants, dec) == bangle(pants, sigma)


def test_cc_prime_multiplicative(pants, pants_algebra):
    A = pants_algebra
    rng = random.Random(12)
    words = enumerate_strings(A, 4)
    z = (0,) * 6
    for _ in range(4):
        M = string_module(A, rng.choice(words))
        N = string_module(A, rng.choice(words))
        lhs = cc_prime(pants, DecoratedModule(direct_sum(A, [M, N]), z))
        rhs = cc_prime(pants, DecoratedModule(M, z)) * \
            cc_prime(pants, DecoratedModule(N, z))
        assert lhs == rhs


def test_cc_prime_names_a_long_conjugated_string(pants, pants_algebra):
    # no dictionary bound: a string longer than any former default is
    # named at a conjugated point, and its dual CC function is the bangle
    A = pants_algebra
    C = string_word(A, parse_word(LONG))
    assert len(C) == 13
    M = string_module(A, C)
    M = conjugate(A, M, random_glpoint(random.Random(5), M.dims, 3))
    assert decompose(A, M) == [C]
    assert cc_prime(pants, DecoratedModule(M, (0,) * 6)) == \
        bangle(pants, string_to_curve(pants, A, C))


def test_verify_single_arcs(pants, pants_algebra):
    for j in (1, 4):
        L = make_lamination(pants, [(CurveSeq("arc", arc=j), 1)])
        eq, *_ = verify_bangle_equals_generic(pants, L)
        assert eq


def test_verify_petals(pants, pants_algebra):
    p1 = validate_curve(pants, "loop", (6, 2, 3))
    p2 = validate_curve(pants, "loop", (1, 6, 4, 5))
    L = make_lamination(pants, [(p1, 1), (p2, 1)])
    eq, *_ = verify_bangle_equals_generic(pants, L)
    assert eq


def test_specialize_yhat(pants):
    B = signed_adjacency(pants)
    sp = specialize(yhat(2, B))
    ((xe, ye), c), = sp.terms
    assert ye == (0,) * 6 and xe == (1, 0, -1, 0, 0, -1) and c == 1
