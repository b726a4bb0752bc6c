"""`_try_split` reads each vertex block's rational eigenvalues once and
builds an eigenspace only where its eigenvalue lives; the previous route,
which takes ker (phi - r)^dim at every vertex for every rational root of
every block, is kept here as the reference.  `rational_roots` takes the
roots of linear and quadratic polynomials, and `charpoly` a 2 x 2
matrix, in closed form; the Fraction routes of `test_integer_routes` are
their reference.  `decompose` does not test a block of a support split
for a support split again."""

import random
from fractions import Fraction

from gentlelam import (band_module, direct_sum, enumerate_bands,
                       enumerate_strings, exactlinalg, string_module,
                       strings)
from gentlelam.exactlinalg import (charpoly, identity, mat_inverse, mat_mul,
                                   nullspace, rational_roots, rref)
from gentlelam.strings import (_subrep, _try_split, conjugate,
                               random_glpoint)
from conftest import hom_basis
from test_decompose_paths import eigen_endo, golden_algebras
from test_integer_routes import reference_rational_roots, reference_subrep

SEED = 16


def reference_bases(A, rep, phi):
    """The per-vertex bases of the previous route's blocks, or None: for
    every rational root r of every vertex block, ker (q phi - p)^dim at
    every vertex, then the image of the product of these powers."""
    total = rep.dim()
    roots = set()
    for v in range(A.n):
        if rep.dims[v]:
            roots.update(rational_roots(charpoly(phi[v])))
    bases, powers = [], []
    for r in sorted(roots):
        pw = []
        for v in range(A.n):
            d = rep.dims[v]
            m = [[r.denominator * phi[v][i][j] -
                  (r.numerator if i == j else 0) for j in range(d)]
                 for i in range(d)]
            p = identity(d)
            for _ in range(min(total, d)):
                p = mat_mul(m, p)
            pw.append(p)
        ker = [nullspace(p, d) for p, d in zip(pw, rep.dims)]
        size = sum(map(len, ker))
        if size == total:
            return None
        if size:
            bases.append(ker)
            powers.append(pw)
    if not bases:
        return None
    if sum(len(b) for ker in bases for b in ker) < total:
        rest = powers[0]
        for pw in powers[1:]:
            rest = [mat_mul(p, q) for p, q in zip(pw, rest)]
        bases.append([rref(list(zip(*p)), d)[0]
                      for p, d in zip(rest, rep.dims)])
    return bases


def endomorphisms(A, M, parts, rng):
    """Seeded endomorphisms of the sum M of `parts` (the first two equal):
    small random combinations of the basis of End(M) (repeated and zero
    eigenvalues), X (x) id on the two copies with X irreducible over Q
    (x^2 - x - 1), with a repeated root or nilpotent, a scalar and 0."""
    basis = hom_basis(A, M, M)
    for _ in range(4):
        coef = [rng.randint(-2, 2) for _ in basis]
        yield [[[sum(c * basis[k][v][i][j] for k, c in enumerate(coef))
                 for j in range(M.dims[v])] for i in range(M.dims[v])]
               for v in range(A.n)]
    for X in ([[1, 1], [1, 0]], [[2, 1], [0, 2]], [[0, 1], [0, 0]]):
        yield eigen_endo(A, parts[0], M, X, rng.choice([0, 3]))
    yield eigen_endo(A, parts[0], M, [[5]], 5)
    yield eigen_endo(A, parts[0], M, [[0]], 0)


def test_try_split_matches_the_all_vertex_route(request, monkeypatch):
    rng = random.Random(SEED)
    seen = dict.fromkeys(("none", "split", "image", "one_by_one", "zero",
                          "repeated", "irrational"), 0)
    got_bases = []

    def recording_subrep(A, rep, bases):
        got_bases.append(bases)
        return _subrep(A, rep, bases)

    monkeypatch.setattr(strings, "_subrep", recording_subrep)
    algebras = dict(golden_algebras(request),
                    a3=request.getfixturevalue("a3_relation"))
    for name, A in algebras.items():
        words = [(w, None) for w in enumerate_strings(A, 3)] + \
            [(B, 2 + k) for k, B in enumerate(enumerate_bands(A, 4))]
        for _ in range(6):
            x, y = rng.sample(words, 2)
            parts = [string_module(A, w) if lam is None else
                     band_module(A, w, lam)
                     for w, lam in [x, x] + [y] * rng.randint(0, 1)]
            M = direct_sum(A, parts)
            # conjugated, so no vertex block is diagonal
            gs = random_glpoint(rng, M.dims, 2)
            N = conjugate(A, M, gs)
            for phi in endomorphisms(A, M, parts, rng):
                psi = [mat_mul(mat_mul(g, f), mat_inverse(g)) if f else []
                       for f, g in zip(phi, gs)]
                want = reference_bases(A, N, psi)
                got_bases.clear()
                blocks = _try_split(A, N, psi)
                if want is None:
                    assert blocks is None, name
                    seen["none"] += 1
                    continue
                assert got_bases == want, name
                assert blocks == [reference_subrep(A, N, b) for b in want]
                seen["split"] += 1
                per_vertex = [rational_roots(charpoly(f)) for f in psi if f]
                roots = set(sum(per_vertex, []))
                seen["image"] += len(want) > len(roots)
                seen["one_by_one"] += 1 in N.dims
                seen["zero"] += 0 in roots
                seen["repeated"] += any(len(rs) > len(set(rs))
                                        for rs in per_vertex)
                seen["irrational"] += any(len(rs) < len(f) for rs, f in
                                          zip(per_vertex, filter(None, psi)))
    assert all(seen.values()), seen


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_rational_roots_of_low_degree_in_closed_form(monkeypatch):
    def no_lifting(h):
        raise AssertionError(f"degree {len(h) - 1} lifted")

    monkeypatch.setattr(exactlinalg, "_integer_roots", no_lifting)
    rng = random.Random(SEED)

    def rational():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 5))

    def nonzero():
        return rng.choice([-1, 1]) * Fraction(rng.randint(1, 12),
                                              rng.randint(1, 5))

    polys = []
    for _ in range(150):
        lead = nonzero()
        r, s = nonzero(), nonzero()
        polys += [
            [lead, rational()],  # linear, non-monic
            poly_mul([lead], poly_mul([1, -r], [1, -s])),  # two roots
            poly_mul([lead], poly_mul([1, -r], [1, -r])),  # a double root
            [lead, rational(), nonzero()],  # mostly irrational
        ]
    # negative discriminants and a square one
    polys += [[1, 0, 1], [3, 1, 1], [-2, 1, -1], [4, 4, 1], [1, 1, -1]]
    irrational = 0
    for poly in polys:
        # zero roots and leading zeros are stripped before the closed form
        poly = [0] * rng.randint(0, 1) + poly + [0] * rng.randint(0, 2)
        got = rational_roots(poly)
        assert got == reference_rational_roots(poly), poly
        assert all(type(r) is Fraction for r in got)
        degree = len(poly) - 1 - poly.index(next(c for c in poly if c))
        irrational += len(got) < degree
    assert irrational  # some quadratics have no rational root


def test_two_by_two_charpoly_in_closed_form():
    rng = random.Random(SEED + 1)
    for _ in range(300):
        m = [[Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
              for _ in range(2)] for _ in range(2)]
        (a, b), (c, d) = m
        cp = charpoly(m)
        assert cp == [1, -(a + d), a * d - b * c]
        assert all(type(x) is (int if Fraction(x).denominator == 1
                               else Fraction) for x in cp), cp


def test_support_blocks_skip_the_support_test(pants_algebra, monkeypatch):
    # a block of a support split is connected by construction; a block of
    # an eigenspace split is identified first, and tested (it may fall
    # apart) only if identification rejects it
    A = pants_algebra
    tested, support_blocks, split_blocks, rejected = [], [], [], []
    support_split, try_split = strings._support_split, strings._try_split
    identify = strings._identify

    def recording_support_split(A, rep):
        tested.append(rep)
        blocks = support_split(A, rep)
        support_blocks.extend(blocks or ())
        return blocks

    def recording_try_split(A, rep, phi):
        blocks = try_split(A, rep, phi)
        split_blocks.extend(blocks or ())
        return blocks

    def recording_identify(A, p, table):
        label = identify(A, p, table)
        if label is None:
            rejected.append(p)
        return label

    monkeypatch.setattr(strings, "_support_split", recording_support_split)
    monkeypatch.setattr(strings, "_try_split", recording_try_split)
    monkeypatch.setattr(strings, "_identify", recording_identify)
    rng = random.Random(SEED)
    words = [w for w in enumerate_strings(A, 3) if len(w)]
    for k in range(6):
        parts = rng.sample(words, 3)
        M = direct_sum(A, [string_module(A, w) for w in parts + parts[:1]])
        if k % 2:
            M = conjugate(A, M, random_glpoint(rng, M.dims, 2))
        assert sorted(map(str, strings.decompose(A, M, seed=k))) == \
            sorted(map(str, parts + parts[:1]))
    tested_ids = {id(p) for p in tested}
    assert support_blocks and split_blocks
    assert not tested_ids & {id(b) for b in support_blocks}
    # a split block is support-tested only if identification rejected it
    assert {id(b) for b in split_blocks if b.dim()} & tested_ids <= \
        {id(p) for p in rejected}
