"""The integer routes of the subrepresentation (on Omega and on the rests
of `decompose`'s splits), the characteristic polynomial and the AR
translate, each against the Fraction route it replaced, kept here as the
reference: results must be equal entry for entry."""

import random
from fractions import Fraction
from math import gcd

import pytest

from gentlelam import (BandWord, InternalError, band_module, decompose,
                       direct_sum, enumerate_bands, enumerate_strings,
                       min_proj_presentation, string_module, strings)
from gentlelam.exactlinalg import (charpoly, identity, mat_mul,
                                   rational_roots, rref, solve)
from gentlelam.homological import (_paths_ending_at, _right_basis,
                                   _tau_of_presentation, path_target)
from gentlelam.strings import (SubspaceNotInvariant, _subrep, conjugate,
                               make_rep, random_glpoint)

SEED = 1968


# ---------------------------------------------------------------------------
# characteristic polynomials and rational roots


def reference_charpoly(mat):
    """Faddeev-LeVerrier in Fractions."""
    n = len(mat)
    coeffs = [Fraction(1)]
    m = identity(n)
    a = [[Fraction(x) for x in row] for row in mat]
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(c)
        for i in range(n):
            m[i][i] += c
    return coeffs


def poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def poly_divmod_linear(coeffs, root):
    out = []
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * Fraction(root) + c
        out.append(acc)
    return out[:-1], out[-1]


def reference_rational_roots(coeffs):
    """Candidates p/q as Fractions, tested and divided out in Fractions."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    roots = []
    while len(coeffs) > 1 and coeffs[-1] == 0:
        roots.append(Fraction(0))
        coeffs = coeffs[:-1]
    if len(coeffs) <= 1:
        return roots
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ic = [int(c * den) for c in coeffs]

    def divisors(k):
        k = abs(k)
        out = set()
        d = 1
        while d * d <= k:
            if k % d == 0:
                out.update((d, k // d))
            d += 1
        return out

    cands = {Fraction(s * p, q) for p in divisors(ic[-1])
             for q in divisors(ic[0]) for s in (1, -1)}
    for cand in sorted(cands):
        while len(coeffs) > 1 and poly_eval(coeffs, cand) == 0:
            roots.append(cand)
            coeffs, _ = poly_divmod_linear(coeffs, cand)
    return roots


def random_matrix(rng, n, rational):
    def entry():
        k = rng.random()
        if k < 0.3:
            return 0
        if rational and k < 0.6:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        return rng.randint(-5, 5)

    m = [[entry() for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.5:
        # triangular, so every eigenvalue is rational
        m = [[x if j >= i else 0 for j, x in enumerate(row)]
             for i, row in enumerate(m)]
    return m


def test_integer_charpoly_and_roots_match_the_fraction_route():
    rng = random.Random(SEED)
    checked = 0
    for rational in (False, True):
        for _ in range(1100):
            m = random_matrix(rng, rng.randint(0, 7), rational)
            cp = charpoly(m)
            assert cp == reference_charpoly(m), m
            roots = rational_roots(cp)
            assert roots == reference_rational_roots(cp), m
            assert all(type(r) is Fraction for r in roots)
            checked += 1
    assert checked >= 2000


def test_rational_roots_of_non_monic_polynomials():
    rng = random.Random(SEED + 1)
    for _ in range(300):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(rng.randint(1, 6))]
        # (3x - 2)(x + 1/2) times the random factor, and some zero roots
        poly = coeffs
        for factor in ([3, -2], [1, Fraction(1, 2)]):
            out = [Fraction(0)] * (len(poly) + 1)
            for i, a in enumerate(poly):
                out[i] += a * factor[0]
                out[i + 1] += a * factor[1]
            poly = out
        poly = [0] * rng.randint(0, 2) + poly + [0] * rng.randint(0, 2)
        assert rational_roots(poly) == reference_rational_roots(poly), poly
    assert rational_roots([0, 0, 0]) == reference_rational_roots([0, 0, 0])


# ---------------------------------------------------------------------------
# subrepresentations


def reference_subrep(A, rep, bases):
    """One `solve` per basis vector and arrow."""
    dims = tuple(len(b) for b in bases)
    mats = {}
    for aid in A.arrow_ids:
        sv, tv = A.s(aid) - 1, A.t(aid) - 1
        cols = []
        for vec in bases[sv]:
            img = [sum(row[j] * vec[j] for j in range(rep.dims[sv]))
                   for row in rep.mats[aid]]
            if dims[tv] == 0:
                if any(x != 0 for x in img):
                    raise ValueError("subspace not invariant")
                cols.append([])
                continue
            bt = [[bases[tv][k][i] for k in range(dims[tv])]
                  for i in range(rep.dims[tv])]
            sol = solve(bt, img)
            if sol is None:
                raise ValueError("subspace not invariant")
            cols.append(sol)
        mats[aid] = [[cols[j][i] for j in range(dims[sv])]
                     for i in range(dims[tv])]
    return make_rep(A, dims, mats)


def checked_subrep(calls):
    real = _subrep

    def run(A, rep, bases):
        try:
            want = reference_subrep(A, rep, bases)
        except ValueError:
            with pytest.raises(SubspaceNotInvariant, match="not invariant"):
                real(A, rep, bases)
            raise
        got = real(A, rep, bases)
        assert got == want
        calls.append(bases)
        return got

    return run


def word_module(A, w, lam=2):
    if isinstance(w, BandWord):
        return band_module(A, w, lam)
    return string_module(A, w)


# the corpora of criterion 3: the Hom corpora of 3a and 3d (algebra, word
# length cap), and the small direct sums of 3c
HOM_CORPORA = (("torus_algebra", 5), ("a3_relation", 8), ("pants_algebra", 5))
SUM_CORPORA = ("loop_algebra", "a3_relation", "double_loop", "pants_algebra")


@pytest.mark.parametrize("name,cap", HOM_CORPORA)
def test_subrep_of_omega_matches_the_solve_route(request, name, cap):
    A = request.getfixturevalue(name)
    for w in enumerate_strings(A, cap) + enumerate_bands(A, cap):
        pres = min_proj_presentation(A, word_module(A, w))
        assert _subrep(A, pres.p0, pres.omega_bases) == \
            reference_subrep(A, pres.p0, pres.omega_bases), str(w)


@pytest.mark.parametrize("name", SUM_CORPORA)
def test_subrep_of_fitting_splits_matches_the_solve_route(request, name,
                                                          monkeypatch):
    A = request.getfixturevalue(name)
    rng = random.Random(77)
    words = enumerate_strings(A, 3) + enumerate_bands(A, 5)
    calls = []
    monkeypatch.setattr(strings, "_subrep", checked_subrep(calls))
    sums = 0
    for _ in range(40):
        parts = rng.sample(words, k=min(len(words), rng.randint(2, 3)))
        M = direct_sum(A, [word_module(A, w, 2 + i)
                           for i, w in enumerate(parts)])
        if max(M.dims) > 3:
            continue
        # conjugated, so the support graph does not split it
        M = conjugate(A, M, random_glpoint(rng, M.dims, 3))
        assert len(decompose(A, M, seed=sums)) == len(parts)
        sums += 1
    assert sums >= 10 and calls


def test_non_invariant_subspace_raises(a3_relation):
    # the reference reads a bad basis as bad input; the library, whose
    # callers all pass invariant bases, as an internal error (exit 3)
    A = a3_relation  # 1 <- 2 <- 3, a: 2 -> 1, b: 3 -> 2
    M = string_module(A, [("a", False)])  # dims (1, 1, 0)
    # the vertex-2 line alone: its image under a leaves the subspace
    bases = [[], [[1]], []]
    with pytest.raises(InternalError, match="not invariant"):
        _subrep(A, M, bases)
    with pytest.raises(ValueError, match="not invariant"):
        reference_subrep(A, M, bases)
    # and in a larger space: a line at 2 whose image misses the line at 1
    N = direct_sum(A, [M, M])
    bases = [[[1, 1]], [[1, 0]], []]
    with pytest.raises(SubspaceNotInvariant, match="not invariant"):
        _subrep(A, N, bases)
    with pytest.raises(ValueError, match="not invariant"):
        reference_subrep(A, N, bases)
    assert not issubclass(SubspaceNotInvariant, ValueError)


# ---------------------------------------------------------------------------
# the AR translate


def reference_tau(A, pres):
    """D Tr with the cokernel taken from a dense rref, each coordinate
    reduced against its rows."""
    n = A.n
    if not pres.omega_tops:
        return make_rep(A, [0] * n, {})
    sinks = [v for v, _ in pres.p0_copies]
    sources = [v for v, _ in pres.omega_tops]
    right = {v: _paths_ending_at(A, v) for v in set(sinks) | set(sources)}
    basis0, at0 = _right_basis(A, right, sinks)
    basis1, at1 = _right_basis(A, right, sources)
    dims0, dims1 = [len(b) for b in basis0], [len(b) for b in basis1]
    G = [[[0] * dims0[u] for _ in range(dims1[u])] for u in range(n)]
    for l, (jl, vec) in enumerate(pres.omega_tops):
        for k, (ik, _) in enumerate(pres.p0_copies):
            _, pathsk, indexk = pres.p0_paths[k]
            off = pres.p0_offsets[k][jl - 1]
            comp = {}
            for p in pathsk:
                if path_target(A, p, ik) != jl:
                    continue
                c = vec[off + indexk[p][1]]
                if c:
                    comp[p] = c
            if not comp:
                continue
            for y in right[ik]:
                u = A.s(y[-1]) - 1 if y else ik - 1
                for p, c in comp.items():
                    row = at1[u].get((l, p + y))
                    if row is not None:
                        G[u][row][at0[u][(k, y)]] += c
    quot_basis, reducers = [], []
    for u in range(n):
        cols = [[G[u][i][j] for i in range(dims1[u])] for j in range(dims0[u])]
        red, pivots = rref(cols, dims1[u]) if cols else ([], [])
        quot_basis.append([c for c in range(dims1[u]) if c not in pivots])
        reducers.append((red, pivots))

    def reduce_vec(u, w):
        red, pivots = reducers[u]
        for row, pc in zip(red, pivots):
            if w[pc]:
                f = w[pc]
                w = [x - f * y for x, y in zip(w, row)]
        return [w[c] for c in quot_basis[u]]

    tau_dims = [len(quot_basis[u]) for u in range(n)]
    tau_mats = {}
    for aid in A.arrow_ids:
        su, tu = A.s(aid) - 1, A.t(aid) - 1
        mat = [[0] * tau_dims[tu] for _ in range(tau_dims[su])]
        for col, coord in enumerate(quot_basis[tu]):
            l, y = basis1[tu][coord]
            row = at1[su].get((l, y + (aid,)))
            if row is None:
                continue
            w = [0] * dims1[su]
            w[row] = 1
            for i, x in enumerate(reduce_vec(su, w)):
                mat[i][col] = x
        tau_mats[aid] = [[mat[j][i] for j in range(tau_dims[su])]
                         for i in range(tau_dims[tu])]
    return make_rep(A, tau_dims, tau_mats)


@pytest.mark.parametrize("name", ("torus_algebra", "pants_algebra",
                                  "double_loop"))
def test_tau_matches_the_rref_route(request, name):
    A = request.getfixturevalue(name)
    rng = random.Random(SEED)
    checked = 0
    for w in enumerate_strings(A, 6) + enumerate_bands(A, 6):
        mods = [word_module(A, w)]
        if isinstance(w, BandWord):
            mods.append(word_module(A, w, Fraction(-3, 2)))
        # a conjugate, whose presentation has less sparse top vectors
        mods.append(conjugate(A, mods[0], random_glpoint(rng, mods[0].dims)))
        for M in mods:
            pres = min_proj_presentation(A, M)
            assert _tau_of_presentation(A, pres) == reference_tau(A, pres), \
                str(w)
            checked += 1
    assert checked > 100
