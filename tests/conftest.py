import json
import os
import random
import sys
from fractions import Fraction
from math import lcm

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from fuzz import random_gentle
from gentlelam import Quiver, Triangulation, build_QT, validate_gentle
from gentlelam import strings
from gentlelam.exactlinalg import is_invertible, mat_mul, nullspace
from gentlelam.fileio import algebra_from_dict, triangulation_from_dict
from gentlelam.strings import BandWord, DictionaryExhausted, _intertwiner_rows

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_ALGEBRAS = ("a3_relation", "double_loop", "loop_algebra",
                   "torus_quiver", "two_cycle")
GOLDEN_SURFACES = ("annulus", "hexagon", "pants")
# the eight golden algebras and ten `tests/fuzz.py` algebras, by name
CASES = GOLDEN_ALGEBRAS + GOLDEN_SURFACES + \
    tuple(f"fuzz{seed}" for seed in range(10))


def golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return json.load(fh)


def case_algebra(name):
    """A golden algebra (a surface's through `build_QT`), or the
    `tests/fuzz.py` algebra of seed k for the name fuzz<k>."""
    if name.startswith("fuzz"):
        return random_gentle(random.Random(int(name[4:])))
    if name in GOLDEN_SURFACES:
        return build_QT(triangulation_from_dict(golden(f"{name}.json")))
    return algebra_from_dict(golden(f"{name}.json"))


def hom_basis(A, M, N):
    """Basis of Hom(M, N), each element a list of per-vertex N_v x M_v
    matrices: the `nullspace` of the intertwiner rows, reshaped.  A
    reference for tests; the library reads maps off `_hom_space`."""
    rows, offs, nvars = _intertwiner_rows(A, M, N)
    return [[[vec[o + u * dM:o + (u + 1) * dM] for u in range(dN)]
             for o, dM, dN in zip(offs, M.dims, N.dims)]
            for vec in nullspace(rows, nvars)]


def peel(A, p, table, rng):
    """One word summand of p split off: (label, rest) with p = W + rest,
    rest None when p is W, or None.  The split of `decompose` before it
    read multiplicities off the trace pairing, kept as a reference for
    tests: it reads `strings` functions at call time, so a test that
    patches one (`_subrep`, say) sees the peel's calls too.

    A word of p's own shape (dims + ranks) in `table` names p when an
    invertible point of Hom(p, W) certifies it.  Every other word W that
    fits is peeled: two pairs f in Hom(W, p), g in Hom(p, W) are drawn at
    values from `rng` in [-2^15, 2^15]; when g_v f_v is invertible
    wherever W_v != 0, f is a split mono, and the rest is ker g (all of
    p_v where W_v = 0), restricted by `_subrep`.  It misses a summand
    with probability at most 2/65,537 (Schwartz-Zippel)."""
    rf = strings.rank_function_of(A, p)
    top = p.dims + tuple(rf[a] for a in A.arrow_ids)

    def modules(words):
        for w in words:
            band = isinstance(w, BandWord)
            lams = strings.band_lambda_candidates(A, w, p) if band \
                else (None,)
            for lam in lams:
                yield ((w, lam) if band else w), strings._word_rep(A, w, lam)

    for label, W in modules(table.get(top, ())):
        if strings._hom_certificate(A, p, W) is not None:
            return label, None

    def draw(free):
        return {k: rng.randint(-2 ** 15, 2 ** 15) for k in free}

    for shape, words in table.items():
        if shape == top or any(x > y for x, y in zip(shape, top)):
            continue
        for label, W in modules(words):
            g_free, g_at = strings._hom_space(A, p, W)
            if not g_free:
                continue
            f_free, f_at = strings._hom_space(A, W, p)
            for _ in range(2) if f_free else ():
                g, f = g_at(draw(g_free)), f_at(draw(f_free))
                if all(is_invertible(mat_mul(gv, fv))
                       for gv, fv in zip(g, f) if gv):
                    return label, strings._subrep(
                        A, p, [nullspace(gv, d) for gv, d in zip(g, p.dims)])
    return None


def peel_decompose(A, rep, seed=0, words=None):
    """The labels of `decompose` read by peeling (`peel`, its draws from
    `random.Random(seed)`), one word summand at a time, each rest back on
    the stack, sorted as `decompose` sorts them.  A reference for tests;
    the library reads multiplicities off the trace pairing."""
    rng = random.Random(seed)
    named = None if words is None else strings._shape_table(A, words)
    pieces = [(rep, False)]
    out = []
    while pieces:
        p, connected = pieces.pop()
        labels = strings._monomial_labels(A, p)
        if labels is not None:
            out += labels
            continue
        blocks = None if connected else strings._support_split(A, p)
        if blocks is not None:
            pieces.extend((b, True) for b in blocks)
            continue
        peeled = None if named is None else peel(A, p, named, rng)
        if peeled is None:
            peeled = peel(A, p, strings._word_table(A, p.dims), rng)
        if peeled is None:
            raise DictionaryExhausted(
                f"summand with dims {p.dims} peels off no word")
        label, rest = peeled
        out.append(label)
        if rest is not None:
            pieces.append((rest, False))
    return sorted(out, key=lambda x: (True, str(x[0]), x[1])
                  if isinstance(x, tuple) else (False, str(x), 0))


def reference(rows, ncols):
    """{pivot: row} of the reduced row echelon form by Fraction
    Gauss-Jordan elimination, each row scaled to primitive integers with
    its pivot entry positive."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        k = next((i for i in range(len(pivots), len(m)) if m[i][c]), None)
        if k is None:
            continue
        r = len(pivots)
        m[r], m[k] = m[k], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    out = {}
    for r, c in enumerate(pivots):
        den = lcm(*(x.denominator for x in m[r]))
        out[c] = {j: int(x * den) for j, x in enumerate(m[r]) if x}
    return out


def mul(a, b, rows, cols):
    """a b for an r x k and a k x c matrix, k possibly 0."""
    return [[sum(x * y for x, y in zip(a[i], col)) for col in zip(*b)]
            if b else [0] * cols for i in range(rows)]


def assert_certificate(A, M, N, f):
    """f solves f_t M_a = N_a f_s for every arrow a and is invertible at
    every vertex."""
    assert f is not None
    for v, d in enumerate(M.dims):
        assert len(f[v]) == d and all(len(row) == d for row in f[v])
        assert len(reference(f[v], d)) == d
    for aid in A.arrow_ids:
        s, t = A.s(aid) - 1, A.t(aid) - 1
        ds, dt = M.dims[s], M.dims[t]
        assert mul(f[t], M.mat(aid), dt, ds) == \
            mul(N.mat(aid), f[s], dt, ds), aid


@pytest.fixture(scope="session")
def torus_algebra():
    """Four vertices, two 3-cycles of relations plus a free arrow."""
    q = Quiver(4, (("a1", 1, 2), ("b1", 1, 2), ("a2", 2, 3), ("b2", 2, 4),
                   ("a3", 3, 1), ("b3", 4, 1), ("c", 3, 4)))
    return validate_gentle(q, [("a1", "a3"), ("a2", "a1"), ("a3", "a2"),
                               ("b1", "b3"), ("b2", "b1"), ("b3", "b2")])


@pytest.fixture(scope="session")
def loop_algebra():
    return validate_gentle(Quiver(1, (("a", 1, 1),)), [("a", "a")])


@pytest.fixture(scope="session")
def a3_relation():
    """1 <- 2 <- 3 with the composite killed."""
    return validate_gentle(Quiver(3, (("a", 2, 1), ("b", 3, 2))),
                           [("a", "b")])


@pytest.fixture(scope="session")
def double_loop():
    """Loops at both ends of a chain with a 2-cycle in the middle."""
    q = Quiver(4, (("a", 1, 1), ("b", 2, 1), ("c2", 2, 3), ("c1", 3, 2),
                   ("d", 3, 4), ("e", 4, 4)))
    return validate_gentle(q, [("a", "a"), ("e", "e"),
                               ("c1", "c2"), ("c2", "c1")])


@pytest.fixture(scope="session")
def pants():
    """Sphere with three boundary disks, one marked point each."""
    return Triangulation(
        (1, 2, 3, 4, 5, 6), ("bA", "bB", "bC"),
        ((2, 1, 6), (4, 3, 6), (3, 2, "bB"), (5, 4, "bC"), (5, 1, "bA")))


@pytest.fixture(scope="session")
def pants_algebra(pants):
    return build_QT(pants)


@pytest.fixture(scope="session")
def hexagon():
    return Triangulation(
        (1, 2, 3), ("s1", "s2", "s3", "s4", "s5", "s6"),
        (("s1", "s2", 1), (1, "s3", 2), (2, "s4", 3), (3, "s5", "s6")))


@pytest.fixture(scope="session")
def annulus():
    return Triangulation((1, 2), ("out", "inn"),
                         (("out", 2, 1), ("inn", 2, 1)))
