"""Strings, bands and their explicit matrix representations.

A letter is a pair (arrow_id, inv).  Words compose right-to-left like
paths: in a word (c_1, ..., c_m) we need s(c_i) = t(c_{i+1}).  The basis
of a word module is laid out by `word_walk`; generic direct sums of word
modules draw their band parameters from `band_parameters`.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .exactlinalg import (charpoly, identity, is_invertible, mat_inverse,
                          mat_mul, nullspace, rational_roots, rref, solve,
                          sparse_rank)


class InvalidString(ValueError):
    pass


class InvalidBand(ValueError):
    pass


class NotPrimitive(InvalidBand):
    pass


class ZeroLambda(ValueError):
    pass


class UnsupportedQuasiLength(NotImplementedError):
    pass


class DictionaryExhausted(RuntimeError):
    pass


def letter(arrow_id, inv=False):
    return (arrow_id, bool(inv))


def letter_inv(c):
    return (c[0], not c[1])


def letter_s(A, c):
    return A.t(c[0]) if c[1] else A.s(c[0])


def letter_t(A, c):
    return A.s(c[0]) if c[1] else A.t(c[0])


def _pair_rule(A, x, y):
    """The rule behind `pair_ok`, read off the quiver and the relations."""
    if letter_s(A, x) != letter_t(A, y):
        return False
    if x == letter_inv(y):
        return False
    if not x[1] and not y[1] and (x[0], y[0]) in A.relations:
        return False
    if x[1] and y[1] and (y[0], x[0]) in A.relations:
        return False
    return True


@dataclass(frozen=True)
class _LetterTable:
    letters: tuple  # every letter, in arrow order, direct before inverse
    pairs: frozenset  # (x, y) such that y may follow x in a word
    after: dict  # letter x -> the letters y with (x, y) in pairs
    source: dict  # letter -> letter_s
    target: dict  # letter -> letter_t


def _letter_table(A):
    """The letter table of A, built from `_pair_rule` on first use and
    kept on the algebra object."""
    tab = A.__dict__.get("_letter_table")
    if tab is None:
        letters = tuple(letter(a, inv) for a in A.arrow_ids
                        for inv in (False, True))
        pairs = frozenset((x, y) for x in letters for y in letters
                          if _pair_rule(A, x, y))
        tab = _LetterTable(
            letters, pairs,
            {x: tuple(y for y in letters if (x, y) in pairs)
             for x in letters},
            {x: letter_s(A, x) for x in letters},
            {x: letter_t(A, x) for x in letters})
        object.__setattr__(A, "_letter_table", tab)
    return tab


def pair_ok(A, x, y):
    """May letter y follow letter x inside a word (x, y, ...)?"""
    return (x, y) in _letter_table(A).pairs


@dataclass(frozen=True, order=True)
class StringWord:
    letters: tuple = ()
    vertex: int | None = None  # set for the trivial string only
    sign: int = 1

    def __post_init__(self):
        if not self.letters and self.vertex is None:
            raise InvalidString("trivial string needs a vertex")

    @property
    def is_trivial(self):
        return not self.letters

    def __len__(self):
        return len(self.letters)

    def inverse(self):
        if self.is_trivial:
            return StringWord((), self.vertex, -self.sign)
        return StringWord(tuple(letter_inv(c) for c in reversed(self.letters)))

    def __str__(self):
        if self.is_trivial:
            return f"1@{self.vertex}"
        return ",".join(f"{a}-" if inv else a for a, inv in self.letters)


@dataclass(frozen=True, order=True)
class BandWord:
    letters: tuple

    def __len__(self):
        return len(self.letters)

    def inverse(self):
        return BandWord(tuple(letter_inv(c) for c in reversed(self.letters)))

    def rotate(self, k):
        ls = self.letters
        return BandWord(ls[k:] + ls[:k])

    def __str__(self):
        return ",".join(f"{a}-" if inv else a for a, inv in self.letters)


def parse_word(text):
    """Parse 'a1-,b1,a3' into letters, or '1@i' into a trivial StringWord."""
    text = text.strip()
    if text.startswith("1@"):
        return StringWord((), int(text[2:]))
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok.endswith("-"):
            out.append(letter(tok[:-1], True))
        else:
            out.append(letter(tok, False))
    return tuple(out)


def check_string(A, letters):
    ids = set(A.arrow_ids)
    for c in letters:
        if c[0] not in ids:
            raise InvalidString(f"unknown arrow {c[0]!r}")
    for x, y in zip(letters, letters[1:]):
        if not pair_ok(A, x, y):
            raise InvalidString(f"letters {x} and {y} do not compose")


def string_word(A, letters):
    if isinstance(letters, StringWord):
        check_string(A, letters.letters)
        return letters
    check_string(A, tuple(letters))
    return StringWord(tuple(letters))


def band_word(A, letters):
    ls = tuple(letters.letters if isinstance(letters, BandWord) else letters)
    if len(ls) < 2:
        raise InvalidBand("bands have length >= 2")
    check_string(A, ls)
    if not pair_ok(A, ls[-1], ls[0]):
        raise InvalidBand("word does not close up cyclically")
    for p in range(1, len(ls)):
        if len(ls) % p == 0 and ls == ls[p:] + ls[:p]:
            raise NotPrimitive("band is a proper power")
    return BandWord(ls)


def canonical_string(A, C):
    """Representative of {C, C^-}: lexicographically smaller letter tuple."""
    C = C if isinstance(C, StringWord) else string_word(A, C)
    if C.is_trivial:
        return StringWord((), C.vertex, 1)
    D = C.inverse()
    return min(C, D, key=lambda w: w.letters)


def canonical_band(A, B):
    """Smallest letter tuple over all rotations of B and of B^-."""
    B = B if isinstance(B, BandWord) else band_word(A, B)
    cands = []
    for w in (B, B.inverse()):
        for k in range(len(w)):
            cands.append(w.rotate(k).letters)
    return BandWord(min(cands))


# ---------------------------------------------------------------------------
# representations


@dataclass(frozen=True)
class Representation:
    dims: tuple  # dims[v-1] = dimension at vertex v
    mats: dict  # arrow id -> tuple of row tuples, shape d_t x d_s

    def dim(self):
        return sum(self.dims)

    def mat(self, aid):
        return [list(r) for r in self.mats[aid]]


def make_rep(A, dims, mats):
    """Build a representation, checking shapes and the relations."""
    dims = tuple(int(x) for x in dims)
    store = {}
    for aid in A.arrow_ids:
        ds, dt = dims[A.s(aid) - 1], dims[A.t(aid) - 1]
        m = mats.get(aid)
        if m is None:
            m = [[0] * ds for _ in range(dt)]
        if len(m) != dt or any(len(r) != ds for r in m):
            raise ValueError(f"matrix for {aid!r} has wrong shape")
        store[aid] = tuple(tuple(x if isinstance(x, (int, Fraction))
                                 else Fraction(x) for x in r) for r in m)
    rep = Representation(dims, store)
    for a, b in A.relations:
        prod = mat_mul(rep.mat(a), rep.mat(b))
        if any(any(x != 0 for x in row) for row in prod):
            raise ValueError(f"relation ({a},{b}) not annihilated")
    return rep


def zero_rep(A):
    return make_rep(A, [0] * A.n, {})


def word_walk(A, w):
    """The basis layout of the module of a StringWord or BandWord.

    Returns (verts, steps).  Basis vector j sits at vertex verts[j]: for
    a word (c_1, ..., c_m) that is t(c_{j+1}), and a string has one more
    basis vector, at s(c_m) (the trivial string at its vertex has just
    that one).  The basis vectors at a vertex are numbered in word order.
    steps has one (arrow, source basis, target basis) per letter, in
    word order: a direct letter c_j = a sends basis j to basis j-1 under
    a, an inverse letter c_j = a^- sends basis j-1 to basis j (basis
    indices from 0).  In a band the last step wraps around to basis 0
    and carries the band parameter; every other step carries 1.
    """
    ls = w.letters
    if isinstance(w, BandWord):
        verts = [letter_t(A, c) for c in ls]
    elif ls:
        verts = [letter_t(A, c) for c in ls] + [letter_s(A, ls[-1])]
    else:
        verts = [w.vertex]
    steps = []
    for i, (aid, inv) in enumerate(ls):
        j = (i + 1) % len(verts)
        steps.append((aid, i, j) if inv else (aid, j, i))
    return verts, steps


def _walk_matrices(A, w, lam, one=1, zero=0):
    """(dims, per-arrow matrices) of the module of a word: each step of
    `word_walk` puts `one` into its arrow's matrix, the last one `lam`."""
    verts, steps = word_walk(A, w)
    dims = [0] * A.n
    idx = []
    for v in verts:
        idx.append(dims[v - 1])
        dims[v - 1] += 1
    mats = {aid: [[zero] * dims[A.s(aid) - 1]
                  for _ in range(dims[A.t(aid) - 1])] for aid in A.arrow_ids}
    for k, (aid, p, q) in enumerate(steps):
        mats[aid][idx[q]][idx[p]] = lam if k == len(steps) - 1 else one
    return dims, mats


def string_module(A, C):
    C = string_word(A, C)
    return make_rep(A, *_walk_matrices(A, C, 1))


def band_module(A, B, lam, q=1):
    B = band_word(A, B)
    lam = Fraction(lam)
    if lam == 0:
        raise ZeroLambda("band parameter must be nonzero")
    if q != 1:
        raise UnsupportedQuasiLength("only quasi-length 1 is implemented")
    return make_rep(A, *_walk_matrices(A, B, lam))


def rank_function_of(A, rep):
    r = {}
    for aid in A.arrow_ids:
        rows = []
        for row in rep.mats[aid]:
            d = {j: x for j, x in enumerate(row) if x}
            if d:
                rows.append(d)
        r[aid] = sparse_rank(rows)
    return r


def _room(A, max_len, dims):
    """Basis vectors each vertex may still take (index = vertex, slot 0
    unused).  Without dims nothing binds: a word of length <= max_len
    has at most max_len + 1 basis vectors."""
    if dims is None:
        return [max_len + 1] * (A.n + 1)
    if len(dims) != A.n:
        raise ValueError("dimension vector length must match the vertex count")
    return [0] + [int(x) for x in dims]


def enumerate_strings(A, max_len, dims=None):
    """All canonical strings of length <= max_len, deterministic order.

    With a dimension vector `dims`, only the strings whose module has
    dimension vector <= dims entrywise: the unrestricted list filtered,
    in the same order.  The search cuts a word as soon as some vertex
    holds more basis vectors than dims allows, since extending a word
    only adds basis vectors.
    """
    tab = _letter_table(A)
    room = _room(A, max_len, dims)
    found = set()

    def extend(word):
        # canonical representative of {C, C^-}: the smaller letter tuple
        found.add(min(word, tuple((a, not inv) for a, inv in reversed(word))))
        if len(word) >= max_len:
            return
        for c in tab.after[word[-1]]:
            v = tab.source[c]
            if room[v]:
                room[v] -= 1
                extend(word + (c,))
                room[v] += 1

    if max_len >= 1:
        for c in tab.letters:
            s, t = tab.source[c], tab.target[c]
            room[s] -= 1
            room[t] -= 1
            if room[s] >= 0 and room[t] >= 0:
                extend((c,))
            room[s] += 1
            room[t] += 1
    out = [StringWord((), v) for v in range(1, A.n + 1) if room[v]]
    out += [StringWord(w) for w in found]
    return sorted(out, key=lambda w: (len(w), w.vertex or 0, w.letters))


def enumerate_bands(A, max_len, dims=None):
    """All canonical bands of length <= max_len, deterministic order.

    `dims` restricts the list as in `enumerate_strings`, here to the
    bands whose modules have dimension vector <= dims.
    """
    tab = _letter_table(A)
    room = _room(A, max_len, dims)
    found = set()

    def extend(word):
        if len(word) >= 2 and (word[-1], word[0]) in tab.pairs:
            try:
                found.add(canonical_band(A, band_word(A, word)))
            except InvalidBand:
                pass
        if len(word) >= max_len:
            return
        for c in tab.after[word[-1]]:
            v = tab.target[c]
            if room[v]:
                room[v] -= 1
                extend(word + (c,))
                room[v] += 1

    for c in tab.letters:
        v = tab.target[c]
        if room[v]:
            room[v] -= 1
            extend((c,))
            room[v] += 1
    return sorted(found, key=lambda w: (len(w), w.letters))


def _sum_offsets(A, reps):
    """Per summand, the index at which its basis starts at each vertex
    of the direct sum; and the dimension vector of the sum."""
    offsets = []
    dims = (0,) * A.n
    for r in reps:
        offsets.append(dims)
        dims = tuple(x + y for x, y in zip(dims, r.dims))
    return offsets, dims


def direct_sum(A, reps):
    offsets, dims = _sum_offsets(A, reps)
    mats = {}
    for aid in A.arrow_ids:
        sv, tv = A.s(aid) - 1, A.t(aid) - 1
        m = [[0] * dims[sv] for _ in range(dims[tv])]
        for r, off in zip(reps, offsets):
            for i, row in enumerate(r.mats[aid]):
                for j, x in enumerate(row):
                    m[off[tv] + i][off[sv] + j] = x
        mats[aid] = m
    return make_rep(A, dims, mats)


# Band parameters for generic direct sums.  Each band summand takes a
# different one, so that no two summands are isomorphic; M(B, lam) is
# M(B^-, 1/lam), and no integer >= 2 is the reciprocal of another, so a
# band and its inverse cannot name one module either.  0 gives no band
# module, and 1 stays for the probe modules M(B, 1) that `standard_homs`
# and `decompose` compare against.
BAND_PARAMETERS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def band_parameters(rng=None):
    """The pool of band parameters as an endless iterator: the values of
    BAND_PARAMETERS (shuffled by `rng` when given), then 44, 45, ..."""
    head = list(BAND_PARAMETERS)
    if rng is not None:
        rng.shuffle(head)
    return itertools.chain(head, itertools.count(BAND_PARAMETERS[-1] + 1))


def word_sum(A, words, lams=None):
    """Direct sum of the modules of string and band words, each band
    taking the next parameter from `lams` (default: band_parameters())."""
    lams = band_parameters() if lams is None else lams
    return direct_sum(A, [band_module(A, w, next(lams))
                          if isinstance(w, BandWord) else string_module(A, w)
                          for w in words])


def conjugate(A, rep, gs):
    """g.M for an invertible matrix tuple g (one matrix per vertex)."""
    inv = [mat_inverse(gs[v]) if rep.dims[v] else [] for v in range(A.n)]
    mats = {}
    for aid in A.arrow_ids:
        sv, tv = A.s(aid) - 1, A.t(aid) - 1
        mats[aid] = mat_mul(mat_mul(gs[tv], rep.mat(aid)), inv[sv])
    return make_rep(A, rep.dims, mats)


def random_glpoint(rng, dims, bound=5):
    gs = []
    for d in dims:
        if d == 0:
            gs.append([])
            continue
        while True:
            m = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]
            if is_invertible(m):
                gs.append(m)
                break
    return gs


# ---------------------------------------------------------------------------
# Hom spaces and Krull-Schmidt decomposition


def _intertwiner_rows(A, M, N):
    offs = []
    off = 0
    for v in range(A.n):
        offs.append(off)
        off += M.dims[v] * N.dims[v]
    rows = []
    for aid in A.arrow_ids:
        sv, tv = A.s(aid) - 1, A.t(aid) - 1
        Ma, Na = M.mats[aid], N.mats[aid]
        dMs, dMt = M.dims[sv], M.dims[tv]
        for u in range(N.dims[tv]):
            for w in range(dMs):
                row = {}
                for k in range(dMt):
                    if Ma[k][w]:
                        key = offs[tv] + u * dMt + k
                        row[key] = row.get(key, 0) + Ma[k][w]
                for k in range(N.dims[sv]):
                    if Na[u][k]:
                        key = offs[sv] + k * dMs + w
                        row[key] = row.get(key, 0) - Na[u][k]
                if row:
                    rows.append(row)
    return rows, offs, off


def hom_dim(A, M, N):
    """dim Hom(M, N): solution space of f_t M_a = N_a f_s for all a."""
    rows, _, nvars = _intertwiner_rows(A, M, N)
    return nvars - sparse_rank(rows)


def hom_basis(A, M, N):
    """Basis of Hom(M, N), each element a list of per-vertex matrices."""
    rows, offs, nvars = _intertwiner_rows(A, M, N)
    vecs = nullspace(rows, nvars)
    out = []
    for vec in vecs:
        f = []
        for v in range(A.n):
            dM, dN = M.dims[v], N.dims[v]
            f.append([[vec[offs[v] + u * dM + w] for w in range(dM)]
                      for u in range(dN)])
        out.append(f)
    return out


def iso_test(A, M, N):
    """Invariants first, then an explicit invertible intertwiner."""
    if M.dims != N.dims:
        return False
    if M.dim() == 0:
        return True
    if rank_function_of(A, M) != rank_function_of(A, N):
        return False
    basis = hom_basis(A, M, N)
    if not basis:
        return False
    rng = random.Random(1729)
    for attempt in range(8):
        if attempt == 0:
            coef = [1] * len(basis)
        else:
            coef = [rng.randint(-7, 7) for _ in basis]
        if all(is_invertible(
                [[sum(c * basis[k][v][i][j] for k, c in enumerate(coef))
                  for j in range(M.dims[v])] for i in range(M.dims[v])])
               for v in range(A.n)):
            return True
    return False


def _subrep(A, rep, bases):
    """Restrict to invariant per-vertex column spans."""
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


def _endo_powers(A, rep, phi, shift, power):
    """Per vertex: (phi_v - shift)^min(power, dim_v)."""
    powers = []
    for v in range(A.n):
        d = rep.dims[v]
        m = [[phi[v][i][j] - (shift if i == j else 0) for j in range(d)]
             for i in range(d)]
        p = identity(d)
        for _ in range(min(power, d)):
            p = mat_mul(m, p)
        powers.append(p)
    return powers


def _try_split(A, rep, phi):
    """Fitting split along ker/im of (phi - r)^dim for eigenvalues r.

    phi is block diagonal, so its eigenvalues are those of its blocks."""
    total = rep.dim()
    roots = {Fraction(0)}
    for v in range(A.n):
        if rep.dims[v]:
            roots.update(rational_roots(charpoly(phi[v])))
    for r in sorted(roots):
        powers = _endo_powers(A, rep, phi, r, total)
        ker = [nullspace(p, d) for p, d in zip(powers, rep.dims)]
        kdim = sum(len(b) for b in ker)
        if 0 < kdim < total:
            im = [rref(list(zip(*p)), d)[0] for p, d in zip(powers, rep.dims)]
            try:
                left = _subrep(A, rep, ker)
                right = _subrep(A, rep, im)
            except ValueError:
                continue
            if left.dim() + right.dim() == total:
                return [left, right]
    return None


def _split_once(A, rep, rng):
    basis = hom_basis(A, rep, rep)
    if len(basis) == 1:
        return None
    candidates = list(basis)
    for _ in range(6):
        coef = [rng.randint(-9, 9) for _ in basis]
        candidates.append([
            [[sum(c * basis[k][v][i][j] for k, c in enumerate(coef))
              for j in range(rep.dims[v])] for i in range(rep.dims[v])]
            for v in range(A.n)])
    for phi in candidates:
        blocks = _try_split(A, rep, phi)
        if blocks:
            return blocks
    return None


def _poly(*coeffs):
    """Polynomial in mu as a low-to-high Fraction tuple, trimmed."""
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_add(p, q):
    n = max(len(p), len(q))
    return _poly(*[(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                   for i in range(n)])


def _poly_mul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _poly(*out)


def _poly_neg(p):
    return tuple(-x for x in p)


def _pencil_pivot_roots(rows):
    """Rational mu at which the sparse Q[mu]-matrix can drop rank.

    Division-free elimination; by specialization, every rank-dropping
    value of mu is a root of some pivot polynomial, so the collected
    root set is a sound superset of the rank-drop locus.
    """
    pivot_of_col = {}
    cands = set()
    queue = [dict(r) for r in rows]
    while queue:
        row = queue.pop()
        while row:
            c = min(row)
            piv = pivot_of_col.get(c)
            if piv is None:
                pivot_of_col[c] = row
                pv = row[c]
                if len(pv) > 1:
                    cands.update(rational_roots(list(reversed(pv))))
                break
            a, b = row[c], piv[c]
            new = {}
            for cc, vv in row.items():
                new[cc] = _poly_mul(vv, b)
            for cc, vv in piv.items():
                w = _poly_add(new.get(cc, ()), _poly_neg(_poly_mul(vv, a)))
                if w:
                    new[cc] = w
                elif cc in new:
                    del new[cc]
            row = new
    return cands


def band_lambda_candidates(A, B, rep):
    """Possible band parameters mu with rep isomorphic to M(B, mu, 1).

    Eliminates the intertwiner system for Hom(M(B, mu), rep) over
    Q[mu]; a nonzero hom space at mu0 needs a rank drop there, hence
    mu0 shows up among the pivot roots.
    """
    # band matrices over Q[mu]: the wrap-around step carries mu
    dims, mats = _walk_matrices(A, B, _poly(0, 1), _poly(1), ())
    offs = []
    off = 0
    for v in range(A.n):
        offs.append(off)
        off += dims[v] * rep.dims[v]
    rows = []
    for aid in A.arrow_ids:
        sv, tv = A.s(aid) - 1, A.t(aid) - 1
        Ba, Na = mats[aid], rep.mats[aid]
        dMs, dMt = dims[sv], dims[tv]
        for u in range(rep.dims[tv]):
            for w in range(dMs):
                row = {}
                for k in range(dMt):
                    if Ba[k][w]:
                        key = offs[tv] + u * dMt + k
                        row[key] = _poly_add(row.get(key, ()), Ba[k][w])
                for k in range(rep.dims[sv]):
                    if Na[u][k]:
                        key = offs[sv] + k * dMs + w
                        row[key] = _poly_add(row.get(key, ()),
                                             _poly(-Na[u][k]))
                if row:
                    rows.append(row)
    cands = _pencil_pivot_roots(rows)
    cands.add(Fraction(1))
    return sorted(c for c in cands if c != 0)


def _support_split(A, rep):
    """Split along connected components of the coordinate support graph.

    Exactly block-diagonal representations (untwisted direct sums) fall
    apart here without any linear algebra.
    """
    nodes = [(v, i) for v in range(A.n) for i in range(rep.dims[v])]
    if not nodes:
        return None
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for aid in A.arrow_ids:
        sv, tv = A.s(aid) - 1, A.t(aid) - 1
        for i, row in enumerate(rep.mats[aid]):
            for j, x in enumerate(row):
                if x:
                    ri, rj = find((tv, i)), find((sv, j))
                    if ri != rj:
                        parent[ri] = rj
    comps = {}
    for x in nodes:
        comps.setdefault(find(x), []).append(x)
    if len(comps) <= 1:
        return None
    blocks = []
    for root in sorted(comps):
        bases = [[] for _ in range(A.n)]
        for (v, i) in comps[root]:
            vec = [0] * rep.dims[v]
            vec[i] = 1
            bases[v].append(vec)
        blocks.append(_subrep(A, rep, bases))
    return blocks


def decompose(A, rep, dictionary_bound, seed=0):
    """Krull-Schmidt decomposition into StringWords and (BandWord, lambda).

    Splits along the support graph first, then with random
    endomorphisms (Fitting), and identifies summands against the
    dictionary of words of length <= dictionary_bound, certifying each
    match with an explicit invertible intertwiner.  Only the words whose
    dimension vector fits a summand's are enumerated, once per distinct
    summand dimension vector.
    """
    rng = random.Random(seed)
    pieces = [rep]
    done = []
    while pieces:
        p = pieces.pop()
        if p.dim() == 0:
            continue
        blocks = _support_split(A, p)
        if blocks is None:
            blocks = _split_once(A, p, rng)
        if blocks is None:
            done.append(p)
        else:
            pieces.extend(blocks)
    dictionary = {}  # summand dims -> the words of the bound that fit
    out = []
    for p in done:
        if p.dims not in dictionary:
            dictionary[p.dims] = (
                enumerate_strings(A, dictionary_bound, p.dims),
                enumerate_bands(A, dictionary_bound, p.dims))
        label = _identify(A, p, *dictionary[p.dims])
        if label is None:
            raise DictionaryExhausted(
                f"summand with dims {p.dims} not identified within bound")
        out.append(label)
    return sorted(out, key=lambda x: (isinstance(x, tuple), str(x[0] if
                                      isinstance(x, tuple) else x)))


def _identify(A, p, strings, bands):
    total = p.dim()
    rf = rank_function_of(A, p)
    n_str = total - sum(rf.values())
    if n_str == 1:
        for C in strings:
            if len(C) + 1 != total:
                continue
            M = string_module(A, C)
            if M.dims == p.dims and iso_test(A, p, M):
                return C
    elif n_str == 0:
        for B in bands:
            if len(B) != total:
                continue
            probe = band_module(A, B, 1)
            if probe.dims != p.dims or rank_function_of(A, probe) != rf:
                continue
            for lam in band_lambda_candidates(A, B, p):
                if lam and iso_test(A, p, band_module(A, B, lam)):
                    return (B, lam)
    return None
