"""Strings, bands and their explicit matrix representations.

A letter is a pair (arrow_id, inv).  Words compose right-to-left like
paths: in a word (c_1, ..., c_m) we need s(c_i) = t(c_{i+1}).  Every
word question reads the letter table of the algebra (`_letter_table`,
kept on it): each letter's ends, the letters that may follow it, and
its one direct and one inverse predecessor.  The canonical orientation
of a string is decided by `_before_inverse` at the first letter where
the word and its inverse differ, and that of a band by `_least_rotation`
over the letter tuples of the band and its inverse.  The basis of a word
module is laid out by `word_walk`; generic direct sums of word modules
draw their band parameters from `band_parameters`.
"""

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalError
from .exactlinalg import (_echelon, _kernel_point, _ratio, charpoly,
                          identity, is_invertible, mat_inverse, mat_mul,
                          nullspace, rational_roots, rref, sparse_rank)
from .quiver import _UF, _algebra_memo, _dimension_vector, _kept


class InvalidString(InputError):
    pass


class InvalidBand(InputError):
    pass


class NotPrimitive(InvalidBand):
    pass


class ZeroLambda(InputError):
    pass


class DictionaryExhausted(InternalError):
    pass


class SubspaceNotInvariant(InternalError):
    """`_subrep` was given per-vertex bases whose span an arrow leaves:
    every caller passes kernels and images of module maps (of
    endomorphisms, and Omega inside P0), which are invariant."""


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
    before: dict  # letter y -> (direct x, inverse x) with (x, y) in pairs
    source: dict  # letter -> letter_s
    target: dict  # letter -> letter_t


def _letter_table(A):
    """The letter table of A, built from `_pair_rule` on first use and
    kept on the algebra object.

    A pair (x, y) can hold only if y ends where x starts, so the letters
    are grouped by `letter_t`, and `_pair_rule` is applied only to x and
    the letters ending at `letter_s(x)`.  In a gentle algebra a letter
    has at most one direct and at most one inverse predecessor, so
    `before` holds one letter or None for each flag."""
    return _kept(A, "_letter_table", lambda: _build_letter_table(A))


def _build_letter_table(A):
    letters = tuple(letter(a, inv) for a in A.arrow_ids
                    for inv in (False, True))
    source = {x: letter_s(A, x) for x in letters}
    target = {x: letter_t(A, x) for x in letters}
    ending = {}
    for y in letters:
        ending.setdefault(target[y], []).append(y)
    after = {x: tuple(y for y in ending.get(source[x], ())
                      if _pair_rule(A, x, y)) for x in letters}
    pairs = frozenset((x, y) for x in letters for y in after[x])
    before = {y: [None, None] for y in letters}
    for x, y in pairs:
        before[y][x[1]] = x
    before = {y: tuple(xs) for y, xs in before.items()}
    return _LetterTable(letters, pairs, after, before, source, target)


def pair_ok(A, x, y):
    """May letter y follow letter x inside a word (x, y, ...)?"""
    return (x, y) in _letter_table(A).pairs


def _keep_hash(word, fields):
    """Hash a word's field tuple (the value the dataclass hash gives) and
    keep it on the word: the memos on the algebra hash word keys on every
    lookup, and the word's `__hash__` then reads the kept value."""
    h = hash(fields)
    object.__setattr__(word, "_hash", h)
    return h


def _state_without_hash(word):
    """Pickled and copied state without the cached hash, since string
    hashes differ from process to process."""
    state = dict(word.__dict__)
    state.pop("_hash", None)
    return state


@dataclass(frozen=True, order=True)
class StringWord:
    letters: tuple = ()
    vertex: int | None = None  # set for the trivial string only
    # for the trivial string, the side of its vertex it faces: +1 the
    # first arrow out of the vertex, -1 the second (`tau_string`)
    sign: int = 1

    def __post_init__(self):
        if not self.letters and self.vertex is None:
            raise InvalidString("trivial string needs a vertex")

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            return _keep_hash(self, (self.letters, self.vertex, self.sign))

    __getstate__ = _state_without_hash

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

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            return _keep_hash(self, (self.letters,))

    __getstate__ = _state_without_hash

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
    tab = _letter_table(A)
    for c in letters:
        if c not in tab.source:
            raise InvalidString(f"unknown letter {c!r}")
    pairs = tab.pairs
    for x, y in zip(letters, letters[1:]):
        if (x, y) not in pairs:
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
    if _is_proper_power(ls):
        raise NotPrimitive("band is a proper power")
    return BandWord(ls)


def _is_proper_power(ls):
    """Whether the cyclic word ls equals one of its proper rotations."""
    m = len(ls)
    return any(m % p == 0 and ls == ls[p:] + ls[:p] for p in range(1, m))


def _before_inverse(ls):
    """Whether the letter sequence ls sorts before its inverse, decided
    at the first letter where the two differ.  The inverse's letter at i
    is the inverse of ls[m-1-i], so the first half decides; a string
    never equals its inverse (its middle letter, or middle pair, would
    have to be inverse to itself)."""
    m = len(ls)
    for i in range((m + 1) // 2):
        a, inv = ls[m - 1 - i]
        mirror = (a, not inv)
        if ls[i] != mirror:
            return ls[i] < mirror
    return False


def _least_rotation(ls):
    """The smallest letter tuple over all rotations of the cyclic word
    ls and of its inverse."""
    inv = tuple((a, not flag) for a, flag in reversed(ls))
    return min(w[k:] + w[:k] for w in (ls, inv) for k in range(len(w)))


def canonical_string(A, C):
    """Representative of {C, C^-}: lexicographically smaller letter tuple."""
    C = C if isinstance(C, StringWord) else string_word(A, C)
    if C.is_trivial:
        return StringWord((), C.vertex, 1)
    return C if _before_inverse(C.letters) else C.inverse()


def canonical_band(A, B):
    """Smallest letter tuple over all rotations of B and of B^-."""
    B = B if isinstance(B, BandWord) else band_word(A, B)
    return BandWord(_least_rotation(B.letters))


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
    """Build a representation, checking dims (`_dimension_vector`), the
    shapes and the relations.

    Entries are stored as int when integral, else as Fraction; a matrix
    of ints is stored as it is.  A relation whose two matrices are both
    nonzero has its product computed."""
    dims = _dimension_vector(A, dims)
    store = {}
    nonzero = set()
    for aid in A.arrow_ids:
        ds, dt = dims[A.s(aid) - 1], dims[A.t(aid) - 1]
        m = mats.get(aid)
        if m is None:
            m = [[0] * ds for _ in range(dt)]
        if len(m) != dt or any(len(r) != ds for r in m):
            raise ValueError(f"matrix for {aid!r} has wrong shape")
        if all(type(x) is int for r in m for x in r):
            store[aid] = tuple(map(tuple, m))
        else:
            store[aid] = tuple(tuple(map(_entry, r)) for r in m)
        if any(map(any, store[aid])):
            nonzero.add(aid)
    for a, b in A.relations:
        if a in nonzero and b in nonzero and \
                _product_nonzero(store[a], store[b]):
            raise ValueError(f"relation ({a},{b}) not annihilated")
    return Representation(dims, store)


def _entry(x):
    if isinstance(x, int):
        return x
    x = x if isinstance(x, Fraction) else Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _product_nonzero(ma, mb):
    """Whether the matrix product ma * mb is nonzero, summed over the
    nonzero entries only."""
    rows_b = [[(j, y) for j, y in enumerate(row) if y] for row in mb]
    for row in ma:
        acc = {}
        for k, x in enumerate(row):
            if x:
                for j, y in rows_b[k]:
                    acc[j] = acc.get(j, 0) + x * y
        if any(acc.values()):
            return True
    return False


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


def _walk_matrices(A, w, lam):
    """(dims, per-arrow matrices) of the module of a word: each step of
    `word_walk` puts 1 into its arrow's matrix, the last one `lam`."""
    verts, steps = word_walk(A, w)
    dims = [0] * A.n
    idx = []
    for v in verts:
        idx.append(dims[v - 1])
        dims[v - 1] += 1
    mats = {aid: [[0] * dims[A.s(aid) - 1]
                  for _ in range(dims[A.t(aid) - 1])] for aid in A.arrow_ids}
    for k, (aid, p, q) in enumerate(steps):
        mats[aid][idx[q]][idx[p]] = lam if k == len(steps) - 1 else 1
    return dims, mats


def string_module(A, C):
    C = string_word(A, C)
    return make_rep(A, *_walk_matrices(A, C, 1))


def band_module(A, B, lam):
    B = band_word(A, B)
    lam = Fraction(lam)
    if lam == 0:
        raise ZeroLambda("band parameter must be nonzero")
    return make_rep(A, *_walk_matrices(A, B, lam))


def word_shape(A, w):
    """(dims, ranks) of the module of a StringWord or BandWord, read off
    `word_walk` without building it: dims counts the basis vectors at
    each vertex, and each arrow matrix is a partial permutation (one
    nonzero entry per step on that arrow, no two in a row or a column),
    so its rank is its number of steps.  `rank_function_of` is the
    oracle."""
    verts, steps = word_walk(A, w)
    dims = [0] * A.n
    for v in verts:
        dims[v - 1] += 1
    ranks = dict.fromkeys(A.arrow_ids, 0)
    for aid, _, _ in steps:
        ranks[aid] += 1
    return tuple(dims), ranks


def _g_of_shape(A, dims, ranks, v=None):
    """The g-vector, plus the decoration v when given, of a module M with
    dimension vector `dims` and ranks {arrow: rank}, with no elimination.

    g_x = dim Z^1(M, S_x) - dim M_x (`homological.g_vector`).  The
    unknowns of Z^1(M, S_x) are the rows f_a: M_s(a) -> k of the arrows a
    into x, and S_x kills every arrow, so the one condition on f_a is
    f_a M_b = 0 for the one arrow b with (a, b) a relation, if any: f_a
    vanishes on im M_b.  So dim Z^1(M, S_x) = sum over the arrows a into
    x of d_s(a) - r_b (r_b = 0 without b).  g is linear in (dims, ranks),
    so the g-vector of a direct sum, and the generic one of a component
    (constant on a dense open subset of it, Plamondon), is read off the
    summed shape.  `_cocycle_dim(M, S_x)` and the presentation are its
    oracles in the tests."""
    partner = _kept(A, "_relation_partners", lambda: dict(A.relations))
    g = [x - d for x, d in zip(v or (0,) * A.n, dims)]
    for a, s, t in A.quiver.arrows:
        b = partner.get(a)
        g[t - 1] += dims[s - 1] - (0 if b is None else ranks[b])
    return tuple(g)


def _word_table(A, dims):
    """All canonical strings and bands whose modules fit dims (no word
    longer than sum dims does), grouped by shape (`_shape_table`),
    strings in the order of `enumerate_strings`, then bands in that of
    `enumerate_bands`.

    A shape fixes the string count (sum dims - sum ranks: 1 for a string,
    0 for a band), so each group holds strings only or bands only.  The
    table is kept on the algebra by dims.  `decompose` reads it for a
    piece that none of the words it was handed matches, at the piece's
    own dims; the multiset search of the tests (`schemes._candidates`)
    reads it too."""
    dims = tuple(dims)
    tables = _algebra_memo(A, "_word_tables")
    if dims not in tables:
        tables[dims] = _shape_table(A, enumerate_strings(A, sum(dims), dims)
                                    + enumerate_bands(A, sum(dims), dims))
    return tables[dims]


def _shape_table(A, words):
    """The distinct words of `words`, in order, grouped by shape: {dims +
    ranks in arrow order (read off `word_shape`): the words of that
    shape}.  Each word's shape is read once per algebra (`_word_shapes`,
    with the first object of the word, which every later table then
    holds in place of its own copy)."""
    shapes = _algebra_memo(A, "_word_shapes")
    table = {}
    for w in dict.fromkeys(words):
        if w not in shapes:
            wdims, ranks = word_shape(A, w)
            shapes[w] = (w, wdims + tuple(ranks[a] for a in A.arrow_ids))
        w, shape = shapes[w]
        table.setdefault(shape, []).append(w)
    return table


def _word_rep(A, w, lam=None):
    """The module of a StringWord (which ignores lam), or of a BandWord
    with parameter lam, built once per (word, parameter) and kept on the
    algebra (`_word_modules`)."""
    band = isinstance(w, BandWord)
    key = (w, lam if band else None)
    memo = _algebra_memo(A, "_word_modules")
    M = memo.get(key)
    if M is None:
        M = memo[key] = band_module(A, w, lam) if band else string_module(A, w)
    return M


def rank_function_of(A, rep):
    return {aid: sparse_rank(rep.mats[aid]) for aid in A.arrow_ids}


def _room(A, max_len, dims):
    """Basis vectors each vertex may still take (index = vertex, slot 0
    unused), dims checked by `_dimension_vector`.  Without dims nothing
    binds: a word of length <= max_len has at most max_len + 1 basis
    vectors."""
    if dims is None:
        return [max_len + 1] * (A.n + 1)
    return [0, *_dimension_vector(A, dims)]


def enumerate_strings(A, max_len, dims=None):
    """All canonical strings of length <= max_len, deterministic order.

    With a dimension vector `dims`, only the strings whose module has
    dimension vector <= dims entrywise: the unrestricted list filtered,
    in the same order.  The search cuts a word as soon as some vertex
    holds more basis vectors than dims allows, since extending a word
    only adds basis vectors.
    """
    tab = _letter_table(A)
    after, source = tab.after, tab.source
    room = _room(A, max_len, dims)
    word, found = [], []

    def extend():
        # every string is walked in both orientations; keep the canonical
        # one, the smaller letter tuple of {C, C^-}
        if _before_inverse(word):
            found.append(tuple(word))
        if len(word) >= max_len:
            return
        for c in after[word[-1]]:
            v = source[c]
            if room[v]:
                room[v] -= 1
                word.append(c)
                extend()
                word.pop()
                room[v] += 1

    if max_len >= 1:
        for c in tab.letters:
            s, t = source[c], tab.target[c]
            room[s] -= 1
            room[t] -= 1
            if room[s] >= 0 and room[t] >= 0:
                word.append(c)
                extend()
                word.pop()
            room[s] += 1
            room[t] += 1
    return [StringWord((), v) for v in range(1, A.n + 1) if room[v]] + \
        [StringWord(w) for w in sorted(found, key=lambda w: (len(w), w))]


def enumerate_bands(A, max_len, dims=None):
    """All canonical bands of length <= max_len, deterministic order.

    `dims` restricts the list as in `enumerate_strings`, here to the
    bands whose modules have dimension vector <= dims.

    A canonical band starts with the least letter of its word and of its
    inverse, and that letter is direct (a sorts before a^-).  So the
    search starts only from direct letters a and never takes an arrow
    that sorts before a.  The rotations of a band and of its inverse
    visit the same vertices, so the dims cap keeps the canonical one
    whenever it keeps any.
    """
    tab = _letter_table(A)
    after, target, pairs = tab.after, tab.target, tab.pairs
    room = _room(A, max_len, dims)
    word, found = [], set()

    def extend():
        # a closed walk that is no proper power is a band; each band is
        # walked from several rotations, kept once as its least rotation
        if len(word) >= 2 and (word[-1], word[0]) in pairs:
            ls = tuple(word)
            if not _is_proper_power(ls):
                found.add(_least_rotation(ls))
        if len(word) >= max_len:
            return
        for c in after[word[-1]]:
            v = target[c]
            if room[v] and c[0] >= word[0][0]:
                room[v] -= 1
                word.append(c)
                extend()
                word.pop()
                room[v] += 1

    for c in tab.letters:
        v = target[c]
        if room[v] and not c[1]:
            room[v] -= 1
            word.append(c)
            extend()
            word.pop()
            room[v] += 1
    return [BandWord(w) for w in sorted(found, key=lambda w: (len(w), w))]


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
# different one, so that no two summands are isomorphic.  M(B, lam) is
# M(B^-, lam), or M(B^-, 1/lam) when the first and last letters of B
# point opposite ways (the last step of `word_walk` carries the
# parameter); two different integers >= 2 are neither equal nor
# reciprocal, so a band and its inverse cannot name one module either.
# 0 gives no band module, and 1 stays for the probe modules M(B, 1) that
# `standard_homs` and `decompose` compare against.
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
    taking the next parameter from `lams` (default: band_parameters()).
    The summands come from `_word_rep`, so a module that the algebra
    already holds (the modules of `schemes._word_pair`, say) is
    not built again."""
    lams = band_parameters() if lams is None else lams
    return direct_sum(A, [_word_rep(A, w, next(lams)
                                    if isinstance(w, BandWord) else None)
                          for w in words])


def conjugate(A, rep, gs):
    """g.M for an invertible matrix tuple g (one matrix per vertex).  The
    inverse is exact; for a unimodular integer g (as `random_glpoint`
    draws) it is an integer matrix, and g.M is integral when M is.  g_v
    is read only where an arrow with nonzero dims at both ends meets v."""
    inv, mats = {}, {}
    for aid in A.arrow_ids:
        sv, tv = A.s(aid) - 1, A.t(aid) - 1
        # an arrow at a zero space keeps make_rep's zero matrix: its
        # product would go through an empty factor, which mat_mul rejects
        if rep.dims[sv] and rep.dims[tv]:
            if sv not in inv:
                inv[sv] = mat_inverse(gs[sv])
            mats[aid] = mat_mul(mat_mul(gs[tv], rep.mat(aid)), inv[sv])
    return make_rep(A, rep.dims, mats)


def random_glpoint(rng, dims, bound=5):
    """One unimodular integer matrix per vertex, g = L * U with L lower
    and U upper unitriangular, their off-diagonal entries drawn from
    [-bound, bound]: det g = 1, so g^-1 is an integer matrix too."""
    gs = []
    for d in dims:
        lo = [[rng.randint(-bound, bound) if j < i else int(i == j)
               for j in range(d)] for i in range(d)]
        up = [[rng.randint(-bound, bound) if j > i else int(i == j)
               for j in range(d)] for i in range(d)]
        # an empty space takes the empty matrix, with no product formed
        gs.append(mat_mul(lo, up) if d else [])
    return gs


# ---------------------------------------------------------------------------
# Hom spaces and Krull-Schmidt decomposition


def _complex_rows(sizes, terms, sign):
    """Sparse rows of a differential of the standard complex of the
    arrows and relations, (f_x) -> f_i X + sign Y f_j, one term per arrow
    or relation.  The unknowns come in blocks: f_x is a matrix of shape
    sizes[x] = (rows, columns), its entry (u, k) the unknown
    offs[x] + u columns + k.  A term (i, X, j, Y, ws) gives the entries
    (u, w) of f_i X + sign Y f_j, u over the rows of f_i and w over ws,
    columns of f_j.  Returns (rows, offs, unknowns)."""
    offs = list(itertools.accumulate((r * c for r, c in sizes), initial=0))
    rows = []
    for i, X, j, Y, ws in terms:
        oi, (ri, ci) = offs[i], sizes[i]
        oj, (rj, cj) = offs[j], sizes[j]
        for u in range(ri):
            Yu, base = Y[u], oi + u * ci
            for w in ws:
                row = {}
                for k in range(ci):
                    if X[k][w]:
                        row[base + k] = X[k][w]
                for k in range(rj):
                    if Yu[k]:
                        key = oj + k * cj + w
                        row[key] = row.get(key, 0) + sign * Yu[k]
                if row:
                    rows.append(row)
    return rows, offs[:-1], offs[-1]


def _intertwiner_rows(A, M, N, skip=None):
    """The equations f_t M_a = N_a f_s of Hom(M, N) as sparse rows, one
    per arrow a, basis vector w of M at s(a) and coordinate u of N at
    t(a): f(M_a w) = N_a f(w) in coordinate u (`_complex_rows`, blocks
    per vertex, one term per arrow).  Returns (rows, offs, unknowns);
    f_v is the N_v x M_v matrix of the unknowns offs[v] + u dM_v + k.
    skip = (a, w) leaves out the rows of that one pair."""
    terms = []
    for aid, s, t in A.quiver.arrows:
        ws = range(M.dims[s - 1])
        if skip is not None and skip[0] == aid:
            ws = [w for w in ws if w != skip[1]]
        terms.append((t - 1, M.mats[aid], s - 1, N.mats[aid], ws))
    return _complex_rows(list(zip(N.dims, M.dims)), terms, -1)


def hom_dim(A, M, N):
    """dim Hom(M, N): solution space of f_t M_a = N_a f_s for all a."""
    rows, _, nvars = _intertwiner_rows(A, M, N)
    return nvars - sparse_rank(rows)


def _hom_space(A, M, N):
    """Hom(M, N) from one reduction of its intertwiner rows (`_echelon`):
    the free unknowns, in increasing order, and a function that takes
    values {free unknown: integer} to the map, as per-vertex N_v x M_v
    matrices, that has those values times a positive integer and is 0 at
    the other free unknowns (`_kernel_point`).  Every module map of
    `decompose` is such a point; no Hom basis is built."""
    rows, offs, nvars = _intertwiner_rows(A, M, N)
    ech = _echelon(rows)
    free = [f for f in range(nvars) if f not in ech]

    def point(values):
        x = _kernel_point(ech, nvars, values)
        return [[x[o + i * dM:o + (i + 1) * dM] for i in range(dN)]
                for o, dM, dN in zip(offs, M.dims, N.dims)]
    return free, point


def _monomial_steps(A, rep):
    """The coefficient quiver of rep in its own basis, when every arrow
    matrix has at most one nonzero entry in each row and each column (a
    monomial basis, as word modules have): one (arrow, source, target,
    entry) per nonzero entry, the basis vectors numbered through the
    vertices in order.  None otherwise, returned at the first row or
    column that holds a second nonzero entry."""
    offs = list(itertools.accumulate(rep.dims, initial=0))
    steps = []
    for aid in A.arrow_ids:
        so, to = offs[A.s(aid) - 1], offs[A.t(aid) - 1]
        cols = set()
        for i, row in enumerate(rep.mats[aid]):
            hit = None
            for j, x in enumerate(row):
                if x:
                    if hit is not None or j in cols:
                        return None
                    hit = j
            if hit is not None:
                cols.add(hit)
                steps.append((aid, so + hit, to + i, row[hit]))
    return steps


def _arrow_edges(steps, n):
    """The edges of each of the n basis vectors x in the coefficient
    quiver `steps`: (a, True) -> (x', m) where a sends x to m x', and
    (a, False) -> (x', m) where a sends x' to m x."""
    edges = [{} for _ in range(n)]
    for aid, j, i, x in steps:
        edges[j][aid, True] = (i, x)
        edges[i][aid, False] = (j, x)
    return edges


def _basis_matching(A, M, N):
    """An isomorphism M -> N that sends each basis vector to a multiple
    of one basis vector, as per-vertex N_v x M_v matrices, or None; M and
    N have equal dimension vectors.

    Both bases must be monomial (`_monomial_steps`), else None at once.
    The basis vectors x of M are taken in order, each not yet matched
    tried against the unused basis vectors y of N at its vertex with its
    set of edge labels (bucketed by both).  From x -> y the map follows
    the edges of the two coefficient quivers: where a sends x to m x' and
    y to k y', x' -> (c k / m) y', and where a sends x' to m x and y' to
    k y, x' -> (c m / k) y', for x -> c y.  Every matched pair has equal
    edge-label sets, so N_a f = f M_a also where M_a x = 0; a pair that
    clashes with an earlier one, or a y used twice, undoes the walk from
    x and the next y is tried.  A walk that succeeds matches x's whole
    component, and components are taken greedily.  The map is an
    intertwiner and a bijection of bases, hence invertible.  None says
    M != N when N is a word module, as `_identify` reads it, but not in
    general: M(B^2, mu^2) = M(B, mu) + M(B, -mu), yet no basis matching
    joins the two."""
    steps_m = _monomial_steps(A, M)
    steps_n = None if steps_m is None else _monomial_steps(A, N)
    if steps_n is None:
        return None
    n = M.dim()
    em, en = _arrow_edges(steps_m, n), _arrow_edges(steps_n, n)
    offs = list(itertools.accumulate(M.dims, initial=0))
    vertex = [v for v, d in enumerate(M.dims) for _ in range(d)]
    bucket = {}
    for y in range(n):
        bucket.setdefault((vertex[y], frozenset(en[y])), []).append(y)
    image = [None] * n  # x -> (y, c): x goes to c y
    used = [False] * n

    def walk(x0, y0):
        image[x0], used[y0] = (y0, 1), True
        done, stack = [x0], [x0]
        while stack:
            x = stack.pop()
            y, c = image[x]
            ey = en[y]
            for label, (x2, m) in em[x].items():
                y2, k = ey[label]
                c2 = _ratio(c * k, m) if label[1] else _ratio(c * m, k)
                if image[x2] is not None:
                    if image[x2] == (y2, c2):
                        continue
                elif not used[y2] and em[x2].keys() == en[y2].keys():
                    image[x2], used[y2] = (y2, c2), True
                    done.append(x2)
                    stack.append(x2)
                    continue
                for z in done:
                    used[image[z][0]] = False
                    image[z] = None
                return False
        return True

    for x0 in range(n):
        if image[x0] is None and not any(
                walk(x0, y0) for y0 in bucket.get(
                    (vertex[x0], frozenset(em[x0])), ()) if not used[y0]):
            return None
    f = [[[0] * d for _ in range(d)] for d in M.dims]
    for x, (y, c) in enumerate(image):
        v = vertex[x]
        f[v][y - offs[v]][x - offs[v]] = c
    return f


def iso_test(A, M, N):
    """Whether M and N are isomorphic: dimension vectors first, then a
    map that follows the arrows when both bases are monomial
    (`_basis_matching`), then rank functions and an invertible point of
    the reduced Hom system (`_hom_certificate`).  Every True is certified
    by an explicit invertible intertwiner."""
    if M.dims != N.dims:
        return False
    if M.dim() == 0:
        return True
    if _basis_matching(A, M, N) is not None:
        return True
    if rank_function_of(A, M) != rank_function_of(A, N):
        return False
    return _hom_certificate(A, M, N) is not None


def _hom_certificate(A, M, N):
    """An invertible point of `_hom_space(A, M, N)` found in eight tries,
    or None: its free unknowns take all ones first, then seven seeded
    draws from [-7, 7]."""
    free, point = _hom_space(A, M, N)
    if not free:
        return None
    rng = random.Random(1729)
    for attempt in range(8):
        f = point({k: 1 if attempt == 0 else rng.randint(-7, 7)
                   for k in free})
        if all(map(is_invertible, f)):
            return f
    return None


def _subrep(A, rep, bases):
    """Restrict to invariant per-vertex column spans.

    Per arrow, one echelon form of [target basis | images of the source
    basis] gives every image's coordinates: a pivot at or beyond the
    basis width is an image outside the span (`SubspaceNotInvariant`,
    an internal error: callers pass invariant bases), and otherwise the
    image of source vector j has coordinate row[k + j] / row[i] on target
    basis vector i.  Three cases need no elimination: an empty source
    basis (the matrix is k x 0), an empty target basis (every image must
    be zero) and the unit basis of the whole target space (the images
    are their own coordinates)."""
    dims = tuple(len(b) for b in bases)
    mats = {}
    for aid in A.arrow_ids:
        sv, tv = A.s(aid) - 1, A.t(aid) - 1
        k = dims[tv]
        if not dims[sv]:
            continue  # make_rep's k x 0 matrix
        images = [[sum(y * z for y, z in zip(row, vec) if y)
                   for row in rep.mats[aid]] for vec in bases[sv]]
        if not k:
            if any(map(any, images)):
                raise SubspaceNotInvariant("subspace not invariant")
            continue
        if k == rep.dims[tv] and bases[tv] == identity(k):
            mats[aid] = [list(row) for row in zip(*images)]
            continue
        rows = [{} for _ in range(rep.dims[tv])]
        for c, vec in enumerate(bases[tv]):
            for i, x in enumerate(vec):
                if x:
                    rows[i][c] = x
        for j, image in enumerate(images):
            for i, x in enumerate(image):
                if x:
                    rows[i][k + j] = x
        ech = _echelon(rows)
        if any(p >= k for p in ech):
            raise SubspaceNotInvariant("subspace not invariant")
        mat = [[0] * dims[sv] for _ in range(k)]
        for i, row in ech.items():
            for j in range(dims[sv]):
                if k + j in row:
                    mat[i][j] = _ratio(row[k + j], row[i])
        mats[aid] = mat
    return make_rep(A, dims, mats)


def _shifted_power(phi_v, r, m):
    """(q phi_v - p)^m for r = p/q, which has the kernel and image of
    (phi_v - r)^m and integer entries when phi_v has."""
    p, q = r.numerator, r.denominator
    b = [[q * x - (p if i == j else 0) for j, x in enumerate(row)]
         for i, row in enumerate(phi_v)]
    pw = b
    for _ in range(m - 1):
        pw = mat_mul(b, pw)
    return pw


def _try_split(A, rep, phi):
    """Split rep along the endomorphism phi, or None.

    phi is block diagonal, so its eigenvalues are those of its vertex
    blocks phi_v; their rational ones, with multiplicities, are read once
    per block: a 1x1 block is its own eigenvalue, a larger one gives
    `rational_roots` of its `charpoly` (0 among them when phi_v is
    singular).  rep is the direct sum of the generalized eigenspaces at
    the rational roots r and of the image of the product of the
    (phi - r)^m, on which phi has no rational eigenvalue; all are
    subrepresentations, since phi commutes with the arrows.  At a vertex
    the eigenspace of r is built only where r is an eigenvalue of phi_v:
    the unit basis where it is the only one, else ker (phi_v - r)^m with
    m its multiplicity there; the image is built only at the vertices
    the eigenspaces leave unfilled.  One block per eigenspace, in
    increasing r, then the image when the eigenspaces do not fill rep
    (with one rational root, the Fitting split ker + im); a single
    eigenvalue, or none rational, gives no split."""
    mult = [{} if not d else {Fraction(phi[v][0][0]): 1} if d == 1 else
            Counter(rational_roots(charpoly(phi[v])))
            for v, d in enumerate(rep.dims)]
    roots = sorted(set().union(*mult))
    index = {r: k for k, r in enumerate(roots)}
    sizes = [0] * len(roots)
    for m in mult:
        for r, e in m.items():
            sizes[index[r]] += e
    total = rep.dim()
    if not roots or total in sizes:
        return None
    bases = [[[] for _ in rep.dims] for _ in roots]
    image = []
    for v, (m, d) in enumerate(zip(mult, rep.dims)):
        rest = identity(d) if sum(m.values()) < d else None
        for r, e in m.items():
            if e == d:
                bases[index[r]][v] = identity(d)
                continue
            pw = _shifted_power(phi[v], r, e)
            bases[index[r]][v] = nullspace(pw, d)
            if rest is not None:
                rest = mat_mul(pw, rest)
        image.append([] if rest is None else rref(list(zip(*rest)), d)[0])
    if sum(sizes) < total:
        bases.append(image)
    return [_subrep(A, rep, b) for b in bases]


def _split_once(A, rep, rng, table):
    """Try `_try_split` along six random endomorphisms, then along those
    of `_through_words`; each is a point of a `_hom_space`.

    Modulo rad End(rep), a random phi acts on each word summand by a
    rational scalar, and non-isomorphic summands almost always get
    different ones, so one `_try_split` cuts rep into a block per class
    of isomorphic summands.  The free unknowns take seeded draws from
    [-9, 9], all six drawn up front.  End(rep) = Q (one free unknown)
    means rep is indecomposable."""
    free, point = _hom_space(A, rep, rep)
    if len(free) == 1:
        return None
    draws = [{f: rng.randint(-9, 9) for f in free} for _ in range(6)]
    for phi in itertools.chain(map(point, draws),
                               _through_words(A, rep, table, rng)):
        blocks = _try_split(A, rep, phi)
        if blocks:
            return blocks
    return None


def _through_words(A, rep, table, rng):
    """Endomorphisms f g of rep through the word modules W of `table`
    whose dims and ranks fit under rep's: two per (word, parameter),
    f in Hom(W, rep) and g in Hom(rep, W) points of their `_hom_space`
    at values drawn from `rng` in [-2^15, 2^15].  A band is tried at
    each parameter of `band_lambda_candidates` for rep, which lists the
    parameter of every band summand of rep with that word.

    g f lies in End(W) = Q + rad (Crawley-Boevey 1989), so f g has one
    nonzero eigenvalue c at most, rational, and splits along c and 0.
    When W is a summand of rep, c is a nonzero bilinear form in the
    drawn values, so a draw misses (c = 0) with probability at most
    2/65,537 (Schwartz-Zippel).  These maps split repeated summands
    M + M, on which every random endomorphism may act as X (x) id_M with
    X irreducible over Q."""
    rf = rank_function_of(A, rep)
    top = rep.dims + tuple(rf[a] for a in A.arrow_ids)

    def draw(free):
        return {k: rng.randint(-2 ** 15, 2 ** 15) for k in free}

    for shape, words in table.items():
        if any(x > y for x, y in zip(shape, top)):
            continue
        for w in words:
            lams = ([None] if not isinstance(w, BandWord)
                    else band_lambda_candidates(A, w, rep))
            for lam in lams:
                W = _word_rep(A, w, lam)
                g_free, g_at = _hom_space(A, rep, W)
                if not g_free:
                    continue
                f_free, f_at = _hom_space(A, W, rep)
                for _ in range(2) if f_free else ():
                    g, f = g_at(draw(g_free)), f_at(draw(f_free))
                    # f_v g_v is zero where W_v = 0
                    yield [mat_mul(fv, gv) if gv else
                           [[0] * d for _ in range(d)]
                           for fv, gv, d in zip(f, g, rep.dims)]


def band_lambda_candidates(A, B, rep):
    """The nonzero rationals mu at which dim Hom(M(B, mu), rep) exceeds
    its generic value, and 1, as a sorted list of Fractions: it holds
    every mu at which M(B, mu) is a summand of rep.

    The last step of `word_walk` sends basis x to mu y under an arrow a,
    and no other intertwiner equation involves mu.  So Hom(M(B, mu), rep)
    = {f in H : X f = mu Y f}, where H (dim k) solves the integer system
    of every other equation (`_intertwiner_rows` of M(B, 1) skipping
    (a, x), one `nullspace`), X f = rep_a f(x) and Y f = f(y), both in
    rep at t(a) (dim d).  The Hom dimension exceeds its generic value
    where the pencil X - mu Y drops below its generic rank r, the largest
    rank over mu = 0, ..., min(d, k) (a nonzero r x r minor has at most r
    roots).  There an r x r compression P - mu Q = R (X - mu Y) S, R and
    S seeded draws from [-7, 7], is singular; for a point c with P - c Q
    invertible, det(P - mu Q) = det(P - c Q) det(I - (mu - c) T) with
    T = (P - c Q)^-1 Q, so each such mu is c + 1/eta for a nonzero
    rational root eta of `charpoly` T.  The draw is repeated up to eight
    times until some c works (`InternalError` if none does).  R and S
    may add roots where X - mu Y keeps rank r; one rank each drops
    them."""
    verts, steps = word_walk(A, B)
    aid, x, y = steps[-1]
    sv, tv = A.s(aid) - 1, A.t(aid) - 1
    # local indices of x at s(a) and of y at t(a)
    ix, iy = verts[:x].count(verts[x]), verts[:y].count(verts[y])
    M = _word_rep(A, B, 1)
    rows, offs, nvars = _intertwiner_rows(A, M, rep, skip=(aid, ix))
    hs = nullspace(rows, nvars)
    d, k = rep.dims[tv], len(hs)
    ns, ms, mt = rep.dims[sv], M.dims[sv], M.dims[tv]
    fx = [[h[offs[sv] + u * ms + ix] for u in range(ns)] for h in hs]
    X = [[sum(z * f for z, f in zip(row, col) if z) for col in fx]
         for row in rep.mats[aid]]
    Y = [[h[offs[tv] + u * mt + iy] for h in hs] for u in range(d)]
    pts = range(min(d, k) + 1)

    def pencil(X, Y, c):
        return [[p - c * q for p, q in zip(xr, yr)] for xr, yr in zip(X, Y)]

    r = max(sparse_rank(pencil(X, Y, c)) for c in pts)
    rng = random.Random(1729)
    for _ in range(8):
        R = [[rng.randint(-7, 7) for _ in range(d)] for _ in range(r)]
        S = [[rng.randint(-7, 7) for _ in range(r)] for _ in range(k)]
        P, Q = mat_mul(mat_mul(R, X), S), mat_mul(mat_mul(R, Y), S)
        c = next((c for c in pts if is_invertible(pencil(P, Q, c))), None)
        if c is not None:
            T = mat_mul(mat_inverse(pencil(P, Q, c)), Q)
            mus = {c + 1 / eta for eta in rational_roots(charpoly(T)) if eta}
            return sorted({mu for mu in mus if mu and
                           sparse_rank(pencil(X, Y, mu)) < r} | {Fraction(1)})
    raise InternalError(f"no invertible compression of the pencil of {B}")


def _support_split(A, rep):
    """Split along connected components of the coordinate support graph.

    Exactly block-diagonal representations (untwisted direct sums) fall
    apart here without any linear algebra: the basis of a block is a set
    of unit vectors, so its matrices are the rows and columns of rep's
    at those indices (in increasing order per vertex), and `make_rep`
    checks the relations on them as on every construction.  `_subrep` on
    the unit vectors gives the same blocks and is the oracle.
    """
    nodes = [(v, i) for v in range(A.n) for i in range(rep.dims[v])]
    if not nodes:
        return None
    uf = _UF()
    for aid in A.arrow_ids:
        sv, tv = A.s(aid) - 1, A.t(aid) - 1
        for i, row in enumerate(rep.mats[aid]):
            for j, x in enumerate(row):
                if x:
                    uf.union((tv, i), (sv, j))
    comps = {}
    for x in nodes:
        comps.setdefault(uf.find(x), []).append(x)
    if len(comps) <= 1:
        return None
    blocks = []
    for root in sorted(comps):
        idx = [[] for _ in range(A.n)]
        for (v, i) in comps[root]:
            idx[v].append(i)
        mats = {}
        for aid in A.arrow_ids:
            rows, cols = idx[A.t(aid) - 1], idx[A.s(aid) - 1]
            m = rep.mats[aid]
            mats[aid] = [[m[i][j] for j in cols] for i in rows]
        blocks.append(make_rep(A, [len(x) for x in idx], mats))
    return blocks


def decompose(A, rep, seed=0, words=None):
    """Krull-Schmidt decomposition into StringWords and (BandWord, lambda).

    Each piece, starting from rep, is first split along its support graph
    if that falls apart.  A block of that split is connected by
    construction and skips the test; a block of a Fitting split takes it
    only if identification rejects it.  A piece that does not fall apart
    is identified before it is split: `_identify` looks its shape up in a
    table of words (`_shape_table`) and certifies a match with an
    explicit invertible intertwiner, so an accepted piece is an
    indecomposable word module.  A piece identification rejects is split
    along maps drawn from `random.Random(seed)` (`_split_once`), each
    read off one reduced intertwiner system (`_hom_space`); one that does
    not split either is taken for no word module with a rational
    parameter (`DictionaryExhausted`), wrongly only if every draw
    through its summands' words misses (at most 2/65,537 each).

    The table of a piece is that of the words the caller names (`words`,
    the certified multiset of a generic point, say) when there are any.
    A piece that none of them matches and that does not split along
    them reads the table of every word that fits its own dims
    (`_word_table`) instead, as does every piece when `words` is None;
    so no table of every word that fits the whole dims is built unless
    rep is such a piece.  The pieces of a Fitting split keep the table of
    the piece they came from, which holds every word that fits them; the
    pieces of a support split, small word modules when rep is a
    `word_sum`, take the named words or the table of their own dims."""
    rng = random.Random(seed)
    named = None if words is None else _shape_table(A, words)
    pieces = [(rep, named, False)]
    out = []
    while pieces:
        p, table, connected = pieces.pop()
        if p.dim() == 0:
            continue
        # a piece with a table at hand is identified before its support
        # is tested
        label = None if table is None else _identify(A, p, table)
        if label is None:
            blocks = None if connected else _support_split(A, p)
            if blocks is not None:
                pieces.extend((b, named, True) for b in blocks)
                continue
            if table is None:
                table = _word_table(A, p.dims)
                label = _identify(A, p, table)
        if label is not None:
            out.append(label)
            continue
        blocks = _split_once(A, p, rng, table)
        if blocks is None and table is named:
            # no named word is p, and p does not split along them: p is
            # connected (its support was tested), so it comes back with
            # the table of its own dims
            pieces.append((p, None, True))
            continue
        if blocks is None:
            raise DictionaryExhausted(
                f"summand with dims {p.dims} neither splits nor is a word")
        pieces.extend((b, table, False) for b in blocks)
    return sorted(out, key=lambda x: (isinstance(x, tuple), str(x[0] if
                                      isinstance(x, tuple) else x)))


def _identify(A, p, table):
    """The word (a StringWord, or (BandWord, lambda)) of p among the words
    of `table` (a `_shape_table`), or None.

    Only the words with p's shape (dims and rank function) can match, so
    a piece whose dims no word has is rejected before its ranks are read,
    and one whose string count is not 0 or 1, or whose shape no word
    has, before any module is built.  Each candidate module is
    built once per algebra (`_word_rep`), a band's at each parameter of
    `band_lambda_candidates` (read off the integer Hom system of M(B, 1)
    and p, and holding p's parameter if p is a module of the band B),
    and an explicit invertible intertwiner certifies every match: one
    that follows arrows (`_basis_matching`), else, for a piece not in a
    monomial basis (a conjugated generic point, say), a point of the
    reduced Hom system (`_hom_certificate`).  A monomial piece (a
    support-split piece of a `word_sum`) is identified by the walk alone:
    a word module is indecomposable, so its coefficient quiver in a
    monomial basis is connected, hence one walk (the relations allow each
    basis vector one continuation on each side), and walk modules are
    isomorphic only when the walks agree up to reversal and rotation,
    with matching scalars, as the walk finds.  Whether p is monomial is
    read after the first walk that fails."""
    if not any(shape[:A.n] == p.dims for shape in table):
        return None
    rf = rank_function_of(A, p)
    monomial = None
    for w in table.get(p.dims + tuple(rf[a] for a in A.arrow_ids), ()):
        band = isinstance(w, BandWord)
        for lam in band_lambda_candidates(A, w, p) if band else (None,):
            N = _word_rep(A, w, lam)
            if _basis_matching(A, p, N) is None:
                if monomial is None:
                    monomial = _monomial_steps(A, p) is not None
                if monomial or _hom_certificate(A, p, N) is None:
                    continue
            return (w, lam) if band else w
    return None
