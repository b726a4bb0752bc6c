"""Hom/Ext dimensions, AR translation, presentations, g-vectors.

Every combinatorial operation here is paired elsewhere with an
independent linear-algebra oracle: hom_dim_oracle solves intertwiner
systems, tau_dtr computes the translate through a minimal projective
presentation, transpose and duality, and ext1_dim reads Ext^1 off the
long exact sequence 0 -> Hom(M, N) -> Hom(P0, N) -> Hom(Omega M, N) ->
Ext^1(M, N) -> 0 of that presentation.  The combinatorial routes are
standard_homs (complete basis of Hom between string/band modules) and
tau_string (hook/cohook surgery on the word).  Both write each end rule
once, as the far end of a word is the start of its inverse: tau_string
handles each end as the start of the word or of its inverse (`_cohook`,
`_hook`), and the factor rule of standard_homs tests the inverse flag of
the letter before a factor; the letter after it, inverted, is the letter
before the factor in the inverse word, so one rule serves both sides.
A band is a string read around its cycle, so one generator (`_factors`)
yields the factors of both: a band's letters are read cyclically, and
its factors wrap around up to a length bound.

The algebra is quadratic monomial, so Hom, Z^1, Ext^1 and g-vectors are
also read off its standard complex C^0 -> C^1 -> C^2 of the vertices,
arrows and relations, with no presentation.  One row builder
(`strings._complex_rows`) writes both differentials: Hom(M, N) = ker d^0
(`strings._intertwiner_rows`) and Z^1(M, N) = ker d^1 (`_relation_rows`,
read by `_cocycle_dim` alone).  Ext^1 = Z^1 / B^1 (`ext1_complex_dim`),
and g_v(M) = dim Z^1(M, S_v) - dim M_v, which needs no elimination:
Z^1(M, S_v) has a closed form in the dims and ranks of M
(`strings._g_of_shape`, read by `g_vector`).  The presentation routes
(`_g_of_presentation`, `ext1_dim`) and, for g, `_cocycle_dim(M, S_v)` are
their oracles.
"""

from dataclasses import dataclass

from .errors import InternalError
from .exactlinalg import (_echelon, _forward, _ratio, nullspace,
                          sparse_rank)
from .quiver import _algebra_memo
from .strings import (BandWord, StringWord, _complex_rows, _letter_table,
                      _g_of_shape, _subrep, _sum_offsets, canonical_band,
                      band_word, canonical_string, direct_sum, hom_dim,
                      letter_inv, letter_s, letter_t, make_rep,
                      rank_function_of, string_word, zero_rep)

hom_dim_oracle = hom_dim


class FormulaMismatch(InternalError):
    pass


@dataclass(frozen=True)
class DecoratedModule:
    module: object  # Representation
    decoration: tuple  # naturals per vertex

    def dims(self):
        return self.module.dims


@dataclass(frozen=True)
class StandardHom:
    source: object
    target: object
    quot: tuple  # factorization data on the source side
    sub: tuple  # factorization data on the target side
    oriented: bool
    two_sided: bool
    is_identity: bool = False


# ---------------------------------------------------------------------------
# projectives, covers, presentations


def path_target(A, p, start):
    return A.t(p[0]) if p else start


def projective_rep(A, i):
    """The indecomposable projective at vertex i with its path basis:
    (rep, paths, index).  Built once per vertex and kept on the algebra
    object, so every caller shares it; none may change it."""
    memo = _algebra_memo(A, "_projectives")
    if i not in memo:
        memo[i] = _projective_rep(A, i)
    return memo[i]


def _projective_rep(A, i):
    """The paths p = (a_k, ..., a_1) with s(a_1) = i that avoid the
    relations, the lazy path () included, sorted by (length, p), are the
    basis; each arrow b sends p to (b,) + p when that path avoids them.
    The relations make the algebra finite-dimensional, so the walk, which
    extends `found` while it reads it, ends."""
    found, steps = [()], []
    for p in found:
        for b in A.quiver.arrows_from(path_target(A, p, i)):
            if not p or (b, p[0]) not in A.relations:
                found.append((b,) + p)
                steps.append((b, p))
    paths = tuple(sorted(found, key=lambda p: (len(p), p)))
    by_vertex = {v: [] for v in range(1, A.n + 1)}
    for p in paths:
        by_vertex[path_target(A, p, i)].append(p)
    index = {}
    dims = [0] * A.n
    for v in range(1, A.n + 1):
        for k, p in enumerate(by_vertex[v]):
            index[p] = (v, k)
        dims[v - 1] = len(by_vertex[v])
    mats = {aid: [[0] * dims[A.s(aid) - 1] for _ in range(dims[A.t(aid) - 1])]
            for aid in A.arrow_ids}
    for b, p in steps:
        mats[b][index[(b,) + p][1]][index[p][1]] = 1
    return make_rep(A, dims, mats), paths, index


def _image_rows(mat, vecs):
    """The images mat * vec of {col: value} vectors, as {row: value} dicts."""
    cols = [[(i, x) for i, x in enumerate(col) if x] for col in zip(*mat)]
    out = []
    for vec in vecs:
        img = {}
        for j, y in vec.items():
            for i, x in cols[j]:
                img[i] = img.get(i, 0) + x * y
        out.append({i: x for i, x in img.items() if x})
    return out


def _tops(A, mats, ech, dims):
    """Top vectors of a subrepresentation X of a representation with
    arrow matrices `mats` and dimensions `dims`, given per vertex v the
    reduced echelon form {pivot: row} of X_v, as (vertex, vector) pairs
    in vertex order.

    rad(X)_v is spanned by the images of X_u under the arrows u -> v.
    The tops at v are the rows of the echelon form of X_v at the pivot
    columns that the echelon form of rad(X)_v lacks; those leading
    columns are read off the forward pass alone.  The leading columns of
    a subspace are among those of the whole space, so these rows meet
    rad(X)_v only in 0 and complete it to a basis of X_v.  For
    a module in its own coordinates (unit vector rows) they are the unit
    vectors at the non-pivot columns."""
    tops = []
    for v in range(A.n):
        if not ech[v]:
            continue  # X_v = 0: no tops
        rad = []
        for aid in A.quiver.arrows_into(v + 1):
            rad += _image_rows(mats[aid], ech[A.s(aid) - 1].values())
        lead = _forward(rad)
        tops += [(v + 1, [row.get(j, 0) for j in range(dims[v])])
                 for c, row in sorted(ech[v].items()) if c not in lead]
    return tops


@dataclass
class Presentation:
    """Minimal projective presentation P1 -> P0 -> M -> 0.

    P0 is the direct sum of one indecomposable projective P_v per top
    vector of M (its copies, in vertex order); the cover sends the
    generator of each copy to that top vector.  Omega(M), the kernel of
    the cover, is kept as its column bases inside P0, and P1 covers it
    in the same way.  P0 and its copy data depend on n_vec only and are
    shared with every presentation of the same n_vec (see `_p0`).

    The presentation is built for tau (`tau_dtr`), Ext^1 (`ext1_dim`)
    and the E-invariant; `g_vector` reads m_vec - n_vec off the dims and
    ranks of M instead (dim Z^1(M, S_v) - dim M_v, `_g_of_shape`), and
    `_g_of_presentation` is its oracle.
    """
    n_vec: tuple  # top multiplicities of M
    m_vec: tuple  # top multiplicities of Omega(M)
    p0: object  # Representation of P0
    omega_bases: list  # per-vertex integer column bases of Omega inside P0
    p0_copies: list  # per copy: (vertex v, top vector of M at v)
    p0_paths: tuple  # per copy: projective_rep(A, v), (rep, paths, index)
    p0_offsets: tuple  # per copy: where its basis starts at each vertex of P0
    omega_tops: list  # per P1-copy: (vertex j, top vector of Omega in P0 at j)


def _p0(A, n_vec):
    """(P0, per-copy projective_rep, per-copy offsets, dims) for top
    multiplicities n_vec: n_vec[v - 1] copies of P_v in vertex order.
    Built once per n_vec and kept on the algebra object, so every
    presentation with these tops shares it; none may change it."""
    memo = _algebra_memo(A, "_p0s")
    if n_vec not in memo:
        paths = tuple(projective_rep(A, v) for v in range(1, A.n + 1)
                      for _ in range(n_vec[v - 1]))
        reps = [rep for rep, _, _ in paths]
        offsets, dims = _sum_offsets(A, reps)
        memo[n_vec] = (direct_sum(A, reps), paths, tuple(offsets), dims)
    return memo[n_vec]


def min_proj_presentation(A, M):
    """The minimal projective presentation of M (see Presentation)."""
    n = A.n
    copies = _tops(A, M.mats, [{j: {j: 1} for j in range(d)} for d in M.dims],
                   M.dims)
    n_vec = tuple(sum(v == u for v, _ in copies) for u in range(1, n + 1))
    p0, p0_paths, offsets, dims = _p0(A, n_vec)
    cover = [[[0] * dims[u] for _ in range(M.dims[u])] for u in range(n)]
    for ci, (v, gen) in enumerate(copies):
        _, paths, index = p0_paths[ci]
        # paths come shortest first, so M_p = M_{p[0]} M_{p[1:]} reuses
        # the image of p[1:]
        image = {(): gen}
        for p in paths:
            if p:
                image[p] = [sum(x * y for x, y in zip(row, image[p[1:]]))
                            for row in M.mats[p[0]]]
            u = path_target(A, p, v)
            col = offsets[ci][u - 1] + index[p][1]
            for i, x in enumerate(image[p]):
                cover[u - 1][i][col] = x
    omega_bases = [nullspace(cover[u], dims[u]) if dims[u] else []
                   for u in range(n)]
    omega_tops = _tops(A, p0.mats, [_echelon(b) for b in omega_bases], dims)
    return Presentation(
        n_vec=n_vec,
        m_vec=tuple(sum(v == u for v, _ in omega_tops)
                    for u in range(1, n + 1)),
        p0=p0, omega_bases=omega_bases, p0_copies=copies, p0_paths=p0_paths,
        p0_offsets=offsets, omega_tops=omega_tops)


def g_vector(A, dec):
    """g_v = dim Z^1(M, S_v) - dim M_v + v_v = m_v - n_v + v_v: the tops
    n_v of M and m_v of Omega M are dim Hom(M, S_v) and dim Ext^1(M, S_v),
    and dim Z^1 = dim Ext^1 + dim B^1 = m_v + dim M_v - n_v.  Z^1(M, S_v)
    has a closed form in the dims and ranks of M (`_g_of_shape`), so g is
    read off `rank_function_of(M)` with no elimination beyond the ranks;
    `_cocycle_dim(M, S_v)` and `_g_of_presentation` are its oracles."""
    M = dec.module if isinstance(dec, DecoratedModule) else dec
    v = dec.decoration if isinstance(dec, DecoratedModule) else None
    return _g_of_shape(A, M.dims, rank_function_of(A, M), v)


def _g_of_presentation(pres, v):
    return tuple(m - n + x for m, n, x in zip(pres.m_vec, pres.n_vec, v))


# ---------------------------------------------------------------------------
# transpose and AR translation


def _paths_ending_at(A, i):
    """Paths p with t(p) = i avoiding relations, including (), read off
    the path bases of the projectives kept on the algebra; built once
    per vertex and kept on the algebra object, as a tuple."""
    memo = _algebra_memo(A, "_paths_ending_at")
    if i not in memo:
        memo[i] = tuple(sorted(
            (p for v in range(1, A.n + 1)
             for p, (u, _) in projective_rep(A, v)[2].items() if u == i),
            key=lambda p: (len(p), p)))
    return memo[i]


def tau_dtr(A, M):
    """Auslander-Reiten translate as D Tr via the minimal presentation."""
    if M.dim() == 0:
        return zero_rep(A)
    return _tau_of_presentation(A, min_proj_presentation(A, M))


def _tau_of_presentation(A, pres):
    n = A.n
    if not pres.omega_tops:
        return zero_rep(A)  # projective module
    # right projectives e_iA for the P0 copies, e_jA for the P1 copies
    sinks = [v for v, _ in pres.p0_copies]
    sources = [v for v, _ in pres.omega_tops]
    right = {v: _paths_ending_at(A, v) for v in set(sinks) | set(sources)}
    basis0, at0 = _right_basis(A, right, sinks)
    basis1, at1 = _right_basis(A, right, sources)
    dims0, dims1 = [len(b) for b in basis0], [len(b) for b in basis1]
    # map G: +e_{i_k}A -> +e_{j_l}A, block (l,k): left multiplication by
    # x_{lk}; per vertex u, column j of G_u as a {row: value} dict
    G = [[{} for _ in range(dims0[u])] for u in range(n)]
    for l, (jl, vec) in enumerate(pres.omega_tops):
        # vec lives in P0 at vertex jl; split into copies
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
            # left multiplication by sum_p comp[p] * p : e_{ik}A -> e_{jl}A
            for y in right[ik]:
                u = A.s(y[-1]) - 1 if y else ik - 1
                col = G[u][at0[u][(k, y)]]
                for p, c in comp.items():
                    row = at1[u].get((l, p + y))
                    if row is not None:  # else killed by a relation
                        col[row] = col.get(row, 0) + c
    # cokernel per vertex: the image of G_u has the reduced echelon form
    # {pivot: row}; the non-pivot coordinates are a basis of the
    # quotient, and a pivot coordinate p is -row[c] / row[p] on each
    # non-pivot c
    ech = [_echelon(G[u]) for u in range(n)]
    quot_basis = [[c for c in range(dims1[u]) if c not in ech[u]]
                  for u in range(n)]
    quot_pos = [{c: i for i, c in enumerate(b)} for b in quot_basis]
    # A^op action on the cokernel: a_op sends t(a)-part to s(a)-part, y -> y.a
    tau_dims = [len(quot_basis[u]) for u in range(n)]
    tau_mats = {}
    for aid in A.arrow_ids:
        su, tu = A.s(aid) - 1, A.t(aid) - 1
        # matrix of a_op on the quotient: from vertex tu to vertex su
        mat = [[0] * tau_dims[tu] for _ in range(tau_dims[su])]
        for col, coord in enumerate(quot_basis[tu]):
            # coord is the basis path y of copy l at vertex t(a)
            l, y = basis1[tu][coord]
            row = at1[su].get((l, y + (aid,)))
            if row is None:
                continue  # y.a is killed by a relation
            red = ech[su].get(row)
            if red is None:
                mat[quot_pos[su][row]][col] = 1
                continue
            for c, x in red.items():
                if c != row:
                    mat[quot_pos[su][c]][col] = _ratio(-x, red[row])
        # dualize: arrow a of A acts on D(coker) as the transpose
        tau_mats[aid] = [[mat[j][i] for j in range(tau_dims[su])]
                         for i in range(tau_dims[tu])]
    return make_rep(A, tau_dims, tau_mats)


def _right_basis(A, right, copies):
    """Basis of the direct sum of the right projectives e_vA, v in
    `copies`: per vertex u, the (copy, path) pairs of the paths in
    `right[v]` that start at u, in copy order; and per vertex the
    position of each pair."""
    basis = [[] for _ in range(A.n)]
    for l, v in enumerate(copies):
        for y in right[v]:
            basis[(A.s(y[-1]) if y else v) - 1].append((l, y))
    return basis, [{x: i for i, x in enumerate(b)} for b in basis]


def ext1_dim(A, M, N):
    """dim Ext^1(M, N) from the long exact sequence of the presentation
    (see _ext1_minus_hom)."""
    if M.dim() == 0 or N.dim() == 0:
        return 0
    pres = min_proj_presentation(A, M)
    return hom_dim(A, M, N) + _ext1_minus_hom(A, pres, N)


def _ext1_minus_hom(A, pres, N):
    """dim Ext^1(M, N) - dim Hom(M, N), given the presentation of M, from
    the exact sequence
    0 -> Hom(M, N) -> Hom(P0, N) -> Hom(Omega M, N) -> Ext^1(M, N) -> 0,
    with Hom(P_v, N) = N_v.  Omega is built as a representation here
    only."""
    hom_p0 = sum(k * d for k, d in zip(pres.n_vec, N.dims))
    if not pres.omega_tops:
        return -hom_p0  # projective module: M = P0 and Omega = 0
    return hom_dim(A, _subrep(A, pres.p0, pres.omega_bases), N) - hom_p0


def _relation_rows(A, M, N):
    """(rows, variable count) of the relation differential
    (f_a) -> (f_a M_b + N_a f_b), one row per entry of each relation
    (a, b), on the variables f_a: M_s(a) -> N_t(a), arrow by arrow
    (`strings._complex_rows`, blocks per arrow, one term per relation)."""
    pos = {aid: i for i, aid in enumerate(A.arrow_ids)}
    sizes = [(N.dims[t - 1], M.dims[s - 1]) for _, s, t in A.quiver.arrows]
    rows, _, nvars = _complex_rows(
        sizes, [(pos[a], M.mats[b], pos[b], N.mats[a], range(sizes[pos[b]][1]))
                for a, b in A.relations if sizes[pos[a]][0]], 1)
    return rows, nvars


def _cocycle_dim(A, M, N):
    """dim Z^1(M, N), the kernel of the relation differential
    (`_relation_rows`): Ext^1 is Z^1 / B^1 (`ext1_complex_dim`), and
    Z^1(M, M) is the tangent space of the scheme at M (`tangent_dim`)."""
    rows, nvars = _relation_rows(A, M, N)
    return nvars - sparse_rank(rows)


def ext1_complex_dim(A, M, N):
    """dim Ext^1(M, N) from the start of the standard complex of a
    quadratic monomial algebra (from its minimal bimodule resolution):
        + Hom(M_v, N_v)  ->  + Hom(M_s(a), N_t(a))  ->  + Hom(M_s(b), N_t(a))
    over the vertices, the arrows and the relations (a, b).  The kernel
    of the first map is Hom(M, N), so B^1 has dimension
    sum dim M_v dim N_v - dim Hom(M, N); the kernel of the second is
    Z^1 (`_cocycle_dim`); and Ext^1 = Z^1 / B^1.  No presentation is
    built; `ext1_dim` is the oracle."""
    b1 = sum(x * y for x, y in zip(M.dims, N.dims)) - hom_dim(A, M, N)
    return _cocycle_dim(A, M, N) - b1


def e_invariant(A, decM, decN):
    """dim Hom(N, tau M) + sum v_i(M) dim N_i; cross-checked against the
    dual expression dim Hom(M, N) + sum g_i(M) dim N_i.  Both read one
    minimal presentation of M."""
    M, vM = decM.module, decM.decoration
    N, vN = decN.module, decN.decoration
    if M.dim() == 0:
        tau, g = zero_rep(A), vM
    else:
        pres = min_proj_presentation(A, M)
        tau = _tau_of_presentation(A, pres)
        g = _g_of_presentation(pres, vM)
    val = hom_dim(A, N, tau) + sum(vM[i] * N.dims[i] for i in range(A.n))
    dual = hom_dim(A, M, N) + sum(g[i] * N.dims[i] for i in range(A.n))
    if val != dual:
        raise FormulaMismatch(f"E-invariant formulas disagree: {val} != {dual}")
    return val


def is_tau_rigid(A, M):
    return hom_dim(A, M, tau_dtr(A, M)) == 0


# ---------------------------------------------------------------------------
# the combinatorial AR translate


def _cohook(A, first, vertex=None, sign=None):
    """The cohook put in front of a word: its letters away from the
    word, the direct letter b that may come first, then the inverse
    letters f_1^-, f_2^-, ... as far as they go; None when no direct
    letter may come first.  The word starts with the letter `first` or,
    when `first` is None, is the trivial word at `vertex` with `sign`,
    which faces the first arrow out of the vertex (+1) or a second one
    (-1).  The far end of a word is the start of its inverse, so callers
    pass the inverse of the last letter, or the flipped sign, for it.
    Each letter after the first is the inverse predecessor of the one
    before, read off the letter table."""
    before = _letter_table(A).before
    if first is None:
        b = next(((a, False) for a in
                  A.quiver.arrows_from(vertex)[(1 - sign) // 2:]), None)
    else:
        b = before[first][0]
    if b is None:
        return None
    run = [b]
    while (f := before[run[-1]][1]) is not None:
        run.append(f)
    return run


def _hook(inverse_flags):
    """Letters deleted with the hook at the start of a word whose letters
    have the given inverse flags: its maximal direct run and the inverse
    letter after it; None when no inverse letter follows."""
    for k, inv in enumerate(inverse_flags):
        if inv:
            return k + 1
    return None


def tau_string(A, C):
    """Combinatorial AR translate of a string; None for projectives.

    Per end: if the word can still ascend there, add a cohook
    (arrow + maximal counter-run); otherwise delete a hook (maximal
    run + one further letter), acting on the extended word.  Ends whose
    deletion finds nothing left, or overlapping deletions, signal a
    projective module.  Each end is handled as the start of the word or
    of its inverse (`_cohook`, `_hook`).
    """
    C = string_word(A, C) if isinstance(C, StringWord) else \
        canonical_string(A, C)
    if C.is_trivial:
        front = _cohook(A, None, C.vertex, C.sign)
        back = _cohook(A, None, C.vertex, -C.sign)
    else:
        front = _cohook(A, C.letters[0])
        back = _cohook(A, letter_inv(C.letters[-1]))
    new = list(C.letters)
    if front is not None:
        new[:0] = reversed(front)
    if back is not None:
        new += [letter_inv(c) for c in back]
    lo, hi = 0, len(new)  # kept range after deletions
    if front is None:
        lo = _hook(c[1] for c in new)
        if lo is None:
            return None  # no inverse letter to delete: projective
    if back is None:
        cut = _hook(not c[1] for c in reversed(new))
        if cut is None:
            return None
        hi -= cut
    if lo > hi:
        return None  # deletions overlap: projective
    if lo < hi:
        return canonical_string(A, StringWord(tuple(new[lo:hi])))
    # trivial result: the vertex between the deleted parts (its sign is
    # immaterial, canonical_string sets it to 1)
    v = letter_s(A, new[lo - 1]) if lo else letter_t(A, new[0])
    return canonical_string(A, StringWord((), v))


# ---------------------------------------------------------------------------
# standard homomorphisms


def _factors(A, X, kind, max_len=None):
    """Factorizations (D, E, F) of a word; kind 'sub' for S(X) and
    'quot' for F(X).  E is a letter tuple or ('triv', vertex), and the
    letter before E (if any) is inverse for 'sub' and direct for 'quot';
    inverted, the letter after E is the letter before E^- in the inverse
    word, so its own flag is the other one.  A string yields (i, j, E)
    with E its letters i..j-1; a band is the same rule read around its
    cycle and yields (offset, length, E) for every length <= max_len."""
    if not X.letters:
        yield (0, 0, ("triv", X.vertex))
        return
    band = isinstance(X, BandWord)
    before = kind == "sub"
    ls = X.letters
    m = len(ls)
    # a band's letters around its cycle, as often as max_len needs
    ring = ls * (2 + max_len // m) if band else ls
    for i in range(m if band else m + 1):
        if (i or band) and ls[i - 1][1] != before:
            continue
        for j in range(i, i + max_len + 1 if band else m + 1):
            if (j < m or band) and ring[j][1] == before:
                continue
            E = ring[i:j] if j > i else \
                ("triv", letter_t(A, ls[i]) if i < m else letter_s(A, ls[-1]))
            yield (i, j - i if band else j, E)


def _e_inverse(E):
    if E[0] == "triv":
        return E
    return tuple(letter_inv(c) for c in reversed(E))


def standard_homs(A, X, Y):
    """Complete basis of standard homomorphisms M(X) -> M(Y).

    X and Y are StringWords or BandWords, each checked by `string_word`
    or `band_word` (`InvalidString`, `InvalidBand`); band modules are
    taken with parameter 1 and quasi-length 1, so equal canonical bands
    denote the same module (whose identity map joins the list).
    """
    for W in (X, Y):
        (band_word if isinstance(W, BandWord) else string_word)(A, W)
    out = []
    x_band = isinstance(X, BandWord)
    y_band = isinstance(Y, BandWord)
    quots = list(_factors(A, X, "quot", (len(X) if y_band else 0)
                          + len(Y) + 2))
    subs = list(_factors(A, Y, "sub", (len(Y) if x_band else 0)
                         + len(X) + 2))
    # a quotient factor E1 matches sub-factor k when E1 equals it
    # (oriented) or its inverse (not oriented); a trivial factor is its
    # own inverse and matches oriented.  Indexing each sub-factor under
    # both keys in increasing k gives each E1 its matches in one lookup.
    matches = {}  # factor -> [(k, oriented)] in increasing k
    for k, (_, _, E2) in enumerate(subs):
        matches.setdefault(E2, []).append((k, True))
        inv = _e_inverse(E2)
        if inv != E2:
            matches.setdefault(inv, []).append((k, False))
    for qa, qb, E1 in quots:
        for k, oriented in matches.get(E1, ()):
            sa, sb, _ = subs[k]
            two_sided = _two_sided(A, X, Y, (qa, qb), (sa, sb), oriented,
                                   x_band, y_band)
            out.append(StandardHom(X, Y, (qa, qb), (sa, sb),
                                   oriented, two_sided))
    if x_band and y_band and canonical_band(A, X) == canonical_band(A, Y):
        out.append(StandardHom(X, Y, None, None, True, False,
                               is_identity=True))
    return out


def _two_sided(A, X, Y, q, s, oriented, x_band, y_band):
    if x_band or y_band:
        return True
    lD1, lF1 = q[0], len(X) - q[1]
    lD2, lF2 = s[0], len(Y) - s[1]
    if not oriented:
        lD2, lF2 = lF2, lD2
    return (lD1 >= 1 or lD2 >= 1) and (lF1 >= 1 or lF2 >= 1)
