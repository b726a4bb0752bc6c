"""Hom/Ext dimensions, AR translation, presentations, g-vectors.

Every combinatorial operation here is paired elsewhere with an
independent linear-algebra oracle: hom_dim_oracle solves intertwiner
systems, tau_dtr computes the translate through a minimal projective
presentation, transpose and duality, and ext1_dim works from the
presentation.  The combinatorial routes are standard_homs (complete
basis of Hom between string/band modules) and tau_string (hook/cohook
surgery on the word).
"""

from dataclasses import dataclass
from fractions import Fraction

from .exactlinalg import nullspace, rref, sparse_rank
from .strings import (BandWord, StringWord, _subrep, _sum_offsets,
                      canonical_band, canonical_string, direct_sum,
                      hom_basis, hom_dim, letter_inv, letter_s, letter_t,
                      make_rep, pair_ok, string_word, zero_rep)

hom_dim_oracle = hom_dim


class FormulaMismatch(RuntimeError):
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


def permitted_paths_from(A, i):
    """Paths p = (a_1, ..., a_k) with s(p) = i avoiding the relations,
    including the lazy path ()."""
    out = [()]
    stack = [()]
    while stack:
        p = stack.pop()
        head = p[0] if p else None
        v = A.t(head) if head else i
        for b in A.quiver.arrows_from(v):
            if head is not None and (b, head) in A.relations:
                continue
            q = (b,) + p
            out.append(q)
            stack.append(q)
    return sorted(out, key=lambda p: (len(p), p))


def path_target(A, p, start):
    return A.t(p[0]) if p else start


def projective_rep(A, i):
    """The indecomposable projective at vertex i with its path basis:
    (rep, paths, index).  Built once per vertex and kept on the algebra
    object, so every caller shares it; none may change it."""
    memo = A.__dict__.get("_projectives")
    if memo is None:
        memo = {}
        object.__setattr__(A, "_projectives", memo)
    if i not in memo:
        memo[i] = _projective_rep(A, i)
    return memo[i]


def _projective_rep(A, i):
    paths = tuple(permitted_paths_from(A, i))
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
    for p in paths:
        v = path_target(A, p, i)
        for b in A.quiver.arrows_from(v):
            if p and (b, p[0]) in A.relations:
                continue
            q = (b,) + p
            mats[b][index[q][1]][index[p][1]] = 1
    rep = make_rep(A, dims, mats)
    return rep, paths, index


def _apply_path(A, M, p, vec):
    """M_p(vec) for a path p = (a_1, ..., a_k), a_k applied first."""
    for aid in reversed(p):
        m = M.mats[aid]
        vec = [sum(row[j] * vec[j] for j in range(len(vec))) for row in m]
    return vec


def _top_vectors(A, M):
    """Per vertex: coordinates completing rad(M)_v to a basis of M_v."""
    tops = []
    for v in range(A.n):
        d = M.dims[v]
        rad_rows = []
        for aid in A.quiver.arrows_into(v + 1):
            for col in zip(*M.mats[aid]) if M.dims[A.s(aid) - 1] else []:
                rad_rows.append(list(col))
        red, pivots = rref(rad_rows, d) if rad_rows else ([], [])
        free = [c for c in range(d) if c not in pivots]
        tops.append(free)
    return tops


@dataclass
class Presentation:
    """Minimal projective presentation P1 -> P0 -> M -> 0.

    P0 is the direct sum of one indecomposable projective P_v per top
    basis vector of M (its copies, in vertex order); the cover sends the
    generator of each copy to that top vector.  Omega(M) is the kernel
    of the cover, and P1 covers Omega(M) in the same way.
    """
    n_vec: tuple  # top multiplicities of M
    m_vec: tuple  # top multiplicities of Omega(M)
    p0: object  # Representation of P0
    omega: object  # Representation of Omega(M), in the omega_bases
    omega_bases: list  # per-vertex column bases of Omega inside P0
    p0_copies: list  # per copy: (vertex v, top coordinate of M at v)
    p0_paths: list  # per copy: projective_rep(A, v), (rep, paths, index)
    p0_offsets: list  # per copy: where its basis starts at each vertex of P0
    omega_tops: list  # per P1-copy: (vertex j_l, vector in P0 coords at j_l)


def min_proj_presentation(A, M):
    n = A.n
    tops = _top_vectors(A, M)
    n_vec = tuple(len(tops[v]) for v in range(n))
    copies = [(v + 1, c) for v in range(n) for c in tops[v]]
    projs = {v: projective_rep(A, v) for v in {v for v, _ in copies}}
    p0_paths = [projs[v] for v, _ in copies]
    reps = [rep for rep, _, _ in p0_paths]
    p0 = direct_sum(A, reps)
    offsets, dims = _sum_offsets(A, reps)
    cover = [[[0] * dims[u] for _ in range(M.dims[u])] for u in range(n)]
    for ci, (v, coord) in enumerate(copies):
        _, paths, index = p0_paths[ci]
        gen = [Fraction(0)] * M.dims[v - 1]
        gen[coord] = Fraction(1)
        for p in paths:
            u = path_target(A, p, v)
            img = _apply_path(A, M, p, gen)
            col = offsets[ci][u - 1] + index[p][1]
            for i in range(M.dims[u - 1]):
                cover[u - 1][i][col] = img[i]
    omega_bases = [nullspace(cover[u], dims[u]) if dims[u] else []
                   for u in range(n)]
    omega = _subrep(A, p0, omega_bases)
    omega_tops, m_list = _omega_tops(A, omega, omega_bases)
    return Presentation(
        n_vec=n_vec, m_vec=tuple(m_list), p0=p0, omega=omega,
        omega_bases=omega_bases, p0_copies=copies, p0_paths=p0_paths,
        p0_offsets=offsets, omega_tops=omega_tops)


def _omega_tops(A, omega, omega_bases):
    """Generators of the syzygy as vectors inside P0."""
    tops = _top_vectors(A, omega)
    omega_tops = []
    m_list = [0] * A.n
    for v in range(A.n):
        for c in tops[v]:
            omega_tops.append((v + 1, omega_bases[v][c]))
            m_list[v] += 1
    return omega_tops, m_list


def g_vector(A, dec):
    """g_i = m_i - n_i + dim V_i from the minimal presentation."""
    M = dec.module if isinstance(dec, DecoratedModule) else dec
    v = dec.decoration if isinstance(dec, DecoratedModule) else (0,) * A.n
    if M.dim() == 0:
        return tuple(v)
    pres = min_proj_presentation(A, M)
    return tuple(pres.m_vec[i] - pres.n_vec[i] + v[i] for i in range(A.n))


# ---------------------------------------------------------------------------
# transpose and AR translation


def _paths_ending_at(A, i):
    """Paths p with t(p) = i avoiding relations, including ()."""
    out = [()]
    stack = [()]
    while stack:
        p = stack.pop()
        tail = p[-1] if p else None
        v = A.s(tail) if tail else i
        for b in A.quiver.arrows_into(v):
            if tail is not None and (tail, b) in A.relations:
                continue
            q = p + (b,)
            out.append(q)
            stack.append(q)
    return sorted(out, key=lambda p: (len(p), p))


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
    # map G: +e_{i_k}A -> +e_{j_l}A, block (l,k): left multiplication by x_{lk}
    G = [[[Fraction(0)] * dims0[u] for _ in range(dims1[u])] for u in range(n)]
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
                for p, c in comp.items():
                    row = at1[u].get((l, p + y))
                    if row is not None:  # else killed by a relation
                        G[u][row][at0[u][(k, y)]] += c
    # cokernel per vertex with quotient bases
    quot_basis = []  # per vertex: list of standard coordinates kept
    reducers = []  # per vertex: (rref rows of image, pivots)
    for u in range(n):
        cols = [[G[u][i][j] for i in range(dims1[u])] for j in range(dims0[u])]
        red, pivots = rref(cols, dims1[u]) if cols else ([], [])
        keep = [c for c in range(dims1[u]) if c not in pivots]
        quot_basis.append(keep)
        reducers.append((red, pivots))

    def reduce_vec(u, w):
        red, pivots = reducers[u]
        w = list(w)
        for row, pc in zip(red, pivots):
            if w[pc]:
                f = w[pc]
                w = [x - f * y for x, y in zip(w, row)]
        return [w[c] for c in quot_basis[u]]

    # A^op action on the cokernel: a_op sends t(a)-part to s(a)-part, y -> y.a
    tau_dims = [len(quot_basis[u]) for u in range(n)]
    tau_mats = {}
    for aid in A.arrow_ids:
        su, tu = A.s(aid) - 1, A.t(aid) - 1
        # matrix of a_op on the quotient: from vertex tu to vertex su
        mat = [[Fraction(0)] * tau_dims[tu] for _ in range(tau_dims[su])]
        for col, coord in enumerate(quot_basis[tu]):
            # coord is the basis path y of copy l at vertex t(a)
            l, y = basis1[tu][coord]
            row = at1[su].get((l, y + (aid,)))
            if row is None:
                continue  # y.a is killed by a relation
            w = [Fraction(0)] * dims1[su]
            w[row] = Fraction(1)
            img = reduce_vec(su, w)
            for i in range(tau_dims[su]):
                mat[i][col] = img[i]
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
    """dim Ext^1(M, N) from the presentation: Hom(Omega M, N) modulo
    restrictions of Hom(P0, N)."""
    if M.dim() == 0 or N.dim() == 0:
        return 0
    return _ext1_of_presentation(A, min_proj_presentation(A, M), N)


def _ext1_of_presentation(A, pres, N):
    omega = pres.omega
    if omega.dim() == 0:
        return 0
    homs_o = hom_basis(A, omega, N)
    if not homs_o:
        return 0
    homs_p = hom_basis(A, pres.p0, N)
    # restriction of F: P0 -> N to Omega, in the omega bases
    rows = []
    ncols = sum(N.dims[v] * omega.dims[v] for v in range(A.n))
    for F in homs_p:
        vec = []
        for v in range(A.n):
            base = pres.omega_bases[v]
            for bvec in base:
                img = [sum(F[v][i][j] * bvec[j] for j in range(pres.p0.dims[v]))
                       for i in range(N.dims[v])]
                vec.extend(img)
        rows.append({i: x for i, x in enumerate(vec) if x})
    restr_rank = sparse_rank(rows)
    return len(homs_o) - restr_rank


def e_invariant(A, decM, decN):
    """dim Hom(N, tau M) + sum v_i(M) dim N_i; cross-checked against the
    dual expression dim Hom(M, N) + sum g_i(M) dim N_i."""
    M, vM = decM.module, decM.decoration
    N, vN = decN.module, decN.decoration
    tau = tau_dtr(A, M)
    val = hom_dim(A, N, tau) + sum(vM[i] * N.dims[i] for i in range(A.n))
    g = g_vector(A, decM)
    dual = hom_dim(A, M, N) + sum(g[i] * N.dims[i] for i in range(A.n))
    if val != dual:
        raise FormulaMismatch(f"E-invariant formulas disagree: {val} != {dual}")
    return val


def is_tau_rigid(A, M):
    return hom_dim(A, M, tau_dtr(A, M)) == 0


# ---------------------------------------------------------------------------
# the combinatorial AR translate


def _prependable(A, C):
    """The direct letter that may be prepended to C, or None."""
    if C.is_trivial:
        for b in A.quiver.arrows_from(C.vertex):
            if A.sigma[b] == -C.sign:
                return b
        return None
    c1 = C.letters[0]
    for b in A.quiver.arrows_from(letter_t(A, c1)):
        if pair_ok(A, (b, False), c1):
            return b
    return None


def _appendable(A, C):
    """The arrow b with C.(b^-) a string, or None."""
    if C.is_trivial:
        for b in A.quiver.arrows_from(C.vertex):
            if A.sigma[b] == C.sign:
                return b
        return None
    cm = C.letters[-1]
    for b in A.arrow_ids:
        if pair_ok(A, cm, (b, True)):
            return b
    return None


def _max_inverse_run_before(A, head):
    """Letters (f_k^-, ..., f_1^-) maximally prepended before `head`."""
    run = []
    cur = head
    while True:
        nxt = None
        for f in A.arrow_ids:
            if pair_ok(A, (f, True), cur):
                nxt = (f, True)
                break
        if nxt is None:
            return tuple(run)
        run.insert(0, nxt)
        cur = nxt


def _max_direct_run_after(A, tail):
    run = []
    cur = tail
    while True:
        nxt = None
        for f in A.arrow_ids:
            if pair_ok(A, cur, (f, False)):
                nxt = (f, False)
                break
        if nxt is None:
            return tuple(run)
        run.append(nxt)
        cur = nxt


def tau_string(A, C):
    """Combinatorial AR translate of a string; None for projectives.

    Per end: if the word can still ascend there, add a cohook
    (arrow + maximal counter-run); otherwise delete a hook (maximal
    run + one further letter), acting on the extended word.  Ends whose
    deletion finds nothing left, or overlapping deletions, signal a
    projective module.
    """
    C = canonical_string(A, C) if not isinstance(C, StringWord) else C
    if not C.is_trivial:
        string_word(A, C)
    b_left = _prependable(A, C)
    b_right = _appendable(A, C)
    word = list(C.letters)
    left_add = right_add = None
    if b_left is not None:
        head = (b_left, False)
        left_add = list(_max_inverse_run_before(A, head)) + [head]
    if b_right is not None:
        tail = (b_right, True)
        right_add = [tail] + list(_max_direct_run_after(A, tail))
    new = (left_add or []) + word + (right_add or [])
    lo, hi = 0, len(new)  # kept range after deletions
    if b_left is None:
        p = 0
        while p < len(new) and not new[p][1]:
            p += 1
        if p == len(new):
            return None  # no inverse letter to delete: projective
        lo = p + 1
    if b_right is None:
        q = 0
        while q < len(new) and new[len(new) - 1 - q][1]:
            q += 1
        if q == len(new):
            return None
        hi = len(new) - q - 1
    if lo > hi:
        return None  # deletions overlap: projective
    kept = new[lo:hi]
    if kept:
        return canonical_string(A, StringWord(tuple(kept)))
    # trivial result: locate its vertex (and slot sign) in the big word
    if lo > 0:
        v = letter_s(A, new[lo - 1])
        sgn = -_sigma_letter(A, new[lo - 1])
    else:
        v = letter_t(A, new[hi])
        sgn = _epsilon_letter(A, new[hi])
    return canonical_string(A, StringWord((), v, sgn))


def _sigma_letter(A, c):
    return A.epsilon[c[0]] if c[1] else A.sigma[c[0]]


def _epsilon_letter(A, c):
    return A.sigma[c[0]] if c[1] else A.epsilon[c[0]]


# ---------------------------------------------------------------------------
# standard homomorphisms


def _string_splits(A, C, kind):
    """Factorizations (D, E, F) of a string; kind 'sub' for S(C) and
    'quot' for F(C).  Yields (i, j, E) with E a letter tuple or
    ('triv', vertex)."""
    if C.is_trivial:
        yield (0, 0, ("triv", C.vertex))
        return
    ls = C.letters
    m = len(ls)

    def vertex_at(i):
        return letter_t(A, ls[i]) if i < m else letter_s(A, ls[m - 1])

    for i in range(m + 1):
        if kind == "sub":
            if not (i == 0 or ls[i - 1][1]):
                continue
        else:
            if not (i == 0 or not ls[i - 1][1]):
                continue
        for j in range(i, m + 1):
            if kind == "sub":
                if not (j == m or not ls[j][1]):
                    continue
            else:
                if not (j == m or ls[j][1]):
                    continue
            E = ls[i:j] if j > i else ("triv", vertex_at(i))
            yield (i, j, E)


def _band_occurrences(A, B, kind, max_len):
    """Wrapped factor occurrences (offset, length, E) of a band.

    kind 'quot': previous letter direct and next letter inverse (images
    of the band module); kind 'sub': the other way around."""
    ls = B.letters
    m = len(ls)
    for o in range(m):
        prev = ls[(o - 1) % m]
        if kind == "quot" and prev[1]:
            continue
        if kind == "sub" and not prev[1]:
            continue
        for L in range(0, max_len + 1):
            nxt = ls[(o + L) % m]
            if kind == "quot" and not nxt[1]:
                continue
            if kind == "sub" and nxt[1]:
                continue
            E = tuple(ls[(o + t) % m] for t in range(L)) if L else \
                ("triv", letter_t(A, ls[o]))
            yield (o, L, E)


def _e_inverse(E):
    if E[0] == "triv":
        return E
    return tuple(letter_inv(c) for c in reversed(E))


def _match(E1, E2):
    """None, or (oriented: bool) when E1 equals E2 or its inverse."""
    if E1[0] == "triv" or E2[0] == "triv":
        if E1[0] == "triv" and E2[0] == "triv" and E1[1] == E2[1]:
            return True  # orientation immaterial for trivial pieces
        return None
    if E1 == E2:
        return True
    if E1 == _e_inverse(E2):
        return False
    return None


def standard_homs(A, X, Y):
    """Complete basis of standard homomorphisms M(X) -> M(Y).

    X and Y are StringWords or BandWords; band modules are taken with
    parameter 1 and quasi-length 1, so equal canonical bands denote the
    same module (whose identity map joins the list).
    """
    out = []
    x_band = isinstance(X, BandWord)
    y_band = isinstance(Y, BandWord)
    if x_band:
        max_q = (len(Y) if not y_band else len(X) + len(Y)) + 2
        quots = list(_band_occurrences(A, X, "quot", max_q))
    else:
        quots = [(i, j, E) for i, j, E in _string_splits(A, X, "quot")]
    if y_band:
        max_s = (len(X) if not x_band else len(X) + len(Y)) + 2
        subs = list(_band_occurrences(A, Y, "sub", max_s))
    else:
        subs = [(i, j, E) for i, j, E in _string_splits(A, Y, "sub")]
    for qa, qb, E1 in quots:
        for sa, sb, E2 in subs:
            oriented = _match(E1, E2)
            if oriented is None:
                continue
            two_sided = _two_sided(A, X, Y, (qa, qb), (sa, sb), oriented,
                                   x_band, y_band)
            out.append(StandardHom(X, Y, (qa, qb), (sa, sb),
                                   bool(oriented), two_sided))
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
