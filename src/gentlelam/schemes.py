"""Irreducible components of module schemes over gentle algebras.

Components of mod(A, d) are indexed by maximal rank functions.  Each
rank constraint couples the two arrows of one relation, so it never
leaves a rho-block, and the maximal rank functions are the product over
the blocks of each block's maximal assignments, found by a walk along
the block's relation chain (`maximal_rank_functions`, checked in the
tests against the full enumeration `rank_functions` filtered by
single-arrow increments).  All dimension counts run block by block
through the C_m / C~_m models, whose arrows a_i: i -> t_i are read in
one place (`_model_arrows`): the generic module of a block component is
(+) P_i^{p_i} (+) S_i^{q_i} with p_i the rank of a_i
(`_model_multiplicities`), and its dim End is one sum over the model's
Hom table (`_block_end_dim`).  The words of the generic direct sum are
read off (d, r) alone by gluing positions at each vertex (`glued_words`)
and certified by that dimension count (`generic_multiset`); generic
points are produced by conjugating the sum with random invertible
matrices.

Everything a component's block contributes depends on the block's local
dims and local ranks alone, so it is solved once per algebra and kept
on it (`_algebra_memo`): the maximal local rank assignments per (block,
local dims) (`_block_maximals`), and the orbit dimension and critical
summands per (block, local dims, local ranks) (`_block_record`).  The
rank functions, dim Z and the block criterion of a component are a
product, a sum and a union over these records.  A box sweep over
d in {0, ..., N}^n keeps at most (N + 1)^(vertices of the block) lists
per block and one record per local component, so these memos are
bounded by the local boxes, not by the box of d: on the pants algebra
{0, 1, 2}^6 leaves 81 lists for its 3,645 (block, d) pairs, and
{0, ..., 3}^6 176 for 20,480.
"""

import itertools
import operator
import random
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FalseVerdict, InputError, InternalError
from .homological import (_cocycle_dim, _ext1_minus_hom,
                          _tau_of_presentation, hom_dim_oracle,
                          min_proj_presentation)
from .quiver import (InvalidDimensionVector, _dimension_vector, _kept,
                     is_jacobian, rho_blocks, transport_dimvec)
from .strings import (BandWord, InvalidString, StringWord, _algebra_memo,
                      _g_of_shape, _letter_table, _word_rep, _word_table,
                      band_parameters, canonical_band, canonical_string,
                      conjugate, decompose, hom_dim, letter_inv,
                      random_glpoint, rank_function_of, word_sum)


class NotJacobian(InputError):
    pass


class SamplingFailure(InternalError):
    pass


class UniquenessViolation(FalseVerdict):
    pass


class ConsistencyFailure(InternalError):
    pass


def maximal_rank_functions(A, d):
    """The maximal rank functions for (A, d), ordered as `rank_functions`.

    Every rank constraint couples two arrows of one rho-block, so a
    single-arrow increment stays inside a block and r is maximal iff its
    restriction to every block is: the maximal ones are the product over
    `rho_blocks(A)` of each block's maximal assignments.  Those depend on
    the block's local dims only, so each is walked once (`_block_maximal`)
    and kept on the algebra per (block, local dims) (`_block_maximals`):
    a sweep over a box of d solves each block once per point of its own
    local box.  The tests filter `rank_functions` by the single-increment
    test as its oracle."""
    d = _dimension_vector(A, d)
    arrows = A.arrow_ids
    blocks = [b for b in rho_blocks(A) if b.arrows]
    where = {a: i for i, a in enumerate(a for b in blocks for a in b.arrows)}
    rows = []
    for parts in itertools.product(*[
            _block_maximals(A, b, transport_dimvec(b, d)) for b in blocks]):
        flat = sum(parts, ())
        rows.append(tuple(flat[where[a]] for a in arrows))
    return [dict(zip(arrows, row)) for row in sorted(rows)]


def rank_functions(A, d):
    """All rank functions for (A, d), as dicts in arrow order, sorted
    lexicographically along `A.arrow_ids`: every assignment
    0 <= r_a <= min(d_s(a), d_t(a)) with r_a + r_b <= d_s(a) for each
    relation (a, b).  Only the tests call it, as an oracle."""
    d = _dimension_vector(A, d)
    arrows = A.arrow_ids
    caps = {a: min(d[A.s(a) - 1], d[A.t(a) - 1]) for a in arrows}
    rel_of = {}
    for a, b in A.relations:
        rel_of.setdefault(a, []).append(("s", b))
        rel_of.setdefault(b, []).append(("p", a))
    out = []

    def ok_partial(r, a):
        for kind, other in rel_of.get(a, []):
            if other in r:
                # relation pair (u, v) with bound d_{s(u)} = d_{t(v)}
                u = a if kind == "s" else other
                if r[a] + r[other] > d[A.s(u) - 1]:
                    return False
        return True

    def rec(i, r):
        if i == len(arrows):
            out.append(dict(r))
            return
        a = arrows[i]
        for v in range(caps[a] + 1):
            r[a] = v
            if ok_partial(r, a):
                rec(i + 1, r)
        del r[a]

    rec(0, {})
    return out


def _block_maximals(A, block, dd):
    """`_block_maximal(block, dd)` as a tuple, walked once per (block,
    local dims) and kept on the algebra."""
    memo = _algebra_memo(A, "_block_maximals")
    key = (block.block_id, dd)
    if key not in memo:
        memo[key] = tuple(_block_maximal(block, dd))
    return memo[key]


def _block_maximal(block, dd):
    """The maximal rank assignments on the arrows a_1, ..., a_k of one
    block with local dims dd (`transport_dimvec`), as tuples in chain
    order.

    The constraints are r_i <= min(d_i, d_{t_i}) and, at the vertex t_i
    where a_i meets a_{t_i}, r_i + r_{t_i} <= d_{t_i} (`_model_arrows`);
    for C~ the chain closes, a_k with a_1 (a loop with a^2 = 0 is its
    own neighbour).  A depth-first walk fixes r_1, r_2, ... in turn and
    checks each constraint once both its arrows are fixed, and each
    arrow's maximality (r_i + 1 breaks some constraint) once all its
    neighbours are.  On an open chain a branch that cannot be completed
    dies one arrow later (on a cycle, r_1 and the closing constraint wait
    for the last arrow), so the walk's work follows its output, not the
    box prod(cap + 1) of all assignments.
    """
    k = len(block.arrows)
    arrows = _model_arrows(block)
    caps = [min(dd[i - 1], dd[t - 1]) for i, t in arrows]
    # a_i meets the arrow a_t that starts where it ends, if there is one
    cons = [(i - 1, t - 1, dd[t - 1]) for i, t in arrows if t <= k]
    touching = [[c for c in cons if x in c[:2]] for x in range(k)]
    # a constraint is checked at its later arrow, an arrow's maximality
    # at its last neighbour
    due = [[c for c in cons if max(c[:2]) == p] for p in range(k)]
    closes = [[] for _ in range(k)]
    for x in range(k):
        closes[max([x] + [max(c[:2]) for c in touching[x]])].append(x)
    r = [0] * k
    out = []

    def saturated(x):
        return r[x] == caps[x] or any(
            r[i] + r[j] + (i == x) + (j == x) > bound
            for i, j, bound in touching[x])

    def rec(p):
        if p == k:
            out.append(tuple(r))
            return
        for v in range(caps[p] + 1):
            r[p] = v
            if any(r[i] + r[j] > bound for i, j, bound in due[p]):
                break  # the sums only grow with v
            if all(saturated(x) for x in closes[p]):
                rec(p + 1)

    rec(0)
    return out


@dataclass(frozen=True)
class Component:
    d: tuple
    r: tuple  # sorted (arrow, rank) pairs; use .rank() for the dict

    def rank(self):
        return dict(self.r)


def components(A, d):
    d = tuple(d)
    out = [Component(d, tuple(sorted(r.items())))
           for r in maximal_rank_functions(A, d)]
    out.sort(key=lambda z: z.r)
    return out


def _model_arrows(block):
    """The arrows a_i: i -> t_i of the block's model as (i, t_i), in chain
    order.  t_i = i % m + 1 on both models, since i < m on C_m."""
    m = block.model_size
    return [(i, i % m + 1) for i in range(1, len(block.arrows) + 1)]


def _model_multiplicities(block, dd, rr):
    """Multiplicities (p, q) of the projectives P_i and simples S_i in
    the generic module of the block component with local dims dd and
    local ranks rr (in chain order), as lists indexed 1..m: each arrow
    a_i puts r_i copies of P_i (with top S_i and socle S_{t_i}), and the
    simples fill what is left of dd; p_i = 0 past the last arrow."""
    p = [0] * (block.model_size + 1)
    q = [0, *dd]
    for (i, t), r in zip(_model_arrows(block), rr):
        p[i] = r
        q[i] -= r
        q[t] -= r
    if min(q) < 0:
        raise ValueError("rank function invalid for this block")
    return p, q


def _block_end_dim(block, p, q):
    """dim End of the generic block module from the model Hom table:
    End S_i, and per arrow a_i End P_i, Hom(P_i, S_i), Hom(S_{t_i}, P_i)
    and Hom(P_{t_i}, P_i), each of dimension 1 (on C~_1, where t_1 = 1,
    the last is the map a, so End P_1 = k[a]/(a^2) has dimension 2)."""
    return sum(x * x for x in q) + sum(
        p[i] * (p[i] + q[i] + q[t] + p[t]) for i, t in _model_arrows(block))


class BlockRecord(NamedTuple):
    """What one component of a rho-block's module scheme contributes to
    a component of mod(A, d) that restricts to it."""
    orbit_dim: int  # sum dd_i^2 - dim End of the generic block module
    type1: tuple  # arrows with a type I critical summand, in chain order
    type2: tuple  # arrows with a type II critical summand


def _block_record(A, block, dd, rr):
    """The `BlockRecord` of the block component with local dims dd and
    local ranks rr (chain order), built from `_model_multiplicities` once
    per (block, dd, rr) and kept on the algebra (`_block_records`).

    Type I at arrow a: both S_{s(a)} and S_{t(a)} occur; type II: the
    projective cover of S_{t(a)} and the simple S_{s(a)} occur."""
    memo = _algebra_memo(A, "_block_records")
    key = (block.block_id, dd, rr)
    if key not in memo:
        p, q = _model_multiplicities(block, dd, rr)
        type1, type2 = [], []
        for (i, t), arrow in zip(_model_arrows(block), block.arrows):
            if q[i] and q[t]:
                type1.append(arrow)
            if q[i] and p[t]:
                type2.append(arrow)
        memo[key] = BlockRecord(
            sum(x * x for x in dd) - _block_end_dim(block, p, q),
            tuple(type1), tuple(type2))
    return memo[key]


def _block_records(A, Z):
    """(block, `BlockRecord`) for every rho-block of A, read off the
    local dims and local ranks of the component Z."""
    r = Z.rank()
    return [(b, _block_record(A, b, transport_dimvec(b, Z.d),
                              tuple([r[a] for a in b.arrows])))
            for b in rho_blocks(A)]


def component_dim(A, Z):
    """dim Z as the sum of the kept block orbit dimensions
    (`_block_record`, one per block, local dims and local ranks, so their
    number is bounded by the blocks' local boxes, not by the box of d)."""
    return sum(rec.orbit_dim for _, rec in _block_records(A, Z))


def dim_gl(d):
    return sum(x * x for x in d)


def critical_relation_pairs(A, d, r):
    """The relation pairs (a, b), sorted, that are critical for the rank
    function r on mod(A, d): points with rank function r are singular
    exactly when there is one."""
    out = []
    for a, b in A.relations:
        if not (r[a] < d[A.t(a) - 1] and r[b] < d[A.s(b) - 1]
                and r[a] + r[b] < d[A.s(a) - 1]):
            continue
        ok2 = all(r[a2] + r[a] < d[A.t(a) - 1]
                  for a2 in A.arrow_ids if (a2, a) in A.relations)
        ok3 = all(r[b] + r[b2] < d[A.s(b) - 1]
                  for b2 in A.arrow_ids if (b, b2) in A.relations)
        if ok2 and ok3:
            out.append((a, b))
    return sorted(out)


def is_smooth_point(A, M):
    """Rank-function smoothness criterion at the module M."""
    return not critical_relation_pairs(A, M.dims, rank_function_of(A, M))


def tangent_dim(A, M):
    """dim of the scheme tangent space at M: the kernel of the
    differential of the relation equations, which is Z^1(M, M) of the
    standard complex (`homological._cocycle_dim`)."""
    return _cocycle_dim(A, M, M)


def components_through(A, M):
    """The components Z of (A, dim M) that contain M: r_M <= r_Z."""
    rM = rank_function_of(A, M)
    return [Z for Z in components(A, M.dims)
            if all(rM[a] <= r for a, r in Z.r)]


def max_component_dim_through(A, M):
    """max dim(Z) over the components Z containing M."""
    dims = [component_dim(A, Z) for Z in components_through(A, M)]
    if not dims:
        raise InvalidString("module lies in no component; invalid input")
    return max(dims)


def is_generically_reduced(A, Z):
    """Every component of (A, d) is generically reduced unless a loop
    carries odd local dimension."""
    for aid, s, t in A.quiver.arrows:
        if s == t and Z.d[s - 1] % 2 == 1:
            return False
    return True


def block_critical_summands(A, Z):
    """Type I and type II critical summands of the generic block modules,
    as (block, type I arrows, type II arrows) for each block that has
    one, read off the kept block records (`_block_record`)."""
    return [(b, rec.type1, rec.type2) for b, rec in _block_records(A, Z)
            if rec.type1 or rec.type2]


def is_tau_reduced(A, Z):
    """Generic tau-reducedness through the block criterion."""
    if not is_jacobian(A):
        raise NotJacobian("the block criterion needs a gentle Jacobian algebra")
    return not block_critical_summands(A, Z)


def _vertex_ends(A):
    """The gluing table of `glued_words`, one (arrow, source, target,
    end at the source, end at the target) per arrow, vertices 0-based;
    an end is 0 or 1, the side of the vertex from which the arrow counts
    its positions.

    At a vertex x each incoming arrow a is paired with the outgoing arrow
    b for which ba is not a relation (the direct letter before a in the
    letter table), and each group of arrows is one end of x: a gentle
    algebra gives x at most two.  The first end counts from the first
    position, the second from the last.  Built once and kept on the
    algebra."""
    def build():
        before = _letter_table(A).before
        end = {}
        for x in range(1, A.n + 1):
            groups = []
            for a in A.quiver.arrows_into(x):
                b = before[a, False][0]
                groups.append([(a, 1)] + ([] if b is None else [(b[0], 0)]))
            paired = {e for g in groups for e in g}
            groups += [[(b, 0)] for b in A.quiver.arrows_from(x)
                       if (b, 0) not in paired]
            for k, g in enumerate(groups):
                for e in g:
                    end[e] = k
        return tuple((a, s - 1, t - 1, end[a, 0], end[a, 1])
                     for a, s, t in A.quiver.arrows)
    return _kept(A, "_vertex_ends", build)


def glued_words(A, Z):
    """The words of the generic module of the component Z, read off its
    dims and ranks alone by gluing positions at each vertex.

    Vertex x has positions 1..d_x, and its two ends (`_vertex_ends`)
    count them from opposite sides.  An arrow a of rank r_a joins
    positions 1..r_a, counted from its end, at its source and at its
    target: position k at s(a) goes to position k at t(a).  The arrows
    of one end compose (ba is no relation) and meet at the positions both
    reach, while those of a relation ba count from opposite sides and
    miss each other, since r_a + r_b <= d_x; so the coefficient quiver
    this builds has at most two edges at each position.  Each of its
    paths is a string (`canonical_string`), and a cycle that reads u^k
    gives k copies of the band u (`canonical_band`).  The words come in
    walk order; `generic_multiset` sorts and certifies them.

    Why it is generic: at x, im a in ker b is a partial flag counted from
    one end, and im a' in ker b' one counted from the other, which puts
    the two flags in opposite, that is generic, relative position."""
    d, r = Z.d, Z.rank()
    offs = list(itertools.accumulate(d, initial=0))
    at = [v + 1 for v, dv in enumerate(d) for _ in range(dv)]
    # per position: (next position, letter read on the way there)
    edges = [[] for _ in at]
    for a, s, t, es, et in _vertex_ends(A):
        for k in range(r[a]):
            x = offs[s] + (d[s] - 1 - k if es else k)
            y = offs[t] + (d[t] - 1 - k if et else k)
            edges[x].append((y, (a, True)))
            edges[y].append((x, (a, False)))
    seen = [False] * len(at)

    def walk(x, stop):
        # the letters from x on, never back along the edge just taken,
        # until a position without a way on or the position `stop`
        letters, back = [], None
        while True:
            seen[x] = True
            step = next((e for e in edges[x] if e[1] != back), None)
            if step is None:
                return letters
            x, c = step
            letters.append(c)
            if x == stop:
                return letters
            back = letter_inv(c)

    words = []
    for x in range(len(at)):  # the paths, each from one of its ends
        if not seen[x] and len(edges[x]) < 2:
            letters = walk(x, None)
            words.append(canonical_string(A, StringWord(tuple(letters))) if
                         letters else StringWord((), at[x]))
    for x in range(len(at)):  # the cycles
        if not seen[x]:
            ls = walk(x, x)
            m = len(ls)
            p = next(p for p in range(2, m + 1)
                     if m % p == 0 and ls[p:] + ls[:p] == ls)
            words += [canonical_band(A, BandWord(tuple(ls[:p])))] * (m // p)
    return words


def _certified(A, Z, words):
    """Whether the generic direct sum of `words` has an orbit family of
    the dimension of Z: dim Z = dim GL - dim End + #bands, with dim End
    summed over the Hom table of its summand pairs (`_pair_sum`)."""
    return component_dim(A, Z) == dim_gl(Z.d) - _pair_sum(
        A, words, hom_dim) + sum(isinstance(w, BandWord) for w in words)


def generic_multiset(A, Z):
    """The canonical decomposition of the component as a word multiset:
    the words of `glued_words`, sorted by (-dim, str(w)) (module
    dimension, then text), certified generic by the exact dimension count
    (`_certified`).  A multiset that fails the count is a
    `ConsistencyFailure`; there is no other route to fall back on.  It
    enumerates no words and builds no word table.  Results are memoized
    on the algebra object.  The depth-first search over every word that
    fits d (`_search_multiset`) is its oracle in the tests."""
    memo = _algebra_memo(A, "_multisets")
    key = (Z.d, Z.r)
    if key not in memo:
        words = sorted(glued_words(A, Z), key=lambda w: (
            -len(w) - (not isinstance(w, BandWord)), str(w)))
        if not _certified(A, Z, words):
            raise ConsistencyFailure(
                f"the glued words {list(map(str, words))} of {Z.r} fail the "
                f"dimension count")
        memo[key] = words
    return list(memo[key])


def _candidates(A, d):
    """The words the search of `_search_multiset` may use for the
    dimension vector d, as (word, shape) pairs in search order, by
    (-dim, str(w)).  A shape is the tuple of the dims of the word's
    module, its ranks in arrow order and its string count (1 for a
    string, 0 for a band).  The words and their shapes are read off the
    word table of d (`strings._word_table`), which holds every word whose
    module fits d.  The list depends on d only and is kept on the
    algebra."""
    memo = _algebra_memo(A, "_candidates")
    if d not in memo:
        cand = [(w, shape + (int(not isinstance(w, BandWord)),))
                for shape, words in _word_table(A, d).items() for w in words]
        cand.sort(key=lambda c: (-sum(c[1][:A.n]), str(c[0])))
        memo[d] = cand
    return memo[d]


def _search_multiset(A, Z):
    """The oracle of `generic_multiset`: a depth-first search, in the
    order of `_candidates`, for strings and bands whose dimension
    vectors, rank functions (read off the words by `word_shape`) and
    string counts add up to (d, r, sum d - sum r), the first that passes
    `_certified`.  A search state is the tuple of what remains of those,
    and a child keeps only the candidates that still fit it, field by
    field; they are every word that fits d.  Only the tests call it;
    nothing is memoized but the candidate list."""
    d, r = Z.d, Z.rank()
    total = sum(d)
    if total == 0:
        return []
    start = d + tuple(r[a] for a in A.arrow_ids) + (total - sum(r.values()),)

    def fitting(state, cands):
        return [c for c in cands if all(map(operator.le, c[1], state))]

    # depth first on an explicit stack, as a multiset may hold thousands
    # of words: a frame is [state, the candidates that fit it, the index
    # of the next one to try], so the word it took last is at index - 1
    stack = [[start, fitting(start, _candidates(A, d)), 0]]
    while stack:
        frame = stack[-1]
        state, cands, k = frame
        if k == len(cands):
            stack.pop()
            continue
        frame[2] = k + 1
        rest = tuple(map(operator.sub, state, cands[k][1]))
        if any(rest[:A.n]):
            stack.append([rest, fitting(rest, cands[k:]), 0])
        elif not any(rest):
            # every basis vector placed, and the ranks and strings too
            sol = [cs[i - 1][0] for _, cs, i in stack]
            if _certified(A, Z, sol):
                return sol
    raise SamplingFailure(f"no generic decomposition for {Z.r}")


def _word_pair(A, dim, v, w, same=False):
    """dim(A, M, N) for the modules M and N of two summands with words v
    and w of a generic direct sum (one summand when `same`), for dim =
    `hom_dim` or `_cocycle_dim`, kept on the algebra (`_word_pairs`, one
    dict per dim) by (v, w, same).  The value depends on the words alone
    as long as distinct band summands have distinct parameters, so M is
    M(v, 2) and N is M(w, 2), or M(w, 3) for two summands of one band."""
    memo = _algebra_memo(A, "_word_pairs").setdefault(dim, {})
    key = (v, w, same)
    if key not in memo:
        memo[key] = dim(A, _word_rep(A, v, 2),
                        _word_rep(A, w, 3 if v == w and not same else 2))
    return memo[key]


def _pair_sum(A, words, dim):
    """The sum of `_word_pair` over the ordered pairs (i, j) of the
    summands of the generic direct sum of `words`: dim End for
    dim = `hom_dim`, dim Z^1(M, M) for `_cocycle_dim`.  A repeated word
    repeats its values, so the sum runs over the distinct words, weighted
    by their multiplicities; of the m^2 pairs of a band repeated m times,
    the m pairs of one summand with itself take the key `same`."""
    mult = Counter(words)
    total = 0
    for v, mv in mult.items():
        for w, mw in mult.items():
            n = mv * mw
            if v == w and isinstance(v, BandWord):
                total += mv * _word_pair(A, dim, v, v, True)
                n -= mv
            if n:
                total += n * _word_pair(A, dim, v, w)
    return total


def generic_point(A, Z, seed=0):
    """A generic module of the component: the certified generic direct
    sum (distinct band parameters) under a random unimodular integer
    conjugation, so its entries are integers.  The same (Z, seed) gives
    an equal point on equal algebras."""
    words = generic_multiset(A, Z)
    rng = random.Random(seed)
    M = word_sum(A, words, band_parameters(rng))
    # g_v is drawn only where it acts, at the ends of an arrow with
    # nonzero dims at both ends: `random_glpoint` gets dim 0 elsewhere
    live = {v for _, s, t in A.quiver.arrows
            if M.dims[s - 1] and M.dims[t - 1] for v in (s, t)}
    N = conjugate(A, M, random_glpoint(
        rng, [x if v in live else 0 for v, x in enumerate(M.dims, 1)], 3))
    # conjugation is an isomorphism, and band ranks do not depend on the
    # parameter, so N has the rank function of the component
    rf = rank_function_of(A, N)
    if rf != Z.rank():
        raise ConsistencyFailure(
            f"generic point of {Z.r} has rank function {sorted(rf.items())}")
    return N


def ceh_values(A, Z, seed=0):
    """(c, e, h) at generic points, minimized over three seeds."""
    dz = component_dim(A, Z)
    gl = dim_gl(Z.d)
    best = None
    for s in (seed, seed + 1, seed + 2):
        M = generic_point(A, Z, s)
        end = hom_dim_oracle(A, M, M)
        c = dz - (gl - end)
        pres = min_proj_presentation(A, M)
        e = end + _ext1_minus_hom(A, pres, M)
        h = hom_dim_oracle(A, M, _tau_of_presentation(A, pres))
        t = (c, e, h)
        best = t if best is None else tuple(min(x, y) for x, y in zip(best, t))
    return best


def ceh_by_words(A, Z):
    """(c, e, h) at the generic direct sum M of the component's certified
    multiset, from the standard complex.  dim End M and dim Z^1(M, M) sum
    the Hom and Z^1 tables of its summands (`_pair_sum`), and the orbit
    has dimension dim GL - dim End M: c = dim Z - orbit, e = dim Z^1 -
    orbit (Ext^1 is Z^1 modulo the orbit's tangent space, Voigt), and
    h = dim Hom(M, tau M) = dim End M + g(M) . d (the E-invariant), with
    g(M) read off the component's (d, r) in closed form
    (`strings._g_of_shape`; g is additive, and the words' shapes add
    up to (d, r)).  It builds no generic point, no presentation, no tau
    and no Z^1 system for g; `ceh_values` is its oracle."""
    words = generic_multiset(A, Z)
    gl = dim_gl(Z.d)
    orbit = gl - _pair_sum(A, words, hom_dim)
    gd = sum(g * d for g, d in zip(_g_of_shape(A, Z.d, Z.rank()), Z.d))
    return (component_dim(A, Z) - orbit,
            _pair_sum(A, words, _cocycle_dim) - orbit,
            gl - orbit + gd)


def canonical_decomposition(A, Z, seed=0):
    """Generic decomposition of the component into string and band
    labels, found by `decompose` at the generic point of `seed` and
    checked against the certified multiset of `generic_multiset`, whose
    words `decompose` tries first on every piece (so it builds a word
    table only for a piece that none of them matches, at that piece's
    dims)."""
    words = generic_multiset(A, Z)
    M = generic_point(A, Z, seed)
    parts = decompose(A, M, seed=seed, words=words)
    labels = [("band", x[0]) if isinstance(x, tuple) else ("string", x)
              for x in parts]
    want = sorted(("band" if isinstance(w, BandWord) else "string", str(w))
                  for w in words)
    got = sorted((kind, str(w)) for kind, w in labels)
    if got != want:
        raise ConsistencyFailure(
            f"decompose finds {got} at the generic point of {Z.r}, the "
            f"certified multiset is {want}")
    return labels


def tau_reduced_components_census(A, d_bound):
    """All generically tau-reduced components with entries <= d_bound;
    checks that each dimension vector carries at most one."""
    if not is_jacobian(A):
        raise NotJacobian("census requires a gentle Jacobian algebra")
    out = []
    for dv in itertools.product(range(d_bound + 1), repeat=A.n):
        hits = [Z for Z in components(A, dv) if is_tau_reduced(A, Z)]
        if len(hits) > 1:
            raise UniquenessViolation(f"{len(hits)} tau-reduced components at {dv}")
        out.extend((dv, Z) for Z in hits)
    return out


@dataclass(frozen=True)
class DecoratedComponent:
    component: Component
    v: tuple


def decorated_g_vector(A, DZ):
    """Generic g-vector of a decorated component: the decoration plus g
    read in closed form off the component's (d, r) (`_g_of_shape`).  g
    is constant on a dense open subset of the component (Plamondon), so
    no multiset, generic point or Z^1 system is built; the g-vector of a
    `generic_point` is its oracle."""
    Z = DZ.component
    return _g_of_shape(A, Z.d, Z.rank(), DZ.v)
