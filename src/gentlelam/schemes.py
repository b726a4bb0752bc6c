"""Irreducible components of module schemes over gentle algebras.

Components of mod(A, d) are indexed by maximal rank functions.  All
dimension counts run block by block through the C_m / C~_m models: the
generic module of a block component is P/S-multiset M_{d,r}, its
endomorphism dimension comes from the finite Hom table of the model
algebras, and generic points are produced by conjugating the model
module with random invertible matrices.
"""

import random
from dataclasses import dataclass, field

from .homological import (_ext1_of_presentation, _tau_of_presentation,
                          hom_dim_oracle, min_proj_presentation)
from .quiver import is_jacobian, rho_blocks, transport_dimvec
from .strings import (BandWord, InvalidString, band_module, conjugate,
                      decompose, enumerate_bands, enumerate_strings,
                      band_parameters, random_glpoint, rank_function_of,
                      string_module, word_sum)


class NotJacobian(ValueError):
    pass


class SamplingFailure(RuntimeError):
    pass


class UniquenessViolation(AssertionError):
    pass


class ConsistencyFailure(AssertionError):
    pass


def rank_functions(A, d, maximal_only=False):
    """All rank functions for (A, d); optionally only the maximal ones.

    The constraint set is downward closed, so r is maximal iff no
    single-arrow increment stays valid.
    """
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
    if not maximal_only:
        return out

    def valid(r):
        for a in arrows:
            if r[a] > caps[a]:
                return False
        for a, b in A.relations:
            if r[a] + r[b] > d[A.s(a) - 1]:
                return False
        return True

    maximal = []
    for r in out:
        if all(not valid({**r, a: r[a] + 1}) for a in arrows):
            maximal.append(r)
    return maximal


@dataclass(frozen=True)
class Component:
    d: tuple
    r: tuple  # sorted (arrow, rank) pairs; use .rank() for the dict
    _blocks: tuple = field(default=None, compare=False, repr=False)

    def rank(self):
        return dict(self.r)


def components(A, d):
    d = tuple(d)
    blocks = tuple(rho_blocks(A))
    out = []
    for r in rank_functions(A, d, maximal_only=True):
        out.append(Component(d, tuple(sorted(r.items())), blocks))
    out.sort(key=lambda z: z.r)
    return out


def _blocks_of(A, Z):
    return Z._blocks if Z._blocks is not None else tuple(rho_blocks(A))


def _model_multiplicities(block, d, r):
    """Multiplicities (p, q) of the projectives P_i and simples S_i in
    the generic module of the block component."""
    m = block.model_size
    dd = transport_dimvec(block, d)
    cyclic = block.block_type == "Ct"
    n_arrows = m if cyclic else m - 1
    p = [0] * (m + 1)  # p[i] = multiplicity of P_i, arrow a_i starting at i
    for i in range(1, n_arrows + 1):
        p[i] = r[block.arrows[i - 1]]
    q = [0] * (m + 1)
    for i in range(1, m + 1):
        ri = 0
        if i <= n_arrows:
            ri += p[i]
        prev = i - 1 if i > 1 else (m if cyclic else 0)
        if 1 <= prev <= n_arrows:
            ri += p[prev]
        q[i] = dd[i - 1] - ri
        if q[i] < 0:
            raise ValueError("rank function invalid for this block")
    return p, q


def _block_end_dim(block, p, q):
    """dim End of the generic block module from the model Hom table."""
    m = block.model_size
    cyclic = block.block_type == "Ct"
    n_arrows = m if cyclic else m - 1
    pairs = {}
    for i in range(1, m + 1):
        pairs[(("S", i), ("S", i))] = 1
    for i in range(1, n_arrows + 1):
        ti = i % m + 1 if cyclic else i + 1
        pairs[(("P", i), ("P", i))] = 2 if (cyclic and m == 1) else 1
        pairs[(("P", i), ("S", i))] = 1
        pairs[(("S", ti), ("P", i))] = 1
        if (cyclic and m >= 1) or ti <= n_arrows:
            key = (("P", ti), ("P", i))
            if key not in pairs:
                pairs[key] = 1
    def mult(label):
        kind, i = label
        return p[i] if kind == "P" else q[i]
    total = 0
    for (x, y), h in pairs.items():
        if (x[0] == "P" and x[1] > n_arrows) or (y[0] == "P" and y[1] > n_arrows):
            continue
        total += mult(x) * mult(y) * h
    return total


def component_dim(A, Z):
    """dim Z as a sum of block orbit dimensions."""
    d = Z.d
    r = Z.rank()
    total = 0
    for block in _blocks_of(A, Z):
        dd = transport_dimvec(block, d)
        p, q = _model_multiplicities(block, d, r)
        total += sum(x * x for x in dd) - _block_end_dim(block, p, q)
    return total


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
    """dim of the scheme tangent space at M: ambient dimension minus the
    rank of the differential of the relation equations."""
    from .exactlinalg import sparse_rank
    d = M.dims
    offs = {}
    off = 0
    for aid in A.arrow_ids:
        offs[aid] = off
        off += d[A.s(aid) - 1] * d[A.t(aid) - 1]
    rows = []
    for a, b in A.relations:
        Ma, Mb = M.mats[a], M.mats[b]
        dsb = d[A.s(b) - 1]
        dsa = d[A.s(a) - 1]
        dta = d[A.t(a) - 1]
        # d(M_a M_b) = delta_a M_b + M_a delta_b, entry (u, v)
        for u in range(dta):
            for v in range(dsb):
                row = {}
                for k in range(dsa):
                    if Mb[k][v]:
                        row[offs[a] + u * dsa + k] = Mb[k][v]
                for k in range(dsa):
                    if Ma[u][k]:
                        key = offs[b] + k * dsb + v
                        row[key] = row.get(key, 0) + Ma[u][k]
                if row:
                    rows.append(row)
    return off - sparse_rank(rows)


def max_component_dim_through(A, M):
    """max dim(Z) over components Z containing M (r_M <= r_Z)."""
    rM = rank_function_of(A, M)
    best = None
    for Z in components(A, M.dims):
        rZ = Z.rank()
        if all(rM[a] <= rZ[a] for a in A.arrow_ids):
            dz = component_dim(A, Z)
            best = dz if best is None else max(best, dz)
    if best is None:
        raise InvalidString("module lies in no component; invalid input")
    return best


def components_through(A, M):
    rM = rank_function_of(A, M)
    return [Z for Z in components(A, M.dims)
            if all(rM[a] <= Z.rank()[a] for a in A.arrow_ids)]


def is_generically_reduced(A, Z):
    """Every component of (A, d) is generically reduced unless a loop
    carries odd local dimension."""
    for aid, s, t in A.quiver.arrows:
        if s == t and Z.d[s - 1] % 2 == 1:
            return False
    return True


def block_critical_summands(A, Z):
    """Type I and type II critical summands of the generic block modules.

    Type I at arrow a: both S_{s(a)} and S_{t(a)} occur; type II: the
    projective cover of S_{t(a)} and the simple S_{s(a)} occur.
    """
    d, r = Z.d, Z.rank()
    report = []
    for block in _blocks_of(A, Z):
        if block.model_size == 1 and block.block_type == "C":
            continue
        p, q = _model_multiplicities(block, d, r)
        m = block.model_size
        cyclic = block.block_type == "Ct"
        n_arrows = m if cyclic else m - 1
        type1, type2 = [], []
        for i in range(1, n_arrows + 1):
            ti = i % m + 1 if cyclic else i + 1
            arrow = block.arrows[i - 1]
            if q[i] >= 1 and q[ti] >= 1:
                type1.append(arrow)
            if ti <= n_arrows and q[i] >= 1 and p[ti] >= 1:
                type2.append(arrow)
        if type1 or type2:
            report.append((block, tuple(type1), tuple(type2)))
    return report


def is_tau_reduced(A, Z):
    """Generic tau-reducedness through the block criterion."""
    if not is_jacobian(A):
        raise NotJacobian("the block criterion needs a gentle Jacobian algebra")
    return not block_critical_summands(A, Z)


def generic_multiset(A, Z, bound=None):
    """The canonical decomposition of the component as a word multiset.

    Searches for strings and bands whose dimension vectors and rank
    functions add up to (d, r); a candidate is certified generic by the
    exact dimension count dim Z = dim GL - dim End + #bands.  Results
    are memoized on the algebra object.
    """
    d, r = Z.d, Z.rank()
    total = sum(d)
    if bound is None:
        bound = total
    memo = A.__dict__.get("_multisets")
    if memo is None:
        memo = {}
        object.__setattr__(A, "_multisets", memo)
    key = (d, Z.r, bound)
    if key in memo:
        return list(memo[key])
    if total == 0:
        memo[key] = []
        return []
    n_strings = total - sum(r.values())
    dz = component_dim(A, Z)
    gl = dim_gl(d)
    cand = [(B, band_module(A, B, 1))
            for B in enumerate_bands(A, min(bound, total), d)]
    cand += [(C, string_module(A, C))
             for C in enumerate_strings(A, min(bound, total) - 1, d)]
    cand.sort(key=lambda x: (-x[1].dim(), str(x[0])))
    sol = []

    def feasible(rem_d, rem_r, rem_strings):
        return sum(rem_d) - sum(rem_r.values()) == rem_strings

    def rec(idx, rem_d, rem_r, rem_strings):
        if sum(rem_d) == 0:
            if rem_strings or any(rem_r.values()):
                return False
            return certify()
        for k in range(idx, len(cand)):
            w, M = cand[k]
            is_band = isinstance(w, BandWord)
            if not is_band and rem_strings == 0:
                continue
            nd = tuple(rem_d[v] - M.dims[v] for v in range(A.n))
            if any(x < 0 for x in nd):
                continue
            rf = rank_function_of(A, M)
            nr = {a: rem_r[a] - rf[a] for a in rem_r}
            if any(x < 0 for x in nr.values()):
                continue
            ns = rem_strings - (0 if is_band else 1)
            if not feasible(nd, nr, ns):
                continue
            sol.append(w)
            if rec(k, nd, nr, ns):
                return True
            sol.pop()
        return False

    def certify():
        M = word_sum(A, sol)
        if rank_function_of(A, M) != r:
            return False
        q = sum(isinstance(w, BandWord) for w in sol)
        return dz == gl - hom_dim_oracle(A, M, M) + q

    if not rec(0, d, dict(r), n_strings):
        raise SamplingFailure(
            f"no generic decomposition within bound {bound} for {Z.r}")
    memo[key] = list(sol)
    return list(sol)


def generic_point(A, Z, seed=0):
    """A generic module of the component: the certified generic direct
    sum (distinct rational band parameters) under a random conjugation."""
    r = Z.rank()
    words = generic_multiset(A, Z)
    rng = random.Random(seed)
    M = word_sum(A, words, band_parameters(rng))
    for _ in range(8):
        g = random_glpoint(rng, M.dims, 3)
        N = conjugate(A, M, g)
        if rank_function_of(A, N) == r:
            return N
    raise SamplingFailure("could not sample a generic point")


def ceh_values(A, Z, seed=0):
    """(c, e, h) at generic points, minimized over three seeds."""
    dz = component_dim(A, Z)
    gl = dim_gl(Z.d)
    best = None
    for s in (seed, seed + 1, seed + 2):
        M = generic_point(A, Z, s)
        c = dz - (gl - hom_dim_oracle(A, M, M))
        pres = min_proj_presentation(A, M)
        e = _ext1_of_presentation(A, pres, M)
        h = hom_dim_oracle(A, M, _tau_of_presentation(A, pres))
        t = (c, e, h)
        best = t if best is None else tuple(min(x, y) for x, y in zip(best, t))
    return best


def canonical_decomposition(A, Z, bound, seed=0):
    """Generic decomposition of the component into string and band labels."""
    M = generic_point(A, Z, seed)
    parts = decompose(A, M, bound, seed=seed)
    n_strings = sum(1 for x in parts if not isinstance(x, tuple))
    expected = sum(Z.d) - sum(Z.rank().values())
    if n_strings != expected:
        raise ConsistencyFailure(
            f"{n_strings} string summands, rank count predicts {expected}")
    labels = []
    for x in parts:
        labels.append(("band", x[0]) if isinstance(x, tuple) else ("string", x))
    return labels


def tau_reduced_components_census(A, d_bound):
    """All generically tau-reduced components with entries <= d_bound;
    checks that each dimension vector carries at most one."""
    if not is_jacobian(A):
        raise NotJacobian("census requires a gentle Jacobian algebra")
    out = []
    n = A.n
    d = [0] * n

    def rec(i):
        if i == n:
            dv = tuple(d)
            hits = [Z for Z in components(A, dv) if is_tau_reduced(A, Z)]
            if len(hits) > 1:
                raise UniquenessViolation(f"{len(hits)} tau-reduced components at {dv}")
            out.extend((dv, Z) for Z in hits)
            return
        for v in range(d_bound + 1):
            d[i] = v
            rec(i + 1)
        d[i] = 0

    rec(0)
    return out


@dataclass(frozen=True)
class DecoratedComponent:
    component: Component
    v: tuple

    def dim_pair(self):
        return (self.component.d, self.v)


def decorated_g_vector(A, DZ, seed=0):
    """Generic g-vector of a decorated component."""
    from .homological import DecoratedModule, g_vector
    M = generic_point(A, DZ.component, seed)
    return g_vector(A, DecoratedModule(M, DZ.v))
