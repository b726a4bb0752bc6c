"""Sparse exact Laurent polynomials and the cluster expansion formulas.

The ring is Z[x_1^+-, ..., x_n^+-, y_1, ..., y_n]; terms are stored as
{(x_exponents, y_exponents): coefficient} with arbitrary-precision
integer coefficients.  Bangle functions of curves expand over the order
coideals (predecessor-closed vertex subsets) of the coefficient quiver;
dual Caldero-Chapoton functions use the same counts through the
quiver-Grassmannian interpretation of coideals and multiply over direct
summands.

The coefficient quiver of a curve or a word is a type-A path (open
curves, strings) or an affine-A cycle (loops, bands) whose arrow k joins
positions k and k+1.  `coideal_generating_function` sums over its
coideals by a transfer-matrix sweep, one pass over the positions: each
position is in the coideal or not, and each arrow forbids
one of the four pairs of neighbouring states (the snake-graph expansion
of Musiker-Schiffler-Williams).  `order_coideals` lists the coideals by
a scan over all vertex subsets; it is kept as the independent oracle of
the sweep and of the finite-field Grassmannian counts, and nothing in
the library calls it.
"""

from dataclasses import dataclass
from operator import mul
from .homological import DecoratedModule, g_vector
from .strings import BandWord, DictionaryExhausted, decompose, word_sum, \
    word_walk
from .surface import CoefficientQuiver, build_QT, \
    coefficient_quiver, curve_to_module, shear_coordinates, _vnum


class UnsupportedModule(ValueError):
    pass


class NotPathOrCycle(ValueError):
    """A coefficient quiver whose arrow k does not join positions k and
    k+1 (mod m) for every k, or has too many or too few arrows."""


@dataclass(frozen=True)
class LaurentPoly:
    n: int
    terms: tuple  # sorted ((x_exps, y_exps), coeff) with nonzero coeffs

    @staticmethod
    def from_dict(n, d):
        items = tuple(sorted((k, int(v)) for k, v in d.items() if v))
        return LaurentPoly(n, items)

    @staticmethod
    def zero(n):
        return LaurentPoly(n, ())

    @staticmethod
    def one(n):
        return LaurentPoly.monomial(n, (0,) * n, (0,) * n)

    @staticmethod
    def monomial(n, xe, ye, coeff=1):
        return LaurentPoly.from_dict(n, {(tuple(xe), tuple(ye)): coeff})

    def __add__(self, other):
        d = dict(self.terms)
        for k, v in other.terms:
            d[k] = d.get(k, 0) + v
        return LaurentPoly.from_dict(self.n, d)

    def __mul__(self, other):
        d = {}
        for (x1, y1), c1 in self.terms:
            for (x2, y2), c2 in other.terms:
                k = (tuple(a + b for a, b in zip(x1, x2)),
                     tuple(a + b for a, b in zip(y1, y2)))
                d[k] = d.get(k, 0) + c1 * c2
        return LaurentPoly.from_dict(self.n, d)

    def __pow__(self, k):
        out = LaurentPoly.one(self.n)
        for _ in range(k):
            out = out * self
        return out

    def coeff_sum(self):
        return sum(c for _, c in self.terms)

    def term_order(self):
        """Terms sorted by (y-exponents, x-exponents)."""
        return sorted(self.terms, key=lambda t: (t[0][1], t[0][0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (xe, ye), c in self.term_order():
            bits = [str(c)]
            for i, e in enumerate(xe):
                if e:
                    bits.append(f"x{i + 1}^{e}" if e != 1 else f"x{i + 1}")
            for i, e in enumerate(ye):
                if e:
                    bits.append(f"y{i + 1}^{e}" if e != 1 else f"y{i + 1}")
            parts.append("*".join(bits))
        return " + ".join(parts)

    def to_json(self):
        return [{"coeff": c, "x": list(xe), "y": list(ye)}
                for (xe, ye), c in self.term_order()]

    @staticmethod
    def from_json(n, data):
        d = {}
        for t in data:
            k = (tuple(t["x"]), tuple(t["y"]))
            d[k] = d.get(k, 0) + int(t["coeff"])
        return LaurentPoly.from_dict(n, d)


def specialize(poly, y_values=None):
    """Substitute integers for the y-variables (all 1 by default)."""
    n = poly.n
    if y_values is None:
        y_values = [1] * n
    d = {}
    for (xe, ye), c in poly.terms:
        f = c
        for i, e in enumerate(ye):
            f *= y_values[i] ** e
        k = (xe, (0,) * n)
        d[k] = d.get(k, 0) + f
    return LaurentPoly.from_dict(n, d)


# ---------------------------------------------------------------------------
# signed adjacency and coefficient variables


def signed_adjacency(T):
    """b_ij = #arrows i->j minus #arrows j->i of the triangulation quiver."""
    A = build_QT(T)
    n = A.n
    b = [[0] * n for _ in range(n)]
    for aid, s, t in A.quiver.arrows:
        b[s - 1][t - 1] += 1
        b[t - 1][s - 1] -= 1
    for i in range(n):
        for j in range(n):
            if b[i][j] + b[j][i] != 0:
                raise AssertionError("signed adjacency not skew-symmetric")
    return b


def yhat(j, B):
    """The monomial y_j * prod_i x_i^{b_ij}."""
    n = len(B)
    xe = tuple(B[i][j - 1] for i in range(n))
    ye = tuple(1 if i == j - 1 else 0 for i in range(n))
    return LaurentPoly.monomial(n, xe, ye)


# ---------------------------------------------------------------------------
# order coideals


def order_coideals(Q):
    """All predecessor-closed vertex subsets, ascending as bitmasks.

    A scan of all 2^m subsets, for any quiver; the tests check the sweep
    of `coideal_generating_function` and the finite-field Grassmannian
    counts against it."""
    m = len(Q.labels)
    preds = [[] for _ in range(m)]
    for u, v, _ in Q.arrows:
        preds[v - 1].append(u - 1)
    out = []
    for mask in range(1 << m):
        ok = True
        for v in range(m):
            if mask >> v & 1:
                for u in preds[v]:
                    if not mask >> u & 1:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            out.append(frozenset(v + 1 for v in range(m) if mask >> v & 1))
    return out


def coideal_generating_function(Q, B):
    """Sum over order coideals of the product of yhat over the labels.

    A sweep along the positions of the path or cycle `Q` (see
    `_arrow_directions`).  After position k it holds, for each state of
    k (0 out of the coideal, 1 in it), the sum over the admissible states
    of positions 1..k.  An arrow u -> v admits every pair of states but
    (u out, v in); taking position k multiplies by yhat(label k).  A path
    adds up both end states.  A cycle sweeps once from each state of
    position 1 and keeps the end states that the closing arrow between
    positions m and 1 admits.

    A term is kept as the count of each label in the coideal, packed into
    one integer in base m + 1 (no count exceeds m), so that taking a
    position adds a constant to every key; its x-exponents are B times the
    counts, and the LaurentPoly is built once at the end.
    """
    n = len(B)
    m = len(Q.labels)
    forward = _arrow_directions(Q)
    base = m + 1
    shift = [base ** (j - 1) for j in Q.labels]
    if Q.cyclic:
        total = {}
        for first in (0, 1):
            start = ({0: 1}, {}) if first == 0 else ({}, {shift[0]: 1})
            ends = _sweep(start, forward[:-1], shift)
            for last in (0, 1):
                if _admits(forward[-1], last, first):
                    _add_into(total, ends[last])
    else:
        out, into = _sweep(({0: 1}, {shift[0]: 1}), forward, shift)
        total = _add_into(out, into)
    terms = {}
    for key, c in total.items():
        ye = []
        for _ in range(n):
            key, e = divmod(key, base)
            ye.append(e)
        xe = tuple(sum(map(mul, row, ye)) for row in B)
        terms[(xe, tuple(ye))] = c
    return LaurentPoly.from_dict(n, terms)


def _arrow_directions(Q):
    """Per arrow k (1-based), whether it points from position k to k+1
    (mod m).  Q must be a path (m >= 1 positions, m - 1 arrows) or, when
    Q.cyclic, a cycle (m arrows; a self-loop for m = 1)."""
    m = len(Q.labels)
    if m == 0 or len(Q.arrows) != (m if Q.cyclic else m - 1):
        raise NotPathOrCycle(
            f"{len(Q.arrows)} arrows on {m} positions of a "
            f"{'cycle' if Q.cyclic else 'path'}")
    forward = []
    for k, (u, v, _) in enumerate(Q.arrows, 1):
        nxt = k % m + 1
        if (u, v) == (k, nxt):
            forward.append(True)
        elif (u, v) == (nxt, k):
            forward.append(False)
        else:
            raise NotPathOrCycle(
                f"arrow {k} joins positions {u} -> {v}, not {k} and {nxt}")
    return forward


def _admits(forward, here, there):
    """Whether an arrow between a position in state `here` and the next
    one in state `there` admits the pair: u -> v forbids (u out, v in)."""
    return (here, there) != ((0, 1) if forward else (1, 0))


def _add_into(d, other):
    for k, c in other.items():
        d[k] = d.get(k, 0) + c
    return d


def _sweep(state, forward, shift):
    """Carry (out, in) across the arrows `forward` from position 1; arrow
    k leads into position k+1, which multiplies by shift[k].  Updates the
    dicts of `state` in place."""
    out, into = state
    for k, fwd in enumerate(forward, 1):
        s = shift[k]
        if fwd:  # k -> k+1: k+1 in needs k in
            shifted = {key + s: c for key, c in into.items()}
            out, into = _add_into(out, into), shifted
        else:  # k+1 -> k: k in needs k+1 in
            into = {key + s: c for key, c in _add_into(into, out).items()}
    return out, into


def word_coefficient_quiver(A, w):
    """Coefficient quiver of a string or band module from its word: the
    basis vectors of `word_walk` and an arrow per step, positions 1-based."""
    verts, steps = word_walk(A, w)
    return CoefficientQuiver(tuple(verts),
                             tuple((p + 1, q + 1, aid) for aid, p, q in steps),
                             isinstance(w, BandWord))


# ---------------------------------------------------------------------------
# bangle functions and dual CC functions


def bangle(T, gamma, B=None):
    """Laurent expansion of a curve: x^shear times the coideal sum."""
    if B is None:
        B = signed_adjacency(T)
    n = len(B)
    if gamma.kind == "arc":
        j = _vnum(T)[gamma.arc]
        return LaurentPoly.monomial(
            n, tuple(1 if i == j - 1 else 0 for i in range(n)), (0,) * n)
    s = shear_coordinates(T, gamma)
    Q = coefficient_quiver(T, gamma)
    return LaurentPoly.monomial(n, s, (0,) * n) * \
        coideal_generating_function(Q, B)


def bangle_lamination(T, L, B=None):
    if B is None:
        B = signed_adjacency(T)
    out = LaurentPoly.one(len(B))
    for gamma, mult in L.entries:
        out = out * bangle(T, gamma, B) ** mult
    return out


def cc_prime(T, dec, bound=10, B=None, algebra=None):
    """Dual Caldero-Chapoton function of a decorated module.

    x^g times the generating function of coideal counts (the Euler
    characteristics of the factor-module Grassmannians), multiplicative
    over direct summands.
    """
    A = algebra or build_QT(T)
    if B is None:
        B = signed_adjacency(T)
    n = A.n
    g = g_vector(A, dec)
    out = LaurentPoly.monomial(n, g, (0,) * n)
    if dec.module.dim() == 0:
        return out
    try:
        parts = decompose(A, dec.module, bound)
    except DictionaryExhausted as exc:
        raise UnsupportedModule(str(exc)) from exc
    for w in parts:
        word = w[0] if isinstance(w, tuple) else w
        Q = word_coefficient_quiver(A, word)
        out = out * coideal_generating_function(Q, B)
    return out


def generic_decorated_module(T, L, algebra=None):
    """A generic point of eta(L): summands with pairwise distinct band
    parameters, plus the decoration from the arcs."""
    A = algebra or build_QT(T)
    v = [0] * A.n
    words = []
    for gamma, mult in L.entries:
        if gamma.kind == "arc":
            v[_vnum(T)[gamma.arc] - 1] += mult
        else:
            words += [curve_to_module(T, gamma)] * mult
    return DecoratedModule(word_sum(A, words), tuple(v))


def verify_bangle_equals_generic(T, L, bound=12, algebra=None):
    """Compare the lamination bangle with the generic dual CC function.

    Returns (equal, lhs, rhs, first_diff)."""
    A = algebra or build_QT(T)
    B = signed_adjacency(T)
    lhs = bangle_lamination(T, L, B)
    dec = generic_decorated_module(T, L, algebra=A)
    rhs = cc_prime(T, dec, bound=bound, B=B, algebra=A)
    if lhs == rhs:
        return True, lhs, rhs, None
    lt = dict(lhs.terms)
    rt = dict(rhs.terms)
    for k in sorted(set(lt) | set(rt), key=lambda k: (k[1], k[0])):
        if lt.get(k, 0) != rt.get(k, 0):
            return False, lhs, rhs, (k, lt.get(k, 0), rt.get(k, 0))
    return False, lhs, rhs, None
