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
of Musiker-Schiffler-Williams).  The sweep keeps each term as one
integer key that packs the x- and then the y-exponents into digits of
w bytes (x-digits biased by 2^(8w - 1), w the least of 1, 2, 4, 8 that
no partial term outgrows), so a position adds one constant to every
key, and the integer order of the keys is the order of the terms.  A
state holds its keys less one lazy offset, so taking a position only
adds to the offset, and a merge re-keys the smaller of two dicts.  The
sorted keys are read back in one pass: joined as big-endian bytes and
unpacked into digits by a single `struct.unpack`.
`order_coideals` lists the coideals by a scan over all vertex subsets;
it is kept as the independent oracle of the sweep and of the
finite-field Grassmannian counts, and nothing in the library calls it.
"""

import struct
from collections import Counter
from dataclasses import dataclass
from operator import mul
from .errors import InputError
from .homological import DecoratedModule, g_vector
from .strings import DictionaryExhausted, decompose, word_sum
from .surface import _decoration, build_QT, coefficient_quiver, \
    lamination_words, shear_coordinates, word_coefficient_quiver


class UnsupportedModule(InputError):
    pass


class ExponentOutOfRange(InputError):
    """A power of a LaurentPoly that is negative or not an integer, or a
    coideal sum whose exponents may not fit 64-bit digits."""


class ShapeMismatch(InputError):
    """A shape that does not fit n: an x-exponent offset or a list of
    y-values whose length is not n, a label outside 1..n (of a coideal
    sum or a `yhat` over an n x n exchange matrix), or a sum or product
    of two LaurentPolys in different numbers of variables."""


class NotPathOrCycle(InputError):
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
    def one(n):
        return LaurentPoly.monomial(n, (0,) * n, (0,) * n)

    @staticmethod
    def monomial(n, xe, ye, coeff=1):
        return LaurentPoly.from_dict(n, {(tuple(xe), tuple(ye)): coeff})

    def _same_n(self, other):
        if other.n != self.n:
            raise ShapeMismatch(
                f"LaurentPolys in {self.n} and {other.n} variables")

    def __add__(self, other):
        self._same_n(other)
        d = dict(self.terms)
        for k, v in other.terms:
            d[k] = d.get(k, 0) + v
        return LaurentPoly.from_dict(self.n, d)

    def __mul__(self, other):
        self._same_n(other)
        d = {}
        for (x1, y1), c1 in self.terms:
            for (x2, y2), c2 in other.terms:
                k = (tuple(a + b for a, b in zip(x1, x2)),
                     tuple(a + b for a, b in zip(y1, y2)))
                d[k] = d.get(k, 0) + c1 * c2
        return LaurentPoly.from_dict(self.n, d)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ExponentOutOfRange(
                f"power {k!r}: only non-negative integers are allowed")
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
    """Substitute integers for the y-variables (all 1 by default), one
    per variable (`ShapeMismatch`)."""
    n = poly.n
    y_values = [1] * n if y_values is None else list(y_values)
    if len(y_values) != n:
        raise ShapeMismatch(f"{len(y_values)} y-values, not n = {n}")
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
    return b


def yhat(j, B):
    """The monomial y_j * prod_i x_i^{b_ij}, for j in 1..n
    (`ShapeMismatch`)."""
    n = len(B)
    if not 1 <= j <= n:
        raise ShapeMismatch(f"label {j!r} is outside 1..{n}")
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


def coideal_generating_function(Q, B, offset=None):
    """Sum over order coideals of the product of yhat over the labels,
    times x^offset when an x-exponent vector `offset` is given.

    A sweep along the positions of the path or cycle `Q` (see
    `_arrow_directions`).  After position k it holds, for each state of
    k (0 out of the coideal, 1 in it), the sum over the admissible states
    of positions 1..k.  An arrow u -> v admits every pair of states but
    (u out, v in); taking position k multiplies by yhat(label k).  A path
    adds up both end states.  A cycle sweeps once from each state of
    position 1 and keeps the end states that the closing arrow between
    positions m and 1 admits.  The labels must lie in 1..n and the
    offset have length n (`ShapeMismatch`).

    A term is kept as one integer of 2n digits, each w bytes wide, most
    significant first: x_1 .. x_n, each plus the bias 2^(8w - 1), then
    y_1 .. y_n (see `_key_width` for w).  Taking a position with label j
    adds one constant to every key, column j of B in the x-digits and a
    unit in the y_j digit; the offset is in the start key.  No digit
    leaves its range, so none carries into the next, and the integer
    order of the keys is the order of the LaurentPoly terms.  A state
    is a pair (dict, offset): each stored key plus the offset is a key,
    so a position adds its constant to the offset alone (see `_sweep`).
    The sorted keys, their bias bits flipped, are joined as big-endian
    bytes and unpacked at once into signed w-byte digits, n of them to
    an x- or a y-tuple.
    """
    n = len(B)
    offset = (0,) * n if offset is None else tuple(offset)
    if len(offset) != n:
        raise ShapeMismatch(
            f"offset {offset} has length {len(offset)}, not n = {n}")
    for j in Q.labels:
        if not 1 <= j <= n:
            raise ShapeMismatch(f"label {j!r} is outside 1..{n}")
    forward = _arrow_directions(Q)
    w = _key_width(Q, B, offset)
    radix = 1 << 8 * w
    x_place = [radix ** (2 * n - i) for i in range(1, n + 1)]
    bias = (radix >> 1) * sum(x_place)
    start = bias + sum(map(mul, offset, x_place))
    shift = [sum(B[i][j - 1] * x_place[i] for i in range(n))
             + radix ** (n - j) for j in Q.labels]
    if Q.cyclic:
        total = ({}, 0)
        for first in (0, 1):
            state = (({0: 1}, start), ({}, 0)) if first == 0 else \
                (({}, 0), ({0: 1}, start + shift[0]))
            ends = _sweep(state, forward[:-1], shift)
            for last in (0, 1):
                if _admits(forward[-1], last, first):
                    total = _union(total, ends[last])
    else:
        total = _union(*_sweep((({0: 1}, start), ({0: 1}, start + shift[0])),
                               forward, shift))
    d, at = total
    keys = sorted(d)
    nbytes, fmt = 2 * n * w, "bhiq"[w.bit_length() - 1]
    digits = struct.unpack(
        f">{2 * n * len(keys)}{fmt}",
        b"".join([((k + at) ^ bias).to_bytes(nbytes, "big") for k in keys]))
    rows = zip(*[iter(digits)] * n)  # x_1 .. x_n, y_1 .. y_n, x_1 ..
    return LaurentPoly(n, tuple(zip(zip(rows, rows), map(d.get, keys))))


def _key_width(Q, B, offset):
    """The digit width in bytes of the sweep's keys: the least w in
    {1, 2, 4, 8} with every y-count (at most m) and every |x_i| (at most
    |offset_i| + sum_j |b_ij| c_j, c_j the positions labelled j) below
    2^(8w - 1), so that each fits a signed w-byte digit."""
    counts = Counter(Q.labels)
    span = max([len(Q.labels)] + [
        abs(o) + sum(abs(row[j - 1]) * c for j, c in counts.items())
        for row, o in zip(B, offset)])
    for w in (1, 2, 4, 8):
        if span < 1 << 8 * w - 1:
            return w
    raise ExponentOutOfRange(
        f"an exponent of the coideal sum may reach {span}, past 2^63 - 1")


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


def _merge(d, at, other, off):
    """Add the terms of `other`, whose keys are stored less `off`, into
    `d`, whose keys are stored less `at`; returns d."""
    delta = off - at
    get = d.get
    for k, c in other.items():
        k += delta
        d[k] = get(k, 0) + c
    return d


def _union(a, b):
    """The sum of two sweep states (dict, offset) that neither survives:
    the smaller dict re-keyed into the larger."""
    if len(a[0]) < len(b[0]):
        a, b = b, a
    return _merge(*a, *b), a[1]


def _sweep(state, forward, shift):
    """Carry ((out, o_at), (into, i_at)) across the arrows `forward` from
    position 1; arrow k leads into position k+1, which adds shift[k] to
    the offset of the in-state.  A merge adds the smaller dict into the
    larger, which it copies first only when that state lives on (the
    in-state at a forward arrow, the out-state at a backward one)."""
    (out, o_at), (into, i_at) = state
    for k, fwd in enumerate(forward, 1):
        if fwd:  # k -> k+1: k+1 out takes both, k+1 in needs k in
            if len(out) >= len(into):
                _merge(out, o_at, into, i_at)
            else:
                out, o_at = _merge(dict(into), i_at, out, o_at), i_at
        else:  # k+1 -> k: k+1 in takes both, k+1 out needs k out
            if len(into) >= len(out):
                _merge(into, i_at, out, o_at)
            else:
                into, i_at = _merge(dict(out), o_at, into, i_at), o_at
        i_at += shift[k]
    return (out, o_at), (into, i_at)


# ---------------------------------------------------------------------------
# bangle functions and dual CC functions


def bangle(T, gamma, B=None):
    """Laurent expansion of a curve: x^shear times the coideal sum."""
    if B is None:
        B = signed_adjacency(T)
    n = len(B)
    if gamma.kind == "arc":
        return LaurentPoly.monomial(
            n, tuple(1 if i == gamma.arc - 1 else 0 for i in range(n)),
            (0,) * n)
    Q = coefficient_quiver(T, gamma)
    return coideal_generating_function(Q, B, shear_coordinates(T, gamma))


def bangle_lamination(T, L):
    B = signed_adjacency(T)
    out = LaurentPoly.one(len(B))
    for gamma, mult in L.entries:
        out = out * bangle(T, gamma, B) ** mult
    return out


def cc_prime(T, dec):
    """Dual Caldero-Chapoton function of a decorated module.

    x^g times the generating function of coideal counts (the Euler
    characteristics of the factor-module Grassmannians), multiplicative
    over direct summands.  A module that `decompose` cannot write as a
    sum of word modules with rational parameters is `UnsupportedModule`.
    """
    A = build_QT(T)
    B = signed_adjacency(T)
    n = A.n
    g = g_vector(A, dec)
    out = LaurentPoly.monomial(n, g, (0,) * n)
    if dec.module.dim() == 0:
        return out
    try:
        parts = decompose(A, dec.module)
    except DictionaryExhausted as exc:
        raise UnsupportedModule(str(exc)) from exc
    for w in parts:
        word = w[0] if isinstance(w, tuple) else w
        Q = word_coefficient_quiver(A, word)
        out = out * coideal_generating_function(Q, B)
    return out


def generic_decorated_module(T, L):
    """A generic point of eta(L): summands with pairwise distinct band
    parameters, plus the decoration from the arcs."""
    A = build_QT(T)
    return DecoratedModule(word_sum(A, lamination_words(T, L)),
                           _decoration(A.n, L))


def verify_bangle_equals_generic(T, L):
    """Compare the lamination bangle with the generic dual CC function.

    Returns (equal, lhs, rhs, first_diff)."""
    lhs = bangle_lamination(T, L)
    rhs = cc_prime(T, generic_decorated_module(T, L))
    if lhs == rhs:
        return True, lhs, rhs, None
    lt = dict(lhs.terms)
    rt = dict(rhs.terms)
    for k in sorted(set(lt) | set(rt), key=lambda k: (k[1], k[0])):
        if lt.get(k, 0) != rt.get(k, 0):
            return False, lhs, rhs, (k, lt.get(k, 0), rt.get(k, 0))
    return False, lhs, rhs, None
