"""Triangulated unpunctured marked surfaces and their curves.

A triangulation is given combinatorially: edge ids for the internal
arcs (1..n) and boundary segments, plus the triangles as triples of
edge ids in counterclockwise order (the orientation of the surface).
Corners of triangles are glued along shared internal arcs; the corner
classes are the marked points, all of which must lie on the boundary.

Curves are crossing sequences.  An open curve carries two endpoint
markers (boundary_segment, end) naming the marked point it starts and
ends at; a loop is a cyclic sequence.  Each consecutive pair of crossed
arcs travels through a triangle containing both; those triangles are
reconstructed by propagation (the two transitions at a crossing must
use the two different sides of the crossed arc).
"""

from dataclasses import dataclass, field

from .quiver import Quiver, is_jacobian, validate_gentle
from .strings import BandWord, StringWord, band_module, canonical_band, \
    canonical_string, rank_function_of, string_module, word_walk


class InvalidTriangulation(ValueError):
    pass


class InconsistentSequence(ValueError):
    pass


class NotLocallyMinimal(InconsistentSequence):
    pass


class NotOpenCurve(ValueError):
    pass


class InvalidLamination(ValueError):
    pass


class _UF:
    def __init__(self):
        self.p = {}

    def find(self, x):
        self.p.setdefault(x, x)
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, x, y):
        self.p[self.find(x)] = self.find(y)


@dataclass(frozen=True)
class Triangulation:
    internal_arcs: tuple
    boundary_segments: tuple
    triangles: tuple  # triples of edge ids, counterclockwise

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})
        self._validate()

    # -- combinatorial structure ------------------------------------------

    def _validate(self):
        arcs, bnds = set(self.internal_arcs), set(self.boundary_segments)
        if arcs & bnds:
            raise InvalidTriangulation("arc and boundary ids overlap")
        occ = {}
        for ti, tri in enumerate(self.triangles):
            if len(tri) != 3:
                raise InvalidTriangulation("triangles need three sides")
            for slot, e in enumerate(tri):
                if e not in arcs and e not in bnds:
                    raise InvalidTriangulation(f"unknown edge {e!r}")
                occ.setdefault(e, []).append((ti, slot))
        for a in arcs:
            if len(occ.get(a, [])) != 2:
                raise InvalidTriangulation(
                    f"internal arc {a!r} must lie in exactly two triangles")
        for b in bnds:
            if len(occ.get(b, [])) != 1:
                raise InvalidTriangulation(
                    f"boundary segment {b!r} must lie in exactly one triangle")
        self._cache["occ"] = occ
        # glue corners: corner (t, i) sits between slot i and slot i+1
        uf = _UF()
        for a in arcs:
            (t1, i1), (t2, i2) = occ[a]
            uf.union((t1, i1), (t2, (i2 - 1) % 3))
            uf.union((t1, (i1 - 1) % 3), (t2, i2))
        classes = {}
        for ti in range(len(self.triangles)):
            for i in range(3):
                classes.setdefault(uf.find((ti, i)), []).append((ti, i))
        marked = sorted(classes, key=lambda c: min(classes[c]))
        self._cache["corner_class"] = {c: uf.find(c) for cl in classes.values()
                                       for c in cl}
        self._cache["marked"] = marked
        V = len(marked)
        E = len(arcs) + len(bnds)
        F = len(self.triangles)
        chi = V - E + F
        bcomp = self._boundary_components()
        g2 = 2 - chi - bcomp
        if g2 < 0 or g2 % 2:
            raise InvalidTriangulation("gluing is not an oriented surface")
        g = g2 // 2
        if len(arcs) != 6 * g + 3 * bcomp + V - 6:
            raise InvalidTriangulation(
                "arc count violates 6g + 3b + |M| - 6")
        self._cache["genus"] = g
        self._cache["boundary_count"] = bcomp
        self._fans()

    def _boundary_components(self):
        """Count boundary cycles: segments chain via shared marked points."""
        start_of = {}
        for b in self.boundary_segments:
            t, i = self._cache["occ"][b][0]
            # induced orientation runs from corner (t, i-1) to corner (t, i)
            start_of[self._corner((t, (i - 1) % 3))] = b
        count = 0
        seen = set()
        for b in self.boundary_segments:
            if b in seen:
                continue
            count += 1
            cur = b
            while cur not in seen:
                seen.add(cur)
                t, i = self._cache["occ"][cur][0]
                cur = start_of[self._corner((t, i))]
        return count

    def _corner(self, c):
        return self._cache["corner_class"][c]

    def _fans(self):
        """Per marked point, the clockwise fan of edge ends.

        The fan runs from the boundary segment behind the point to the
        boundary segment ahead of it (induced orientation); consecutive
        fan edges cobound a triangle corner.
        """
        occ = self._cache["occ"]
        fans = {}
        for P in self._cache["marked"]:
            corners = [c for c, cls in self._cache["corner_class"].items()
                       if cls == P]
            # transition at corner (t,i): edge at slot i -> edge at slot i+1
            # keyed by edge ends so arcs with both endpoints here stay apart
            out_of = {}
            for (t, i) in corners:
                e_in = (t, i, "end")
                e_out = (t, (i + 1) % 3, "start")
                out_of[self._end_class(e_in)] = (
                    self._end_class(e_out), (t, i))
            in_deg = {v for v, _ in out_of.values()}
            starts = [k for k in out_of if k not in in_deg]
            if len(starts) != 1:
                raise InvalidTriangulation(
                    "marked point not on the boundary or fan is broken")
            chain = [starts[0]]
            tris = []
            while chain[-1] in out_of:
                nxt, corner = out_of[chain[-1]]
                tris.append(corner)
                chain.append(nxt)
            fans[P] = (chain, tris)
        self._cache["fan"] = fans

    def _end_class(self, end):
        """Canonical id of an edge end; internal arcs glue end<->start."""
        t, i, kind = end
        e = self.triangles[t][i]
        occ = self._cache["occ"][e]
        if len(occ) == 1:
            return (e, t, i, kind)
        (t1, i1), (t2, i2) = occ
        if (t, i) == (t1, i1):
            other = (e, t2, i2, "start" if kind == "end" else "end")
        else:
            other = (e, t1, i1, "start" if kind == "end" else "end")
        return min((e, t, i, kind), other)

    # -- public helpers -----------------------------------------------------

    @property
    def arcs(self):
        return self.internal_arcs

    def marked_points(self):
        return list(self._cache["marked"])

    def marked_of_marker(self, marker):
        """Marked point of an endpoint marker (boundary_segment, end)."""
        b, end = marker
        if b not in self.boundary_segments or end not in (0, 1):
            raise InconsistentSequence(f"bad endpoint marker {marker!r}")
        t, i = self._cache["occ"][b][0]
        return self._corner((t, i) if end == 1 else (t, (i - 1) % 3))

    def marker_of_marked(self, P):
        """Canonical marker of a marked point: its forward segment, end 0."""
        return (self.forward_segment(P), 0)

    def forward_segment(self, P):
        """Boundary segment leaving P in the induced orientation."""
        for b in self.boundary_segments:
            t, i = self._cache["occ"][b][0]
            if self._corner((t, (i - 1) % 3)) == P:
                return b
        raise InvalidTriangulation("no forward segment")

    def backward_segment(self, P):
        for b in self.boundary_segments:
            t, i = self._cache["occ"][b][0]
            if self._corner((t, i)) == P:
                return b
        raise InvalidTriangulation("no backward segment")

    def next_marked(self, P):
        b = self.forward_segment(P)
        t, i = self._cache["occ"][b][0]
        return self._corner((t, i))

    def prev_marked(self, P):
        b = self.backward_segment(P)
        t, i = self._cache["occ"][b][0]
        return self._corner((t, (i - 1) % 3))

    def fan(self, P):
        """(edges cw from backward to forward segment, corner per gap)."""
        chain, tris = self._cache["fan"][P]
        return [c[0] for c in chain], list(tris)

    def triangles_at_arc(self, a):
        return [t for t, _ in self._cache["occ"][a]]

    def endpoints_of_edge(self, e):
        (t, i) = self._cache["occ"][e][0]
        return {self._corner((t, i)), self._corner((t, (i - 1) % 3))}

    def arrow_between(self, ti, x, y):
        """Q_T arrow inside triangle ti between arcs x and y.

        Returns (arrow_id, source_arc, target_arc); in a ccw triple
        (e1, e2, e3) the arrows are e2->e1, e3->e2 and e1->e3.
        """
        tri = self.triangles[ti]
        for k in range(3):
            src, tgt = tri[(k + 1) % 3], tri[k]
            if {src, tgt} == {x, y}:
                return (f"t{ti}:{src}>{tgt}", src, tgt)
        raise InconsistentSequence(
            f"edges {x!r}, {y!r} not adjacent in triangle {ti}")


def build_QT(T):
    """The gentle Jacobian algebra of the triangulation, built on first
    use and kept in the triangulation's cache."""
    A = T._cache.get("algebra")
    if A is None:
        A = T._cache["algebra"] = _jacobian_algebra(T)
    return A


def _jacobian_algebra(T):
    arcs = T.internal_arcs
    n = len(arcs)
    vnum = {a: k + 1 for k, a in enumerate(sorted(arcs))}
    if sorted(arcs) != list(range(1, n + 1)):
        raise InvalidTriangulation("internal arcs must be labelled 1..n")
    arrows = []
    relations = []
    for ti, tri in enumerate(T.triangles):
        internal = [e for e in tri if e in set(arcs)]
        tri_arrows = []
        for k in range(3):
            tgt, src = tri[k], tri[(k + 1) % 3]
            if tgt in vnum and src in vnum:
                aid = f"t{ti}:{src}>{tgt}"
                arrows.append((aid, vnum[src], vnum[tgt]))
                tri_arrows.append((aid, src, tgt))
        if len(internal) == 3:
            for (a2, s2, t2) in tri_arrows:
                for (a1, s1, t1) in tri_arrows:
                    if t1 == s2:
                        relations.append((a2, a1))
    q = Quiver(n, tuple(arrows))
    A = validate_gentle(q, relations)
    if not is_jacobian(A):
        raise InvalidTriangulation("triangulation algebra failed Jacobian check")
    return A


@dataclass(frozen=True)
class CurveSeq:
    kind: str  # 'arc', 'open', 'loop'
    arc: int | None = None
    crossings: tuple = ()
    endpoints: tuple = ()  # two markers for open curves
    transitions: tuple = field(default=(), compare=False)

    def __str__(self):
        if self.kind == "arc":
            return f"arc:{self.arc}"
        seq = ",".join(str(c) for c in self.crossings)
        return f"{self.kind}:{seq}"


def validate_curve(T, kind, crossings=(), endpoints=(), arc=None):
    """Check local consistency and reconstruct the transition triangles.

    Cancels one immediate backtrack (tau, tau', tau crossing the same
    triangle twice) before giving up.
    """
    if kind == "arc":
        if arc not in set(T.internal_arcs):
            raise InconsistentSequence(f"unknown arc {arc!r}")
        return CurveSeq("arc", arc=arc)
    crossings = tuple(crossings)
    arcset = set(T.internal_arcs)
    for c in crossings:
        if c not in arcset:
            raise InconsistentSequence(f"unknown arc {c!r} in sequence")
    m = len(crossings)
    if kind == "loop":
        if m < 1:
            raise InconsistentSequence("loops must cross at least one arc")
        for i in range(m):
            if crossings[i] == crossings[(i + 1) % m] and m > 1:
                raise InconsistentSequence("equal consecutive arcs")
        if m == 1:
            raise InconsistentSequence(
                "a loop crossing a single arc once is contractible")
        try:
            trans = _assign_transitions(T, crossings, cyclic=True)
        except NotLocallyMinimal:
            red = _cancel_backtrack(T, crossings, cyclic=True)
            if red is None:
                raise
            return validate_curve(T, "loop", red)
        return CurveSeq("loop", crossings=crossings, transitions=tuple(trans))
    if kind != "open":
        raise InconsistentSequence(f"unknown curve kind {kind!r}")
    if len(endpoints) != 2:
        raise InconsistentSequence("open curves need two endpoint markers")
    pa = T.marked_of_marker(endpoints[0])
    pb = T.marked_of_marker(endpoints[1])
    for i in range(m - 1):
        if crossings[i] == crossings[i + 1]:
            raise InconsistentSequence("equal consecutive arcs")
    if m == 0:
        raise InconsistentSequence(
            "a crossing-free open curve is an arc of the triangulation "
            "or boundary-parallel; pass kind='arc'")
    try:
        trans = _assign_transitions(T, crossings, cyclic=False,
                                    pa=pa, pb=pb)
    except NotLocallyMinimal:
        red = _cancel_backtrack(T, crossings, cyclic=False)
        if red is None:
            raise
        return validate_curve(T, "open", red, endpoints)
    return CurveSeq("open", crossings=crossings, endpoints=tuple(endpoints),
                    transitions=tuple(trans))


def _other_side(T, arc, tri):
    ts = T.triangles_at_arc(arc)
    return ts[1] if ts[0] == tri else ts[0]


def _assign_transitions(T, crossings, cyclic, pa=None, pb=None):
    """Triangles of the transitions; open curves get m+1 of them
    (endpoint segments included), loops get m (cyclic)."""
    m = len(crossings)
    ntrans = m if cyclic else m + 1
    shared = []
    for i in range(m - 1 + (1 if cyclic else 0)):
        x, y = crossings[i], crossings[(i + 1) % m]
        cand = [t for t in T.triangles_at_arc(x)
                if y in T.triangles[t]]
        if not cand:
            raise InconsistentSequence(
                f"arcs {x!r}, {y!r} do not share a triangle")
        shared.append(cand)

    def propagate(first_choice):
        if cyclic:
            trans = [None] * m
            trans[0] = first_choice
            for i in range(1, m):
                trans[i] = _other_side(T, crossings[i], trans[i - 1])
                if crossings[(i + 1) % m] not in T.triangles[trans[i]]:
                    return None
            if trans[0] != _other_side(T, crossings[0], trans[m - 1]):
                return None
            return trans
        trans = [None] * (m + 1)
        trans[0] = first_choice
        for i in range(1, m + 1):
            trans[i] = _other_side(T, crossings[i - 1], trans[i - 1])
            if i < m and crossings[i] not in T.triangles[trans[i]]:
                return None
        # endpoint triangles must have the right corners
        if pa is not None and pa not in _corners_of(T, trans[0]):
            return None
        if pb is not None and pb not in _corners_of(T, trans[m]):
            return None
        return trans

    if cyclic:
        firsts = shared[0]
    else:
        # segment 0 runs from the start marked point across crossings[0]
        firsts = [t for t in T.triangles_at_arc(crossings[0])
                  if pa in _corners_of(T, t)]
    results = []
    for choice in firsts:
        r = propagate(choice)
        if r is not None:
            results.append(r)
    if not results:
        raise NotLocallyMinimal("no consistent triangle assignment")
    for r in results:
        ok = True
        for i, cand in enumerate(shared):
            idx = i if cyclic else i + 1
            if r[idx] not in cand:
                ok = False
        if ok:
            return r
    raise NotLocallyMinimal("no consistent triangle assignment")


def _corners_of(T, ti):
    return {T._corner((ti, i)) for i in range(3)}


def _cancel_backtrack(T, crossings, cyclic):
    m = len(crossings)
    rng = range(m) if cyclic else range(m - 2)
    for i in rng:
        a, b, c = (crossings[i], crossings[(i + 1) % m],
                   crossings[(i + 2) % m])
        if a == c and len([t for t in T.triangles_at_arc(a)
                           if b in T.triangles[t]]) == 1:
            keep = [crossings[k] for k in range(m)
                    if k not in (i % m, (i + 1) % m)]
            return tuple(keep)
    return None


# ---------------------------------------------------------------------------
# curve -> module dictionary


def _vnum(T):
    return {a: k + 1 for k, a in enumerate(sorted(T.internal_arcs))}


def _letters_of(T, crossings, transitions, cyclic):
    """Word letters from the transitions; the letter between crossings
    i and i+1 is direct iff the triangle arrow points backwards."""
    m = len(crossings)
    letters = []
    upto = m if cyclic else m - 1
    for i in range(upto):
        x, y = crossings[i], crossings[(i + 1) % m]
        aid, src, tgt = T.arrow_between(transitions[i], x, y)
        if src == y and tgt == x:
            letters.append((aid, False))
        elif src == x and tgt == y:
            letters.append((aid, True))
        else:
            raise InconsistentSequence("arrow lookup failed")
    return letters


def curve_to_module(T, gamma):
    """Negative-simple marker, StringWord, or BandWord of a curve."""
    if gamma.kind == "arc":
        return ("neg", _vnum(T)[gamma.arc])
    if gamma.kind == "open":
        if len(gamma.crossings) == 1:
            return StringWord((), _vnum(T)[gamma.crossings[0]])
        letters = _letters_of(T, gamma.crossings,
                              gamma.transitions[1:], cyclic=False)
        A = build_QT(T)
        return canonical_string(A, StringWord(tuple(letters)))
    letters = _letters_of(T, gamma.crossings, gamma.transitions, cyclic=True)
    A = build_QT(T)
    return canonical_band(A, BandWord(tuple(letters)))


@dataclass(frozen=True)
class CoefficientQuiver:
    labels: tuple  # vertex position -> Q_T vertex (crossed arc number)
    arrows: tuple  # (from_pos, to_pos, arrow_id), positions 1-based
    cyclic: bool


def coefficient_quiver(T, gamma):
    """Positions of the crossing sequence with the triangle arrows."""
    if gamma.kind == "arc":
        raise NotOpenCurve("arcs of the triangulation have no crossings")
    vnum = _vnum(T)
    crossings = gamma.crossings
    m = len(crossings)
    cyclic = gamma.kind == "loop"
    arrows = []
    upto = m if cyclic else m - 1
    trans = gamma.transitions if cyclic else gamma.transitions[1:]
    for i in range(upto):
        x, y = crossings[i], crossings[(i + 1) % m]
        aid, src, tgt = T.arrow_between(trans[i], x, y)
        if src == x:
            arrows.append((i + 1, (i + 1) % m + 1, aid))
        else:
            arrows.append(((i + 1) % m + 1, i + 1, aid))
    return CoefficientQuiver(tuple(vnum[c] for c in crossings),
                             tuple(arrows), cyclic)


# ---------------------------------------------------------------------------
# rotation (the AR translation on curves)


def _gap_index(T, P, tri, first_arc):
    """Fan corner at P through which the curve leaves into triangle tri."""
    edges, tris = T.fan(P)
    hits = [k for k, c in enumerate(tris) if c[0] == tri]
    if len(hits) == 1:
        return hits[0]
    for k in hits:
        flank = {edges[k], edges[k + 1]}
        if first_arc is not None and \
                first_arc in set(T.triangles[tri]) - flank:
            return k
    if hits:
        return hits[0]
    raise InconsistentSequence("curve does not leave its endpoint's fan")


def _arc_fan_positions(T, arc):
    """((P, fan index), (Q, fan index)) for the two ends of an arc."""
    out = []
    for P in sorted(T.endpoints_of_edge(arc), key=str):
        edges, _ = T.fan(P)
        for k in range(1, len(edges) - 1):
            if edges[k] == arc:
                out.append((P, k))
    if len(out) != 2:
        raise InconsistentSequence(f"arc {arc!r} has a broken fan")
    return out[0], out[1]


def _corner_between(T, tri, x, y):
    """Marked point at the corner of the triangle between edges x, y."""
    t = T.triangles[tri]
    for i in range(3):
        if {t[i], t[(i + 1) % 3]} == {x, y} and (t[i] == x or t[i] == y):
            return T._corner((tri, i))
    raise InconsistentSequence("edges are not adjacent in the triangle")


def _mk_open(T, crossings, transitions, pa, pb):
    """Open CurveSeq with explicitly known transition triangles."""
    assert len(transitions) == len(crossings) + 1
    for i, x in enumerate(crossings):
        assert x in T.triangles[transitions[i]], (crossings, transitions)
        assert x in T.triangles[transitions[i + 1]], (crossings, transitions)
    return CurveSeq("open", crossings=tuple(crossings),
                    endpoints=(T.marker_of_marked(pa), T.marker_of_marked(pb)),
                    transitions=tuple(transitions))


def rotate_tau(T, gamma, direction="forward"):
    """Move both endpoints one marked point along the boundary.

    Forward follows the induced orientation and realizes the AR
    translation on the module side; backward is its inverse.  Loops are
    fixed.  Arcs of the triangulation rotate to honest curves, and
    curves of projective modules collapse forward onto arcs.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    if gamma.kind == "loop":
        return gamma
    fwd = direction == "forward"

    def swept(P, stop_fwd, stop_bwd):
        """(arcs crossed at this end in curve order, transitions before
        each of them)."""
        edges, tris = T.fan(P)
        K = len(edges) - 1
        if fwd:
            ks = list(range(K - 1, stop_fwd, -1))
            return [edges[k] for k in ks], [tris[k][0] for k in ks]
        ks = list(range(1, stop_bwd))
        return [edges[k] for k in ks], [tris[k - 1][0] for k in ks]

    def moved(P):
        return T.next_marked(P) if fwd else T.prev_marked(P)

    if gamma.kind == "arc":
        (pa, posa), (pb, posb) = _arc_fan_positions(T, gamma.arc)
        tris_a, tris_b = T.fan(pa)[1], T.fan(pb)[1]
        pre, pre_tr = swept(pa, posa, posa)
        post, post_tr = swept(pb, posb, posb)
        gap_a = tris_a[posa if fwd else posa - 1][0]
        gap_b = tris_b[posb if fwd else posb - 1][0]
        crossings = pre + [gamma.arc] + list(reversed(post))
        trans = pre_tr + [gap_a, gap_b] + list(reversed(post_tr))
        return _mk_open(T, crossings, trans, moved(pa), moved(pb))
    if gamma.kind != "open":
        raise NotOpenCurve("only arcs and open curves rotate")
    pa = T.marked_of_marker(gamma.endpoints[0])
    pb = T.marked_of_marker(gamma.endpoints[1])
    ga = _gap_index(T, pa, gamma.transitions[0], gamma.crossings[0])
    gb = _gap_index(T, pb, gamma.transitions[-1], gamma.crossings[-1])
    pa2, pb2 = moved(pa), moved(pb)
    Ka = len(T.fan(pa)[0]) - 1
    Kb = len(T.fan(pb)[0]) - 1
    seq = list(gamma.crossings)
    otr = list(gamma.transitions)
    m = len(seq)
    lo, hi = 0, m
    front_removed = back_removed = None
    if (ga == Ka - 1) if fwd else (ga == 0):
        # slide around pa2: unhook crossings while the corner between
        # consecutive crossings stays at pa2
        front_removed = []
        if pa2 in T.endpoints_of_edge(seq[0]):
            front_removed.append(seq[0])
            lo = 1
            while lo < m and pa2 in T.endpoints_of_edge(seq[lo]) and \
                    _corner_between(T, otr[lo], seq[lo - 1], seq[lo]) == pa2:
                front_removed.append(seq[lo])
                lo += 1
        pre, pre_tr = [], []
    else:
        pre, pre_tr = swept(pa, ga, ga + 1)
    if (gb == Kb - 1) if fwd else (gb == 0):
        back_removed = []
        if hi > lo and pb2 in T.endpoints_of_edge(seq[hi - 1]):
            back_removed.append(seq[hi - 1])
            hi -= 1
            while hi > lo and pb2 in T.endpoints_of_edge(seq[hi - 1]) and \
                    _corner_between(T, otr[hi], seq[hi - 1],
                                    seq[hi]) == pb2:
                back_removed.append(seq[hi - 1])
                hi -= 1
        post, post_tr = [], []
    else:
        post, post_tr = swept(pb, gb, gb + 1)
    kept = pre + seq[lo:hi] + list(reversed(post))
    if not kept:
        if front_removed:
            cand = front_removed[-1]
        elif back_removed:
            cand = back_removed[-1]
        else:
            raise InconsistentSequence("rotation collapsed unexpectedly")
        want = {pa2, pb2} if pa2 != pb2 else {pa2}
        if T.endpoints_of_edge(cand) != want:
            others = sorted(a for a in T.internal_arcs
                            if T.endpoints_of_edge(a) == want)
            if not others:
                raise InconsistentSequence(
                    "rotation collapsed onto the boundary")
            cand = others[0]
        return CurveSeq("arc", arc=cand)
    # transitions of the kept middle: otr[lo..hi] inclusive
    trans = pre_tr + otr[lo:hi + 1] + list(reversed(post_tr))
    return _mk_open(T, kept, trans, pa2, pb2)


# ---------------------------------------------------------------------------
# shear coordinates


def _extended_data(T, gamma):
    """(items, tri_between, prev_edge, next_edge, cyclic) for the curve
    after the half rotation of its endpoints.

    For open curves and arcs, tri_between[i] is the triangle travelled
    before item i (and tri_between[M] the one after the last item); the
    sentinel neighbours of the outermost items are the forward boundary
    segments of the endpoints.
    """
    if gamma.kind == "loop":
        items = list(gamma.crossings)
        m = len(items)
        prev_e = [items[(k - 1) % m] for k in range(m)]
        next_e = [items[(k + 1) % m] for k in range(m)]
        tb = list(gamma.transitions)  # tb[i] between item i and item i+1
        tri_before = [tb[(k - 1) % m] for k in range(m)]
        tri_after = [tb[k] for k in range(m)]
        return items, tri_before, tri_after, prev_e, next_e

    def head(P, stop):
        """Swept arcs at an end, with the triangle before each; the fan
        corner below each swept edge carries the following triangle."""
        edges, tris = T.fan(P)
        K = len(edges) - 1
        arcs = [edges[k] for k in range(K - 1, stop, -1)]
        before = [tris[k][0] for k in range(K - 1, stop, -1)]
        return arcs, before

    if gamma.kind == "arc":
        (pa, posa), (pb, posb) = _arc_fan_positions(T, gamma.arc)
        tris_a, tris_b = T.fan(pa)[1], T.fan(pb)[1]
        arcs_a, before_a = head(pa, posa)
        arcs_b, before_b = head(pb, posb)
        items = arcs_a + [gamma.arc] + list(reversed(arcs_b))
        tri_between = before_a + [tris_a[posa][0]] + \
            [tris_b[posb][0]] + list(reversed(before_b))
        sa, sb = T.forward_segment(pa), T.forward_segment(pb)
    else:
        pa = T.marked_of_marker(gamma.endpoints[0])
        pb = T.marked_of_marker(gamma.endpoints[1])
        ga = _gap_index(T, pa, gamma.transitions[0], gamma.crossings[0])
        gb = _gap_index(T, pb, gamma.transitions[-1], gamma.crossings[-1])
        arcs_a, before_a = head(pa, ga)
        arcs_b, before_b = head(pb, gb)
        items = arcs_a + list(gamma.crossings) + list(reversed(arcs_b))
        tri_between = before_a + list(gamma.transitions) + \
            list(reversed(before_b))
        sa, sb = T.forward_segment(pa), T.forward_segment(pb)
    m = len(items)
    prev_e = [sa if k == 0 else items[k - 1] for k in range(m)]
    next_e = [sb if k == m - 1 else items[k + 1] for k in range(m)]
    tri_before = [tri_between[k] for k in range(m)]
    tri_after = [tri_between[k + 1] for k in range(m)]
    return items, tri_before, tri_after, prev_e, next_e


def _follows_ccw(T, tri, x, e):
    t = T.triangles[tri]
    i = t.index(x)
    return t[(i + 1) % 3] == e


def shear_coordinates(T, gamma):
    """Signed crossing counts against the triangulation.

    Each crossing of an arc sits in the quadrilateral of its two
    triangles; the sign is +1 when both neighbouring edges follow the
    crossed arc counterclockwise in their triangles, -1 when both
    precede it, 0 otherwise.
    """
    vnum = _vnum(T)
    n = len(T.internal_arcs)
    items, tri_before, tri_after, prev_e, next_e = _extended_data(T, gamma)
    s = [0] * n
    for k, x in enumerate(items):
        fp = _follows_ccw(T, tri_before[k], x, prev_e[k])
        fn = _follows_ccw(T, tri_after[k], x, next_e[k])
        if fp and fn:
            s[vnum[x] - 1] += 1
        elif not fp and not fn:
            s[vnum[x] - 1] -= 1
    return tuple(s)


def shear_of_lamination(T, L):
    n = len(T.internal_arcs)
    total = [0] * n
    for gamma, mult in L.entries:
        sv = shear_coordinates(T, gamma)
        total = [a + mult * b for a, b in zip(total, sv)]
    return tuple(total)


# ---------------------------------------------------------------------------
# intersection-zero test, laminations, eta


def curve_module_rep(T, A, gamma, lam=2):
    w = curve_to_module(T, gamma)
    if isinstance(w, tuple) and w[0] == "neg":
        return None
    if isinstance(w, BandWord):
        return band_module(A, w, lam)
    return string_module(A, w)


def int_zero(T, gamma, delta, algebra=None):
    """Whether the two curves can be made disjoint.

    Negative-simple cases reduce to dimension vanishing; everything
    else goes through the vanishing of Hom(M, tau N) in both orders,
    with distinct band parameters for equal loops.
    """
    from .homological import hom_dim_oracle, tau_dtr
    A = algebra or build_QT(T)
    if gamma.kind == "arc" and delta.kind == "arc":
        return True
    if gamma.kind == "arc" or delta.kind == "arc":
        arc, other = (gamma, delta) if gamma.kind == "arc" else (delta, gamma)
        return arc.arc not in set(other.crossings)
    M = curve_module_rep(T, A, gamma, lam=2)
    same_loop = (gamma.kind == "loop" and delta.kind == "loop" and
                 _same_loop(T, A, gamma, delta))
    N = curve_module_rep(T, A, delta, lam=3 if same_loop else 2)
    if gamma.kind == "open" and delta.kind == "open" and \
            gamma.crossings == delta.crossings and \
            gamma.endpoints == delta.endpoints:
        N = M
    tauM = tau_dtr(A, M)
    tauN = tau_dtr(A, N)
    return hom_dim_oracle(A, M, tauN) == 0 and hom_dim_oracle(A, N, tauM) == 0


def _same_loop(T, A, gamma, delta):
    wg = curve_to_module(T, gamma)
    wd = curve_to_module(T, delta)
    return canonical_band(A, wg) == canonical_band(A, wd)


@dataclass(frozen=True)
class Lamination:
    entries: tuple  # of (CurveSeq, multiplicity)


def make_lamination(T, entries, algebra=None):
    """Canonicalize, merge duplicates and check pairwise disjointness."""
    A = algebra or build_QT(T)
    merged = {}
    for gamma, mult in entries:
        if mult < 1:
            raise InvalidLamination("multiplicities must be positive")
        key = _curve_key(T, A, gamma)
        if key in merged:
            merged[key] = (merged[key][0], merged[key][1] + mult)
        else:
            merged[key] = (gamma, mult)
    curves = [g for g, _ in merged.values()]
    for i, g in enumerate(curves):
        for h in curves[i:]:
            if not int_zero(T, g, h, algebra=A):
                raise InvalidLamination(
                    f"curves {g} and {h} intersect")
    entries = tuple(sorted(merged.values(), key=lambda e: str(e[0])))
    return Lamination(entries)


def _curve_key(T, A, gamma):
    if gamma.kind == "arc":
        return ("arc", gamma.arc)
    w = curve_to_module(T, gamma)
    if isinstance(w, BandWord):
        return ("loop", str(canonical_band(A, w)))
    return ("open", str(w), tuple(sorted(
        (T.marked_of_marker(e) for e in gamma.endpoints), key=str)))


def eta(T, L, algebra=None):
    """The generically tau-reduced decorated component of a lamination."""
    from .schemes import Component, DecoratedComponent, components, \
        is_tau_reduced
    A = algebra or build_QT(T)
    n = A.n
    v = [0] * n
    d = [0] * n
    r = {aid: 0 for aid in A.arrow_ids}
    for gamma, mult in L.entries:
        if gamma.kind == "arc":
            v[_vnum(T)[gamma.arc] - 1] += mult
            continue
        M = curve_module_rep(T, A, gamma)
        rf = rank_function_of(A, M)
        for i in range(n):
            d[i] += mult * M.dims[i]
        for aid in A.arrow_ids:
            r[aid] += mult * rf[aid]
    if sum(d[i] * v[i] for i in range(n)):
        raise InvalidLamination(
            "decoration and dimension vector are not orthogonal")
    target = tuple(sorted(r.items()))
    for Z in components(A, tuple(d)):
        if Z.r == target:
            if not is_tau_reduced(A, Z):
                raise InvalidLamination(
                    "lamination produced a non-tau-reduced component")
            return DecoratedComponent(Z, tuple(v))
    raise InvalidLamination("summed rank function is not maximal")


# ---------------------------------------------------------------------------
# module -> curve (inverse dictionary)


def arrow_triangle(aid):
    """Triangle index encoded in a Q_T arrow id."""
    return int(aid[1:aid.index(":")])


def string_to_curve(T, A, C):
    """The open curve of a string module, via the opposite-corner rule."""
    arcs = sorted(T.internal_arcs)
    crossings = [arcs[v - 1] for v in word_walk(A, C)[0]]
    mids = [arrow_triangle(c[0]) for c in C.letters]
    if mids:
        t0 = _other_side(T, crossings[0], mids[0])
        tm = _other_side(T, crossings[-1], mids[-1])
    else:
        t0, tm = T.triangles_at_arc(crossings[0])
    pa = _opposite_corner(T, t0, crossings[0])
    pb = _opposite_corner(T, tm, crossings[-1])
    return CurveSeq("open", crossings=tuple(crossings),
                    endpoints=(T.marker_of_marked(pa), T.marker_of_marked(pb)),
                    transitions=tuple([t0] + mids + [tm]))


def band_to_curve(T, A, B):
    arcs = sorted(T.internal_arcs)
    crossings = [arcs[v - 1] for v in word_walk(A, B)[0]]
    trans = [arrow_triangle(c[0]) for c in B.letters]
    return CurveSeq("loop", crossings=tuple(crossings),
                    transitions=tuple(trans))


def _opposite_corner(T, tri, edge):
    t = T.triangles[tri]
    i = t.index(edge)
    # corner between slots i+1 and i+2 is not on the edge at slot i
    return T._corner((tri, (i + 1) % 3))
