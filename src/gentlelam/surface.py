"""Triangulated unpunctured marked surfaces and their curves.

A triangulation is given combinatorially: edge ids for the internal
arcs (1..n) and boundary segments, plus the triangles as triples of
edge ids in counterclockwise order (the orientation of the surface).
Triangle corners are the one surface primitive.  Corner (t, i) turns
from the side at slot i of triangle t to the side at slot i+1; corners
are glued along shared internal arcs, their classes are the marked
points, all of which must lie on the boundary, and the fan of a marked
point walks its corners from one boundary segment to the next.  The
arrows of Q_T are the corners between two internal arcs, in one table
(`_corner_arrows`) that names them, spells the word of each curve and
gives each letter's triangle back.

Curves are crossing sequences.  An open curve carries two endpoint
markers (boundary_segment, end) naming the marked point it starts and
ends at; a loop is a cyclic sequence, an open curve whose ends are
glued, and each rule on curves is written once for the open kind and
read around the cycle for a loop.  Each consecutive pair of crossed
arcs travels through a triangle containing both; those triangles are
reconstructed by one walk (`_assign_transitions`) that crosses each arc
into the triangle on its other side, and a loop's walk must close up.
An open curve must be in minimal position: it leaves each endpoint
through the side opposite it in its end triangle, so each endpoint is
the corner opposite its end crossing, and any other endpoint is an input
error (`NotLocallyMinimal`).  Rotation and shear read each end of a
curve off that corner; shear reads a loop's ends as each other's
neighbours (`_extended_data`).  Whether two curves can be made disjoint
is read off the pair of their words.
"""

from dataclasses import dataclass, field

from .errors import InputError, InternalError
from .quiver import Quiver, _UF, _kept, is_jacobian, validate_gentle
from .schemes import DecoratedComponent, _word_pair, components, \
    is_tau_reduced
from .strings import BandWord, StringWord, _g_of_shape, canonical_band, \
    canonical_string, hom_dim, word_shape, word_walk


class InvalidTriangulation(InputError):
    pass


class InconsistentSequence(InputError):
    pass


class NotLocallyMinimal(InconsistentSequence):
    pass


class NotOpenCurve(InputError):
    pass


class InvalidLamination(InputError):
    pass


@dataclass(frozen=True)
class Triangulation:
    """Internal arcs 1..n (arc j is vertex j of `build_QT`), boundary
    segments and counterclockwise triangles, checked when built: a gluing
    with no triangle, in more than one piece, or with a marked point off
    the boundary is `InvalidTriangulation`."""
    internal_arcs: tuple
    boundary_segments: tuple
    triangles: tuple  # triples of edge ids, counterclockwise

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})
        self._validate()

    # -- combinatorial structure ------------------------------------------

    def _validate(self):
        n = len(self.internal_arcs)
        if any(type(a) is not int for a in self.internal_arcs) or \
                sorted(self.internal_arcs) != list(range(1, n + 1)):
            raise InvalidTriangulation(
                f"internal arcs must be the integers 1..{n}, got "
                f"{self.internal_arcs!r}")
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
        pieces = _UF()
        for a in arcs:
            (t1, _), (t2, _) = occ[a]
            pieces.union(t1, t2)
        if len({pieces.find(t) for t in range(len(self.triangles))}) != 1:
            raise InvalidTriangulation(
                "the triangles must form one piece through the internal arcs")
        # glue corners: corner (t, i) turns from the side at slot i to
        # the side at slot i+1, and across an internal arc the next corner
        # at its marked point is the one at the arc's other occurrence
        uf, after = _UF(), {}
        for a in arcs:
            (t1, i1), (t2, i2) = occ[a]
            uf.union((t1, i1), (t2, (i2 - 1) % 3))
            uf.union((t1, (i1 - 1) % 3), (t2, i2))
            after[(t1, (i1 - 1) % 3)] = (t2, i2)
            after[(t2, (i2 - 1) % 3)] = (t1, i1)
        classes = {}
        for ti in range(len(self.triangles)):
            for i in range(3):
                classes.setdefault(uf.find((ti, i)), []).append((ti, i))
        marked = sorted(classes, key=lambda c: min(classes[c]))
        self._cache["corner_class"] = {c: uf.find(c) for cl in classes.values()
                                       for c in cl}
        self._cache["marked"] = marked
        self._fans(classes, after)
        # the boundary cycles are the cycles of next_marked
        cycles = _UF()
        for P in marked:
            cycles.union(P, self.next_marked(P))
        bcomp = len({cycles.find(P) for P in marked})
        # one fan per marked point runs from a boundary segment to the
        # next, so #segments = |M|; then 3F = 2n + |M| and
        # chi = 2 - 2g - b give n = 6g + 3b + |M| - 6, which thus needs
        # no check of its own
        chi = len(marked) - len(arcs) - len(bnds) + len(self.triangles)
        g2 = 2 - chi - bcomp
        if g2 < 0 or g2 % 2:
            raise InvalidTriangulation("gluing is not an oriented surface")
        self._cache["genus"] = g2 // 2
        self._cache["boundary_count"] = bcomp

    def _corner(self, c):
        return self._cache["corner_class"][c]

    def _fans(self, classes, after):
        """Per marked point, the clockwise fan: (the edges its corners
        turn across, its corners in turn).

        A fan walks corners: it starts at the one corner whose slot-i side
        is a boundary segment (the segment behind the point in the
        induced orientation), goes on to the next corner (`after`) while
        there is one, and ends at the segment ahead of the point.
        """
        fans = {}
        for P, corners in classes.items():
            tris = [(t, i) for t, i in corners
                    if self.triangles[t][i] in self.boundary_segments]
            if len(tris) != 1:
                raise InvalidTriangulation(
                    "marked point not on the boundary or fan is broken")
            while tris[-1] in after:
                tris.append(after[tris[-1]])
            t, i = tris[-1]
            fans[P] = (tuple(self.triangles[c][k] for c, k in tris) +
                       (self.triangles[t][(i + 1) % 3],), tuple(tris))
        self._cache["fan"] = fans

    # -- public helpers -----------------------------------------------------

    def marked_points(self):
        return list(self._cache["marked"])

    def marked_of_marker(self, marker):
        """Marked point of an endpoint marker (boundary_segment, end):
        a pair of a boundary segment and the int 0 or 1."""
        try:
            b, end = marker
        except (TypeError, ValueError):
            b = end = None
        if type(end) is not int or end not in (0, 1) or \
                b not in self.boundary_segments:
            raise InconsistentSequence(f"bad endpoint marker {marker!r}")
        t, i = self._cache["occ"][b][0]
        return self._corner((t, i) if end == 1 else (t, (i - 1) % 3))

    def marker_of_marked(self, P):
        """Canonical marker of a marked point: its forward segment, end 0."""
        return (self.forward_segment(P), 0)

    def forward_segment(self, P):
        """Boundary segment leaving P in the induced orientation."""
        return self._cache["fan"][P][0][-1]

    def backward_segment(self, P):
        return self._cache["fan"][P][0][0]

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
        return self._cache["fan"][P]

    def triangles_at_arc(self, a):
        return [t for t, _ in self._cache["occ"][a]]


def _corner_arrows(T):
    """{(triangle, source arc, target arc): arrow id}, built once and
    kept on T: in a ccw triple (e1, e2, e3) the corners between internal
    arcs give e2->e1, e3->e2 and e1->e3, in that order."""
    def build():
        arcs = set(T.internal_arcs)
        return {(ti, tri[(k + 1) % 3], tri[k]):
                f"t{ti}:{tri[(k + 1) % 3]}>{tri[k]}"
                for ti, tri in enumerate(T.triangles) for k in range(3)
                if tri[k] in arcs and tri[(k + 1) % 3] in arcs}
    return _kept(T, "_corner_arrows", build)


def build_QT(T):
    """The gentle Jacobian algebra of the triangulation, built on first
    use and kept on the triangulation object."""
    return _kept(T, "_algebra", lambda: _jacobian_algebra(T))


def _jacobian_algebra(T):
    """Q_T: the arrows of `_corner_arrows`, and the relation ba for each
    two arrows a: x -> y and b: y -> z at corners of one triangle (whose
    sides are then all internal arcs)."""
    table = _corner_arrows(T)
    arrows = [(aid, x, y) for (_, x, y), aid in table.items()]
    relations = [(table[t, y, z], a) for (t, _, y), a in table.items()
                 for z in T.triangles[t] if (t, y, z) in table]
    q = Quiver(len(T.internal_arcs), tuple(arrows))
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
    triangle twice) before giving up.  Each endpoint of an open curve
    must be the corner opposite its end crossing in its end triangle.
    Loops and open curves share one path; a loop is read around its cycle.
    """
    n = len(T.internal_arcs)
    if kind == "arc":
        if type(arc) is not int or not 1 <= arc <= n:
            raise InconsistentSequence(f"unknown arc {arc!r}")
        return CurveSeq("arc", arc=arc)
    crossings = tuple(crossings)
    for c in crossings:
        if type(c) is not int or not 1 <= c <= n:
            raise InconsistentSequence(f"unknown arc {c!r} in sequence")
    m = len(crossings)
    cyclic = kind == "loop"
    if cyclic:
        if m < 1:
            raise InconsistentSequence("loops must cross at least one arc")
        if m == 1:
            raise InconsistentSequence(
                "a loop crossing a single arc once is contractible")
        endpoints = ()
    elif kind != "open":
        raise InconsistentSequence(f"unknown curve kind {kind!r}")
    elif len(endpoints) != 2:
        raise InconsistentSequence("open curves need two endpoint markers")
    ends = tuple(T.marked_of_marker(e) for e in endpoints)
    if m == 0:  # an open curve: a loop crosses at least two arcs
        raise InconsistentSequence(
            "a crossing-free open curve is an arc of the triangulation "
            "or boundary-parallel; pass kind='arc'")
    for i in range(m if cyclic else m - 1):
        if crossings[i] == crossings[(i + 1) % m]:
            raise InconsistentSequence("equal consecutive arcs")
    try:
        trans = _assign_transitions(T, crossings, cyclic, *ends)
    except NotLocallyMinimal:
        red = _cancel_backtrack(T, crossings, cyclic)
        if red is None:
            raise
        return validate_curve(T, kind, red, endpoints)
    return CurveSeq(kind, crossings=crossings, endpoints=tuple(endpoints),
                    transitions=tuple(trans))


def _other_side(T, arc, tri):
    ts = T.triangles_at_arc(arc)
    return ts[1] if ts[0] == tri else ts[0]


def _assign_transitions(T, crossings, cyclic, pa=None, pb=None):
    """Triangles of the transitions, by one walk from a triangle before
    the first crossing across each arc in turn.  Open curves start and
    end at pa and pb and get m+1 of them (endpoint segments included);
    loops must close up and get the m after each crossing (cyclic)."""
    m = len(crossings)
    for i in range(m if cyclic else m - 1):
        x, y = crossings[i], crossings[(i + 1) % m]
        if not any(y in T.triangles[t] for t in T.triangles_at_arc(x)):
            raise InconsistentSequence(
                f"arcs {x!r}, {y!r} do not share a triangle")
    ts = T.triangles_at_arc(crossings[0])
    # a loop tries the two sides of its first arc last one first, so that
    # the triangles after it come in the order of `triangles_at_arc`
    firsts = ts[::-1] if cyclic else \
        [t for t in ts if T._corner(_end_corner(T, t, crossings[0])) == pa]
    for first in firsts:
        trans = [first]
        for i, x in enumerate(crossings):
            trans.append(_other_side(T, x, trans[-1]))
            if i + 1 < m and crossings[i + 1] not in T.triangles[trans[-1]]:
                break
        else:
            if cyclic and trans[m] == first:
                return trans[1:]
            if not cyclic and \
                    T._corner(_end_corner(T, trans[m], crossings[-1])) == pb:
                return trans
    if cyclic:
        raise NotLocallyMinimal("no consistent triangle assignment")
    raise NotLocallyMinimal(
        "no consistent triangle assignment: an open curve in minimal "
        "position leaves each endpoint through the side opposite it in its "
        "end triangle")


def _cancel_backtrack(T, crossings, cyclic):
    m = len(crossings)
    for i in range(m if cyclic else m - 2):
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


def _letters_of(T, gamma):
    """The letters of an open curve or a loop, one per transition between
    two crossings: a curve that goes from crossing x to crossing y
    through triangle t turns at the corner of t between them, and its
    letter is that corner's arrow (`_corner_arrows`), direct when it runs
    y -> x and inverse when it runs x -> y."""
    arrows = _corner_arrows(T)
    crossings, m = gamma.crossings, len(gamma.crossings)
    cyclic = gamma.kind == "loop"
    transitions = gamma.transitions if cyclic else gamma.transitions[1:]
    letters = []
    for i in range(m if cyclic else m - 1):
        t, x, y = transitions[i], crossings[i], crossings[(i + 1) % m]
        key = (t, y, x) if (t, y, x) in arrows else (t, x, y)
        if key not in arrows:
            raise InconsistentSequence(
                f"edges {x!r}, {y!r} not adjacent in triangle {t}")
        letters.append((arrows[key], key[1] == x))
    return tuple(letters)


def _curve_word(T, gamma):
    """The word of an open curve or a loop, its letters (`_letters_of`)
    in crossing order, not canonicalized."""
    if gamma.kind == "loop":
        return BandWord(_letters_of(T, gamma))
    if len(gamma.crossings) == 1:
        return StringWord((), gamma.crossings[0])
    return StringWord(_letters_of(T, gamma))


def curve_to_module(T, gamma):
    """Negative-simple marker, StringWord, or BandWord of a curve."""
    if gamma.kind == "arc":
        return ("neg", gamma.arc)
    w = _curve_word(T, gamma)
    if isinstance(w, BandWord):
        return canonical_band(build_QT(T), w)
    return canonical_string(build_QT(T), w)


@dataclass(frozen=True)
class CoefficientQuiver:
    labels: tuple  # vertex position -> Q_T vertex (crossed arc number)
    arrows: tuple  # (from_pos, to_pos, arrow_id), positions 1-based
    cyclic: bool


def word_coefficient_quiver(A, w):
    """Coefficient quiver of a string or band module from its word: the
    basis vectors of `word_walk` and an arrow per step, positions 1-based."""
    verts, steps = word_walk(A, w)
    return CoefficientQuiver(tuple(verts),
                             tuple((p + 1, q + 1, aid) for aid, p, q in steps),
                             isinstance(w, BandWord))


def coefficient_quiver(T, gamma):
    """The coefficient quiver of the curve's word in crossing order
    (`_curve_word`): position i is the i-th crossing, and the arrow of the
    corner travelled between two crossings joins their positions."""
    if gamma.kind == "arc":
        raise NotOpenCurve("arcs of the triangulation have no crossings")
    return word_coefficient_quiver(build_QT(T), _curve_word(T, gamma))


# ---------------------------------------------------------------------------
# rotation (the AR translation on curves)


def _end_corner(T, tri, edge):
    """The corner of triangle tri opposite its side `edge`: where a curve
    in minimal position that crosses `edge` out of tri ends."""
    # corner (tri, k) sits between slots k and k+1
    return (tri, (T.triangles[tri].index(edge) + 1) % 3)


def _fan_place(T, corner):
    """(marked point, index in its fan) of a triangle corner."""
    P = T._corner(corner)
    return P, T.fan(P)[1].index(corner)


def _arc_fan_positions(T, arc):
    """((P, fan index), (Q, fan index)) for the two ends of an arc: the
    fan corner after the arc at each end, one per occurrence of the arc
    in a triangle, ordered by the marked point's `str`, then fan index."""
    return sorted((_fan_place(T, c) for c in T._cache["occ"][arc]),
                  key=lambda place: (str(place[0]), place[1]))


def _mk_open(T, crossings, transitions, pa, pb):
    """Open CurveSeq with explicitly known transition triangles, one on
    each side of every crossing, that ends at pa and pb."""
    if len(transitions) != len(crossings) + 1:
        raise InternalError(
            f"{len(transitions)} transitions for {len(crossings)} crossings")
    for i, x in enumerate(crossings):
        if x not in T.triangles[transitions[i]] or \
                x not in T.triangles[transitions[i + 1]]:
            raise InternalError(
                f"transitions {tuple(transitions)} miss crossing {x!r} of "
                f"{tuple(crossings)}")
    ends = (T._corner(_end_corner(T, transitions[0], crossings[0])),
            T._corner(_end_corner(T, transitions[-1], crossings[-1])))
    if ends != (pa, pb):
        raise InternalError(
            f"curve {tuple(crossings)} ends at {ends}, not at {(pa, pb)}")
    return CurveSeq("open", crossings=tuple(crossings),
                    endpoints=(T.marker_of_marked(pa), T.marker_of_marked(pb)),
                    transitions=tuple(transitions))


def _fan_sweep(T, P, gap, fwd):
    """The arcs of P's fan that a curve leaving P through the fan corner
    `gap` comes to cross when its endpoint moves one marked point
    forward (fwd) or backward, in curve order from the new endpoint, and
    the triangle travelled before each.  Forward they are the arcs
    between the gap and the forward segment; backward, those between the
    backward segment and the gap."""
    edges, tris = T.fan(P)
    if fwd:
        ks = range(len(edges) - 2, gap, -1)
        return [edges[k] for k in ks], [tris[k][0] for k in ks]
    ks = range(1, gap + 1)
    return [edges[k] for k in ks], [tris[k - 1][0] for k in ks]


def _swept_arc(T, arc, fwd):
    """(crossings, transitions, pa, pb): the curve that an arc with
    endpoints pa and pb becomes when both move one marked point forward
    (fwd) or backward.  It leaves each endpoint through the fan corner
    beside the arc on the side it moves to."""
    (pa, posa), (pb, posb) = _arc_fan_positions(T, arc)
    ga, gb = (posa, posb) if fwd else (posa - 1, posb - 1)
    pre, pre_tr = _fan_sweep(T, pa, ga, fwd)
    post, post_tr = _fan_sweep(T, pb, gb, fwd)
    gaps = [T.fan(pa)[1][ga][0], T.fan(pb)[1][gb][0]]
    return (pre + [arc] + post[::-1], pre_tr + gaps + post_tr[::-1],
            pa, pb)


def rotate_tau(T, gamma, direction="forward"):
    """Move both endpoints one marked point along the boundary.

    Forward follows the induced orientation and realizes the AR
    translation on the module side; backward is its inverse.  Loops are
    fixed.  Arcs of the triangulation rotate to honest curves, and
    curves of projective modules collapse forward onto arcs.  Each
    endpoint of an open curve is moved as the start of the curve or of
    the reversed curve, by one routine (`end`), which reads the
    endpoint's fan place off the corner opposite the end crossing.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    if gamma.kind == "loop":
        return gamma
    fwd = direction == "forward"
    step = T.next_marked if fwd else T.prev_marked
    if gamma.kind == "arc":
        crossings, trans, pa, pb = _swept_arc(T, gamma.arc, fwd)
        return _mk_open(T, crossings, trans, step(pa), step(pb))
    if gamma.kind != "open":
        raise NotOpenCurve("only arcs and open curves rotate")

    def end(seq, tr):
        """Move the start of the curve with crossings `seq` and
        transitions `tr`: (arcs swept in front of seq, the triangle
        before each, the number of crossings unhooked from the front of
        seq, the new endpoint)."""
        P, gap = _fan_place(T, _end_corner(T, tr[0], seq[0]))
        P2 = step(P)
        if gap != (len(T.fan(P)[0]) - 2 if fwd else 0):
            return (*_fan_sweep(T, P, gap, fwd), 0, P2)
        # the curve leaves P beside the segment to P2, which begins P2's
        # fan read away from P: the curve crosses that fan's next edge
        # first, and it unhooks crossings while the next fan edge is the
        # next crossing (the fan ends at a boundary segment)
        edges = T.fan(P2)[0] if fwd else T.fan(P2)[0][::-1]
        n = 0
        while n < len(seq) and edges[n + 1] == seq[n]:
            n += 1
        return [], [], n, P2

    seq, otr = gamma.crossings, gamma.transitions
    m = len(seq)
    pre, pre_tr, lo, pa2 = end(seq, otr)
    post, post_tr, cut, pb2 = end(seq[::-1], otr[::-1])
    hi = m - cut
    # an end that unhooks sweeps nothing, so when the two ends together
    # unhook all of seq, nothing is kept and seq collapses onto the one
    # crossing that both walks unhooked
    kept = pre + list(seq[lo:hi]) + post[::-1]
    if not kept:
        if lo + cut != m + 1:
            raise InternalError(
                f"rotating {gamma} unhooked {lo} and {cut} of {m} crossings")
        return CurveSeq("arc", arc=seq[lo - 1])
    # transitions of the kept middle: otr[lo..hi] inclusive
    trans = pre_tr + list(otr[lo:hi + 1]) + post_tr[::-1]
    return _mk_open(T, kept, trans, pa2, pb2)


# ---------------------------------------------------------------------------
# shear coordinates


def _extended_data(T, gamma):
    """(items, tri_before, tri_after, prev_edge, next_edge) for the curve
    after the half rotation of its endpoints: per item, the triangles
    travelled before and after it and its neighbouring edges.

    For open curves and arcs the sentinel neighbours of the outermost
    items are the forward boundary segments of the endpoints; a loop's
    are its cyclic ones, and it starts with its closing triangle.
    """
    # tri_between[i] is the triangle travelled before item i, and its
    # last entry the one after the last item
    if gamma.kind == "loop":
        items = list(gamma.crossings)
        tri_between = [gamma.transitions[-1], *gamma.transitions]
        sa, sb = items[-1], items[0]
    else:
        if gamma.kind == "arc":
            items, tri_between, pa, pb = _swept_arc(T, gamma.arc, True)
        else:
            pa, ga = _fan_place(T, _end_corner(T, gamma.transitions[0],
                                               gamma.crossings[0]))
            pb, gb = _fan_place(T, _end_corner(T, gamma.transitions[-1],
                                               gamma.crossings[-1]))
            arcs_a, before_a = _fan_sweep(T, pa, ga, True)
            arcs_b, before_b = _fan_sweep(T, pb, gb, True)
            items = arcs_a + list(gamma.crossings) + arcs_b[::-1]
            tri_between = before_a + list(gamma.transitions) + \
                before_b[::-1]
        sa, sb = T.forward_segment(pa), T.forward_segment(pb)
    return (items, tri_between[:-1], tri_between[1:], [sa] + items[:-1],
            items[1:] + [sb])


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
    n = len(T.internal_arcs)
    items, tri_before, tri_after, prev_e, next_e = _extended_data(T, gamma)
    s = [0] * n
    for k, x in enumerate(items):
        fp = _follows_ccw(T, tri_before[k], x, prev_e[k])
        fn = _follows_ccw(T, tri_after[k], x, next_e[k])
        if fp and fn:
            s[x - 1] += 1
        elif not fp and not fn:
            s[x - 1] -= 1
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


def int_zero(T, gamma, delta):
    """Whether the two curves can be made disjoint.

    An arc of the triangulation meets exactly the curves that cross it.
    Two other curves are disjoint exactly when Hom(M, tau N) and
    Hom(N, tau M) vanish for their modules M and N, and by the
    E-invariant dim Hom(M, tau N) = dim Hom(N, M) + g(N) . dim M.  It
    reads Hom(M, N) and Hom(N, M) off the pair values of the two words
    (`schemes._word_pair`, which gives two copies of one loop distinct
    band parameters) and their g-vectors, in closed form, off the words'
    shapes (`strings._g_of_shape` of `word_shape`).
    """
    if gamma.kind == "arc" and delta.kind == "arc":
        return True
    if gamma.kind == "arc" or delta.kind == "arc":
        arc, other = (gamma, delta) if gamma.kind == "arc" else (delta, gamma)
        return arc.arc not in set(other.crossings)
    A = build_QT(T)
    v, w = curve_to_module(T, gamma), curve_to_module(T, delta)
    mn, nm = _word_pair(A, hom_dim, v, w), _word_pair(A, hom_dim, w, v)
    (gm, dm), (gn, dn) = ((_g_of_shape(A, *shape), shape[0])
                          for shape in (word_shape(A, v), word_shape(A, w)))
    return (nm + sum(g * d for g, d in zip(gn, dm)) == 0
            and mn + sum(g * d for g, d in zip(gm, dn)) == 0)


@dataclass(frozen=True)
class Lamination:
    entries: tuple  # of (CurveSeq, multiplicity)


def make_lamination(T, entries):
    """Canonicalize, merge duplicates and check pairwise disjointness."""
    A = build_QT(T)
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
            if not int_zero(T, g, h):
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


def lamination_words(T, L):
    """The words of the string and band curves of a lamination, each as
    often as its multiplicity: the word multiset of the generic module of
    eta(T, L), whose decoration holds the arcs."""
    return [w for gamma, mult in L.entries if gamma.kind != "arc"
            for w in [curve_to_module(T, gamma)] * mult]


def eta(T, L):
    """The generically tau-reduced decorated component of a lamination."""
    A = build_QT(T)
    n = A.n
    v = [0] * n
    d = [0] * n
    r = {aid: 0 for aid in A.arrow_ids}
    for gamma, mult in L.entries:
        if gamma.kind == "arc":
            v[gamma.arc - 1] += mult
    for w in lamination_words(T, L):
        dims, ranks = word_shape(A, w)
        for i in range(n):
            d[i] += dims[i]
        for aid in A.arrow_ids:
            r[aid] += ranks[aid]
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


def _letter_triangles(T, w):
    """The triangle of each letter of w: the one whose corner holds the
    letter's arrow (`_corner_arrows`)."""
    at = {aid: t for (t, _, _), aid in _corner_arrows(T).items()}
    return [at[aid] for aid, _ in w.letters]


def string_to_curve(T, A, C):
    """The open curve of a string module, via the opposite-corner rule."""
    crossings = word_walk(A, C)[0]
    mids = _letter_triangles(T, C)
    if mids:
        t0 = _other_side(T, crossings[0], mids[0])
        tm = _other_side(T, crossings[-1], mids[-1])
    else:
        t0, tm = T.triangles_at_arc(crossings[0])
    pa = T._corner(_end_corner(T, t0, crossings[0]))
    pb = T._corner(_end_corner(T, tm, crossings[-1]))
    return CurveSeq("open", crossings=tuple(crossings),
                    endpoints=(T.marker_of_marked(pa), T.marker_of_marked(pb)),
                    transitions=tuple([t0] + mids + [tm]))


def band_to_curve(T, A, B):
    crossings = word_walk(A, B)[0]
    trans = _letter_triangles(T, B)
    return CurveSeq("loop", crossings=tuple(crossings),
                    transitions=tuple(trans))
