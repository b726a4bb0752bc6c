"""Quivers, gentle presentations and their rho-block decomposition.

Vertices are 1..n.  A relation (a, b) stands for the length-2 path a∘b
(b first, then a).  Relations always stay inside a single rho-block;
for gentle algebras each block is isomorphic, via a relabelling that is
bijective on arrows, to one of the model algebras C_m (linear quiver,
all length-2 paths zero) or C~_m (cyclic quiver, all length-2 paths
zero).  One union-find, `_UF`, answers every connectivity question: of
a quiver, a triangulation and the support of a representation.
"""

from dataclasses import dataclass

from .errors import InputError, InternalError


class NotGentle(InputError):
    pass


class NonComposableRelation(NotGentle):
    pass


class UnclassifiableBlock(InternalError):
    pass


class InvalidDimensionVector(InputError):
    pass


def _dimension_vector(A, d):
    """d as a tuple, checked to hold one nonnegative integer per vertex of
    A (a bool or an integral float is no integer, as in `fileio._int`):
    the one check of `make_rep`, the word dictionary and the schemes."""
    d = tuple(d)
    if len(d) == A.n and all(type(x) is int and x >= 0 for x in d):
        return d
    bad = (f"has {len(d)} entries for {A.n} vertices" if len(d) != A.n
           else "holds a non-integer" if any(type(x) is not int for x in d)
           else "holds a negative entry")
    raise InvalidDimensionVector(f"dimension vector {d} {bad}")


class _UF:
    """Union-find over hashable items, each its own class until joined:
    `find` returns the root of x's class with path halving, and
    `union(x, y)` hangs the root of x's class under the root of y's."""

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


def _kept(obj, name, build):
    """The value of `build()` kept on the frozen object `obj` under
    `name`, built on first use, so derived data lives and dies with the
    object it describes and is never shared with an equal one."""
    try:
        return obj.__dict__[name]
    except KeyError:
        value = build()
        object.__setattr__(obj, name, value)
        return value


def _algebra_memo(A, name):
    """The dict named `name` kept on the algebra object (empty at first
    use), so a memo lives and dies with the algebra it describes."""
    return _kept(A, name, dict)


def _check_arrow_id(aid):
    """Word text (`strings.parse_word`) writes an inverse letter as `id-`,
    joins letters with `,`, strips each one and writes a trivial string
    as `1@v`; so that each text names one word, an arrow id is a
    non-empty str that holds no `,`, does not end in `-`, does not start
    with `1@` and has no surrounding whitespace."""
    if not isinstance(aid, str) or not aid:
        raise ValueError(f"arrow id {aid!r} is not a non-empty string")
    if "," in aid or aid.endswith("-") or aid.startswith("1@") or \
            aid != aid.strip():
        raise ValueError(f"arrow id {aid!r} holds ',', ends in '-', starts "
                         f"with '1@' or has surrounding whitespace")


@dataclass(frozen=True)
class Quiver:
    n_vertices: int
    arrows: tuple  # of (arrow_id, source, target)

    def __post_init__(self):
        if self.n_vertices < 0:
            raise ValueError(f"vertex count {self.n_vertices} is negative")
        # (source, target) per arrow, so `source` and `target` are one
        # dict lookup; the algebras over this quiver share it
        ends = {}
        for aid, s, t in self.arrows:
            _check_arrow_id(aid)
            if aid in ends:
                raise ValueError(f"duplicate arrow id {aid!r}")
            if not (1 <= s <= self.n_vertices and 1 <= t <= self.n_vertices):
                raise ValueError(f"arrow {aid!r} endpoints out of range")
            ends[aid] = (s, t)
        object.__setattr__(self, "_arrow_ids", tuple(a[0] for a in self.arrows))
        object.__setattr__(self, "_ends", ends)

    @property
    def arrow_ids(self):
        """The arrow ids in the order of `arrows`, as one tuple built at
        construction."""
        return self._arrow_ids

    def source(self, aid):
        return self._ends[aid][0]

    def target(self, aid):
        return self._ends[aid][1]

    def arrows_from(self, v):
        return [aid for aid, s, t in self.arrows if s == v]

    def arrows_into(self, v):
        return [aid for aid, s, t in self.arrows if t == v]

    def is_connected(self):
        uf = _UF()
        for _, s, t in self.arrows:
            uf.union(s, t)
        return len({uf.find(v) for v in range(1, self.n_vertices + 1)}) <= 1


@dataclass(frozen=True)
class GentleAlgebra:
    """kQ/I: a quiver and the length-2 relations, checked against the
    gentle axioms by `validate_gentle`, which builds it."""
    quiver: Quiver
    relations: frozenset  # of (a, b): path a∘b in the ideal

    def __post_init__(self):
        # the quiver's (source, target) per arrow, so `s` and `t` are one
        # dict lookup
        object.__setattr__(self, "_ends", self.quiver._ends)

    @property
    def n(self):
        return self.quiver.n_vertices

    def s(self, aid):
        return self._ends[aid][0]

    def t(self, aid):
        return self._ends[aid][1]

    @property
    def arrow_ids(self):
        return self.quiver.arrow_ids


def validate_gentle(quiver, relations):
    """Check the gentle axioms and return the algebra.

    Raises NotGentle / NonComposableRelation with the failing axiom and
    location in the message.
    """
    ids = set(quiver.arrow_ids)
    for a, b in relations:
        if a not in ids or b not in ids:
            raise NonComposableRelation(f"relation ({a},{b}) uses unknown arrows")
        if quiver.source(a) != quiver.target(b):
            raise NonComposableRelation(
                f"relation ({a},{b}) is not a composable length-2 path")
    rel = frozenset((a, b) for a, b in relations)
    for v in range(1, quiver.n_vertices + 1):
        outs = quiver.arrows_from(v)
        ins = quiver.arrows_into(v)
        if len(outs) > 2:
            raise NotGentle(f"axiom (i) fails: {len(outs)} arrows start at vertex {v}")
        if len(ins) > 2:
            raise NotGentle(f"axiom (i) fails: {len(ins)} arrows end at vertex {v}")
        # (iii): two arrows a != b ending at v, any c starting at v
        if len(ins) == 2:
            a, b = ins
            for c in outs:
                hits = ((c, a) in rel) + ((c, b) in rel)
                if hits != 1:
                    raise NotGentle(
                        f"axiom (iii) fails at vertex {v} for arrow {c!r}")
        # (iv): two arrows a != b starting at v, any c ending at v
        if len(outs) == 2:
            a, b = outs
            for c in ins:
                hits = ((a, c) in rel) + ((b, c) in rel)
                if hits != 1:
                    raise NotGentle(
                        f"axiom (iv) fails at vertex {v} for arrow {c!r}")
    if not _finite_dimensional(quiver, rel):
        raise NotGentle("the ideal is not admissible (a cycle avoids all relations)")
    return GentleAlgebra(quiver=quiver, relations=rel)


def _finite_dimensional(quiver, rel):
    """No cyclic path may avoid the relations (admissibility of the ideal)."""
    # graph on arrows: a -> c when c∘a is a permitted path
    nxt = {a: [] for a in quiver.arrow_ids}
    for a in quiver.arrow_ids:
        for c in quiver.arrows_from(quiver.target(a)):
            if (c, a) not in rel:
                nxt[a].append(c)
    color = {a: 0 for a in quiver.arrow_ids}

    def has_cycle(a):
        color[a] = 1
        for c in nxt[a]:
            if color[c] == 1:
                return True
            if color[c] == 0 and has_cycle(c):
                return True
        color[a] = 2
        return False

    return not any(color[a] == 0 and has_cycle(a) for a in quiver.arrow_ids)


def is_jacobian(algebra):
    """Connected, loop-free, and every relation closes up to a 3-cycle.

    Decided once and kept on the algebra object, like `rho_blocks`."""
    return _kept(algebra, "_is_jacobian", lambda: _is_jacobian(algebra))


def _is_jacobian(algebra):
    return _jacobian_obstruction(algebra) is None


def _jacobian_obstruction(algebra):
    """Why the algebra is not Jacobian, or None when it is: "loop at v"
    for the first loop in arrow order, else "disconnected", else
    "relation without completing 3-cycle"."""
    q = algebra.quiver
    rel = algebra.relations
    for _, s, t in q.arrows:
        if s == t:
            return f"loop at {s}"
    if not q.is_connected():
        return "disconnected"
    for a, b in rel:
        if not any(q.target(c) == q.source(b) and (b, c) in rel
                   and (c, a) in rel for c in q.arrows_from(q.target(a))):
            return "relation without completing 3-cycle"
    return None


@dataclass(frozen=True)
class RhoBlock:
    block_id: int
    arrows: tuple  # parent arrow ids in chain order (empty for 1-blocks)
    vertices: tuple  # parent vertices covered
    block_type: str  # 'C' or 'Ct'
    model_size: int  # the m of C_m / C~_m
    relabel: tuple  # model vertex i (1-based) -> parent vertex relabel[i-1]

    @property
    def type_name(self):
        return f"{'C~' if self.block_type == 'Ct' else 'C'}{self.model_size}"


def rho_blocks(algebra):
    """Partition the arrows into relation chains, typed as C_m or C~_m.

    Within a block the arrows form a chain a_1, a_2, ... with
    a_{i+1}∘a_i in the ideal; a cyclic chain of length m has type C~_m,
    an open chain of m-1 arrows has type C_m.  Arrowless vertices give
    1-blocks (type C_1).  The blocks are built once and kept on the
    algebra object as a tuple.
    """
    return _kept(algebra, "_rho_blocks",
                 lambda: tuple(_rho_blocks(algebra)))


def _rho_blocks(algebra):
    q = algebra.quiver
    succ = {}  # a -> b with b∘a in ideal
    pred = {}
    for b, a in algebra.relations:
        if a in succ or b in pred:
            raise UnclassifiableBlock("relation chain branches; input not gentle")
        succ[a] = b
        pred[b] = a
    blocks = []
    seen = set()
    for start in q.arrow_ids:
        if start in seen:
            continue
        # succ and pred are injective (no chain branches, checked above),
        # so the rewind ends at the chain start or comes back to `start`
        a = start
        while a in pred and pred[a] != start:
            a = pred[a]
        chain = [a]
        while chain[-1] in succ and succ[chain[-1]] != a:
            chain.append(succ[chain[-1]])
        closed = chain[-1] in succ
        if closed:  # canonical rotation for determinism
            k = chain.index(min(chain))
            chain = chain[k:] + chain[:k]
        seen.update(chain)
        relabel = [q.source(c) for c in chain]
        if not closed:
            relabel.append(q.target(chain[-1]))
        blocks.append(RhoBlock(len(blocks) + 1, tuple(chain),
                               tuple(sorted(set(relabel))),
                               "Ct" if closed else "C", len(relabel),
                               tuple(relabel)))
    used = {v for b in blocks for v in b.vertices}
    for v in range(1, q.n_vertices + 1):
        if v not in used:
            blocks.append(RhoBlock(len(blocks) + 1, (), (v,), "C", 1, (v,)))
    return blocks


def transport_dimvec(block, d):
    """Pull a dimension vector of the parent algebra back to the model."""
    if len(d) < block.vertices[-1]:  # the largest vertex of relabel
        raise ValueError("dimension vector too short for this algebra")
    return tuple([d[v - 1] for v in block.relabel])
