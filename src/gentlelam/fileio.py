"""JSON file formats for algebras, modules, triangulations, laminations."""

import json
from fractions import Fraction

from .errors import InputError
from .quiver import Quiver, validate_gentle
from .strings import make_rep
from .surface import Triangulation, make_lamination, validate_curve


class ParseError(InputError):
    pass


def _need(obj, key, where):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseError(str(exc)) from exc


def algebra_from_dict(data):
    n = _need(data, "vertices", "algebra")
    arrows = []
    for a in _need(data, "arrows", "algebra"):
        arrows.append((str(_need(a, "id", "arrow")),
                       int(_need(a, "from", "arrow")),
                       int(_need(a, "to", "arrow"))))
    rels = [(str(a), str(b)) for a, b in data.get("relations", [])]
    return validate_gentle(Quiver(int(n), tuple(arrows)), rels)


def algebra_to_dict(A):
    return {
        "vertices": A.n,
        "arrows": [{"id": aid, "from": s, "to": t}
                   for aid, s, t in A.quiver.arrows],
        "relations": [[a, b] for a, b in sorted(A.relations)],
    }


def load_algebra(path):
    return algebra_from_dict(load_json(path))


def module_from_dict(A, data):
    dims = [int(x) for x in _need(data, "dims", "module")]
    mats = {}
    for aid, rows in _need(data, "matrices", "module").items():
        if aid not in set(A.arrow_ids):
            raise ParseError(f"module: unknown arrow {aid!r}")
        ds, dt = dims[A.s(aid) - 1], dims[A.t(aid) - 1]
        if ds == 0 or dt == 0:
            mats[aid] = [[0] * ds for _ in range(dt)]
            continue
        mats[aid] = [[Fraction(str(x)) for x in row] for row in rows]
    return make_rep(A, dims, mats)


def load_module(A, path):
    return module_from_dict(A, load_json(path))


def _edge_id(x):
    return int(x) if isinstance(x, int) or (isinstance(x, str) and
                                            x.lstrip("-").isdigit()) else str(x)


def triangulation_from_dict(data):
    arcs = tuple(_edge_id(x) for x in _need(data, "internal_arcs", "surface"))
    bnds = tuple(_edge_id(x) for x in _need(data, "boundary_segments",
                                            "surface"))
    tris = tuple(tuple(_edge_id(e) for e in t)
                 for t in _need(data, "triangles", "surface"))
    return Triangulation(arcs, bnds, tris)


def load_triangulation(path):
    return triangulation_from_dict(load_json(path))


def curve_from_dict(T, data):
    kind = _need(data, "kind", "curve")
    if kind == "arc":
        return validate_curve(T, "arc", arc=_edge_id(_need(data, "arc",
                                                           "curve")))
    crossings = tuple(_edge_id(x) for x in _need(data, "crossings", "curve"))
    if kind == "loop":
        return validate_curve(T, "loop", crossings)
    if kind == "open":
        eps = _need(data, "endpoints", "curve")
        endpoints = tuple((_edge_id(b), int(e)) for b, e in eps)
        return validate_curve(T, "open", crossings, endpoints)
    raise ParseError(f"unknown curve kind {kind!r}")


def curve_to_dict(gamma):
    if gamma.kind == "arc":
        return {"kind": "arc", "arc": gamma.arc}
    out = {"kind": gamma.kind, "crossings": list(gamma.crossings)}
    if gamma.kind == "open":
        out["endpoints"] = [list(e) for e in gamma.endpoints]
    return out


def parse_curve_text(T, text):
    """'arc:3', 'loop:3,6,1', or a JSON object for open curves."""
    text = text.strip()
    if text.startswith("{"):
        return curve_from_dict(T, json.loads(text))
    kind, _, rest = text.partition(":")
    if kind == "arc":
        return validate_curve(T, "arc", arc=_edge_id(rest.strip()))
    if kind == "loop":
        seq = tuple(_edge_id(x.strip()) for x in rest.split(","))
        return validate_curve(T, "loop", seq)
    raise ParseError("curve text must be 'arc:J', 'loop:j1,j2,...' or JSON")


def lamination_from_file(T, path, algebra=None):
    data = load_json(path)
    entries = []
    for item in data:
        gamma = curve_from_dict(T, _need(item, "curve", "lamination entry"))
        entries.append((gamma, int(item.get("mult", 1))))
    return make_lamination(T, entries, algebra=algebra)
