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
    if key not in _object(obj, where):
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def _object(value, where):
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected a JSON object, got {value!r}")
    return value


def _list(value, where):
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a JSON list, got {value!r}")
    return value


def _sized(value, size, where):
    if len(_list(value, where)) != size:
        raise ParseError(f"{where}: expected {size} entries, got {value!r}")
    return value


def _int(value, where):
    """A JSON integer as it is: a float (1.0 included), a string or a
    boolean is no integer."""
    if type(value) is not int:
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseError(str(exc)) from exc


def algebra_from_dict(data):
    n = _int(_need(data, "vertices", "algebra"), "algebra vertices")
    arrows = []
    for a in _list(_need(data, "arrows", "algebra"), "algebra arrows"):
        arrows.append((str(_need(a, "id", "arrow")),
                       _int(_need(a, "from", "arrow"), "arrow from"),
                       _int(_need(a, "to", "arrow"), "arrow to")))
    rels = [tuple(map(str, _sized(r, 2, "relation")))
            for r in _list(data.get("relations", []), "algebra relations")]
    return validate_gentle(Quiver(n, tuple(arrows)), rels)


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
    dims = [_int(x, "module dims") for x in _sized(
        _need(data, "dims", "module"), A.n, "module dims")]
    if any(x < 0 for x in dims):
        raise ParseError(f"module dims: negative entry in {dims}")
    mats = {}
    for aid, rows in _object(_need(data, "matrices", "module"),
                             "module matrices").items():
        if aid not in set(A.arrow_ids):
            raise ParseError(f"module: unknown arrow {aid!r}")
        ds, dt = dims[A.s(aid) - 1], dims[A.t(aid) - 1]
        where = f"module: matrix of {aid!r}"
        rows = [_list(row, where) for row in _list(rows, where)]
        if ds == 0 or dt == 0:
            if any(rows):
                raise ParseError(f"{where}: a map at a zero space has no "
                                 f"entries, got {rows!r}")
            rows = [[] for _ in range(dt)]
        mats[aid] = [[Fraction(str(x)) for x in row] for row in rows]
    return make_rep(A, dims, mats)


def load_module(A, path):
    return module_from_dict(A, load_json(path))


def _edge_id(x):
    """An edge id: a JSON integer, or a string (read as the integer it
    spells, if it spells one); a boolean or a float is neither."""
    if type(x) is int:
        return x
    if not isinstance(x, str):
        raise ParseError(f"edge id: expected an integer or a string, "
                         f"got {x!r}")
    return int(x) if x.lstrip("-").isdigit() else x


def triangulation_from_dict(data):
    arcs, bnds = (tuple(map(_edge_id, _list(_need(data, k, "surface"), k)))
                  for k in ("internal_arcs", "boundary_segments"))
    tris = tuple(tuple(map(_edge_id, _list(t, "triangle"))) for t in _list(
        _need(data, "triangles", "surface"), "triangles"))
    return Triangulation(arcs, bnds, tris)


def load_triangulation(path):
    return triangulation_from_dict(load_json(path))


def curve_from_dict(T, data):
    kind = _need(data, "kind", "curve")
    if kind == "arc":
        return validate_curve(T, "arc", arc=_edge_id(_need(data, "arc",
                                                           "curve")))
    crossings = tuple(_edge_id(x) for x in _list(
        _need(data, "crossings", "curve"), "curve crossings"))
    if kind == "loop":
        return validate_curve(T, "loop", crossings)
    if kind == "open":
        eps = _list(_need(data, "endpoints", "curve"), "curve endpoints")
        endpoints = tuple((_edge_id(b), _int(e, "endpoint end"))
                          for b, e in (_sized(x, 2, "endpoint") for x in eps))
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


def lamination_from_file(T, path):
    entries = []
    for item in _list(load_json(path), "lamination"):
        gamma = curve_from_dict(T, _need(item, "curve", "lamination entry"))
        entries.append((gamma, _int(item.get("mult", 1), "lamination mult")))
    return make_lamination(T, entries)
