"""Command-line interface.

Exit codes (see `errors`): 0 for success and mathematically "true"
verdicts, 1 for mathematically "false" verdicts, 2 for input errors,
3 for internal errors (an internal bound exhausted, Python's recursion
limit among them, or an oracle disagreement).
"""

import argparse
import functools
import json
import sys

from . import fileio
from .errors import FalseVerdict, InputError, InternalError
from .laurent import bangle, verify_bangle_equals_generic
from .quiver import NotGentle, _jacobian_obstruction, is_jacobian, \
    rho_blocks
from .schemes import block_critical_summands, canonical_decomposition, \
    ceh_by_words, component_dim, components, critical_relation_pairs, \
    decorated_g_vector, dim_gl, is_generically_reduced, is_smooth_point, \
    is_tau_reduced, tangent_dim
from .strings import rank_function_of
from .surface import build_QT, eta, shear_of_lamination


def _emit(args, payload, human_lines):
    if args.format == "json":
        text = json.dumps(payload, indent=2, default=str)
    else:
        text = "\n".join(human_lines)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"--output: {exc}") from exc
    else:
        print(text)


def cmd_check(args):
    try:
        A = fileio.load_algebra(args.input)
    except NotGentle as exc:
        _emit(args, {"gentle": False, "reason": str(exc)},
              [f"not gentle: {exc}"])
        return 1
    why = _jacobian_obstruction(A)
    blocks = rho_blocks(A)
    payload = {
        "gentle": True,
        "jacobian": why is None,
        "blocks": [{"id": b.block_id, "type": b.type_name,
                    "arrows": list(b.arrows), "vertices": list(b.vertices)}
                   for b in blocks],
    }
    sizes = ",".join(str(len(b.vertices)) for b in blocks if b.arrows)
    verdict = "gentle Jacobian"
    if why is not None:
        payload["not_jacobian_reason"] = why
        verdict = f"gentle; not Jacobian ({why})"
    _emit(args, payload, [f"{verdict}; blocks: {sizes}"] +
          [f"  block {b.block_id}: {b.type_name} arrows={list(b.arrows)}"
           for b in blocks])
    return 0


def cmd_components(args):
    A = fileio.load_algebra(args.input)
    d = tuple(int(x) for x in args.dims.split(","))
    if len(d) != A.n:
        raise fileio.ParseError("--dims length must match the vertex count")
    jac = is_jacobian(A)
    comps = components(A, d)
    out = []
    lines = [f"mod(A, {list(d)}): {len(comps)} component(s); "
             f"dim GL = {dim_gl(d)}"]
    for Z in comps:
        dz = component_dim(A, Z)
        c, e, h = ceh_by_words(A, Z)
        critical = [list(p) for p in critical_relation_pairs(A, d, Z.rank())]
        entry = {
            "rank_function": dict(Z.r),
            "dim": dz,
            "band_only": dz == dim_gl(d),
            "generically_reduced": is_generically_reduced(A, Z),
            # the generic point is smooth iff no relation pair is critical
            # at the maximal rank function; those pairs describe where the
            # singular locus of the ambient scheme meets this component
            "generic_smooth": not critical,
            "singular_relation_pairs": critical,
            "c": c, "e": e, "h": h,
        }
        if jac:
            entry["tau_reduced"] = is_tau_reduced(A, Z)
        entry["decomposition"] = [
            {"type": k, "word": str(w)}
            for k, w in canonical_decomposition(A, Z, seed=args.seed)]
        out.append(entry)
        lines.append(f"  r={dict(Z.r)} dim={dz} ceh=({c},{e},{h})"
                     + (f" tau_reduced={entry['tau_reduced']}" if jac else "")
                     + f" gen_reduced={entry['generically_reduced']}")
    _emit(args, {"d": list(d), "dim_gl": dim_gl(d), "components": out}, lines)
    return 0


def cmd_smooth(args):
    A = fileio.load_algebra(args.input)
    M = fileio.load_module(A, args.module)
    smooth = is_smooth_point(A, M)
    payload = {
        "smooth": smooth,
        "tangent_dim": tangent_dim(A, M),
        "rank_function": rank_function_of(A, M),
    }
    _emit(args, payload,
          [("smooth" if smooth else "singular") +
           f" (tangent dimension {payload['tangent_dim']})"])
    return 0 if smooth else 1


def cmd_bangle(args):
    T = fileio.load_triangulation(args.input)
    gamma = fileio.parse_curve_text(T, args.curve)
    poly = bangle(T, gamma)
    _emit(args, {"curve": fileio.curve_to_dict(gamma),
                 "terms": poly.to_json()}, [str(poly)])
    return 0


def cmd_shear(args):
    T = fileio.load_triangulation(args.input)
    L = fileio.lamination_from_file(T, args.lamination)
    s = shear_of_lamination(T, L)
    _emit(args, {"shear": list(s)}, [str(list(s))])
    return 0


def cmd_eta(args):
    T = fileio.load_triangulation(args.input)
    A = build_QT(T)
    L = fileio.lamination_from_file(T, args.lamination)
    DZ = eta(T, L)
    g = decorated_g_vector(A, DZ)
    crit = block_critical_summands(A, DZ.component)
    payload = {
        "d": list(DZ.component.d),
        "rank_function": dict(DZ.component.r),
        "decoration": list(DZ.v),
        "dim": component_dim(A, DZ.component),
        "tau_reduced": not crit,
        "g_vector": list(g),
    }
    _emit(args, payload,
          [f"component d={payload['d']} v={payload['decoration']} "
           f"dim={payload['dim']} g={payload['g_vector']}"])
    return 0


def cmd_verify(args):
    T = fileio.load_triangulation(args.input)
    L = fileio.lamination_from_file(T, args.lamination)
    equal, lhs, rhs, diff = verify_bangle_equals_generic(T, L)
    payload = {"equal": equal, "bangle": lhs.to_json(),
               "generic_cc": rhs.to_json()}
    lines = ["EQUAL" if equal else "UNEQUAL"]
    if diff:
        payload["first_diff"] = {"monomial": [list(diff[0][0]),
                                              list(diff[0][1])],
                                 "bangle": diff[1], "generic_cc": diff[2]}
        lines.append(f"first differing term: {diff}")
    _emit(args, payload, lines)
    return 0 if equal else 1


@functools.cache
def _parser():
    """The argparse tree of `main`, built once per process."""
    ap = argparse.ArgumentParser(
        prog="gentlelam",
        description="Gentle algebras: module scheme components, surface "
                    "laminations, bangle functions")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True,
                       help="input file (algebra or triangulation JSON)")
        p.add_argument("--format", choices=("human", "json"),
                       default="human")
        p.add_argument("--output", help="write the report to a file")

    p = sub.add_parser("check", help="gentle/Jacobian verdict and blocks")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("components", help="components of mod(A, d)")
    common(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the generic point the decomposition splits")
    p.add_argument("--dims", required=True, help="comma-separated d")
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("smooth", help="smoothness of a module point")
    common(p)
    p.add_argument("--module", required=True, help="module JSON file")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("bangle", help="Laurent expansion of a curve")
    common(p)
    p.add_argument("--curve", required=True,
                   help="'arc:J', 'loop:j1,j2,...' or a JSON curve object")
    p.set_defaults(func=cmd_bangle)

    p = sub.add_parser("shear", help="shear coordinates of a lamination")
    common(p)
    p.add_argument("--lamination", required=True)
    p.set_defaults(func=cmd_shear)

    p = sub.add_parser("eta", help="tau-reduced component of a lamination")
    common(p)
    p.add_argument("--lamination", required=True)
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("verify",
                       help="bangle vs generic dual CC function")
    common(p)
    p.add_argument("--lamination", required=True)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except FalseVerdict as exc:
        print(f"false: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # InputError, or a malformed value
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalError, AssertionError, RecursionError) as exc:
        print(f"internal error ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
