"""Span tracer for the gentlelam library, installed from outside it.

`Tracer.install()` replaces every module attribute of the `gentlelam`
package that holds a public library function with a timing wrapper.
That covers the names a module defines and the names it imports at top
level (`homological.rref`, `schemes.hom_dim_oracle`, ...), so a call is
traced whichever namespace it goes through.  Private helpers, methods
and the letter-level leaves in `LEAVES` stay unwrapped; their time is
self time of the nearest traced caller.

Each call becomes a span (name, start, end, parent, op).  Spans are kept
in compact arrays and written out by `write_spans` when the run ends.
Self time (span minus its child spans) and the counters in `COUNTERS`
are accumulated as calls return.
"""

import functools
import gzip
import importlib
import pkgutil
import time
import types
from array import array

# Called tens of millions of times per run from the word enumerators;
# a span each would dwarf the work they do.
LEAVES = frozenset({
    "strings.letter", "strings.letter_inv", "strings.letter_s",
    "strings.letter_t", "strings.pair_ok",
})

ENUMERATORS = ("strings.enumerate_strings", "strings.enumerate_bands")


def _rref_cells(args, kwargs, result):
    mat = args[0] if args else kwargs["mat"]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    return {"cells": len(mat) * ncols}


def _sparse_nnz(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    return {"nnz": sum(len(r) for r in rows)}


def _words(args, kwargs, result):
    return {"words": len(result)}


def _coideals(args, kwargs, result):
    Q = args[0] if args else kwargs["Q"]
    return {"subsets": 1 << len(Q.labels), "coideals": len(result)}


# span name -> function of (args, kwargs, result) giving counter increments
COUNTERS = {
    "exactlinalg.rref": _rref_cells,
    "exactlinalg.sparse_rank": _sparse_nnz,
    "strings.enumerate_strings": _words,
    "strings.enumerate_bands": _words,
    "laurent.order_coideals": _coideals,
}


class Tracer:
    def __init__(self):
        self.op = 0  # identifier shared by the spans of one op
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.names = []
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self._stack = []
        self._next_id = 0
        self._patched = []

    # -- installation ---------------------------------------------------

    def install(self, package="gentlelam"):
        pkg = importlib.import_module(package)
        modules = [pkg] + [importlib.import_module(f"{package}.{m.name}")
                           for m in pkgutil.iter_modules(pkg.__path__)]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                name = self._span_name(obj, package)
                if name is None:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(name, obj)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    @staticmethod
    def _span_name(obj, package):
        if not isinstance(obj, types.FunctionType):
            return None
        module = obj.__module__ or ""
        if not module.startswith(package + ".") or obj.__name__[0] == "_":
            return None
        name = module[len(package) + 1:] + "." + obj.__name__
        return None if name in LEAVES else name

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.self_s[name] = 0.0
        counter = COUNTERS.get(name)
        cold_check = name == "schemes.generic_multiset"
        conjugate = name == "strings.conjugate"
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, counts = self.calls, self.self_s, self.counts
        ids, parents, ops = self.span_id, self.span_parent, self.span_op
        names, starts, ends = self.span_name, self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = self._next_id
            self._next_id = span + 1
            frame = [0.0, name, span]  # child time, name, span id
            stack.append(frame)
            if cold_check:
                enum_before = sum(calls.get(e, 0) for e in ENUMERATORS)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[0]
                calls[name] += 1
                if parent is not None:
                    parent[0] += dur
                ids.append(span)
                parents.append(-1 if parent is None else parent[2])
                ops.append(self.op)
                names.append(index)
                starts.append(t0)
                ends.append(t1)
            if counter is not None:
                for key, v in counter(args, kwargs, result).items():
                    counts[name + "." + key] = counts.get(
                        name + "." + key, 0) + v
            if cold_check and sum(calls.get(e, 0)
                                  for e in ENUMERATORS) > enum_before:
                counts[name + ".cold_calls"] = counts.get(
                    name + ".cold_calls", 0) + 1
            if conjugate and parent is not None \
                    and parent[1] == "schemes.generic_point":
                counts["schemes.generic_point.conjugations"] = counts.get(
                    "schemes.generic_point.conjugations", 0) + 1
            return result

        return wrapper

    # -- results --------------------------------------------------------

    def write_spans(self, path):
        """One tab-separated line per span: id, parent, op, name, start,
        end (seconds on the perf_counter clock)."""
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\top\tname\tstart\tend\n")
            for i in range(len(self.span_id)):
                fh.write(f"{self.span_id[i]}\t{self.span_parent[i]}\t"
                         f"{self.span_op[i]}\t{self.names[self.span_name[i]]}"
                         f"\t{self.span_start[i]!r}\t{self.span_end[i]!r}\n")

    def layer_metrics(self):
        """The per-layer metrics, name -> (value, unit)."""
        def calls(*names):
            return sum(self.calls.get(n, 0) for n in names)

        def self_time(*names):
            return sum(self.self_s.get(n, 0.0) for n in names)

        def module_self(module):
            return sum(v for n, v in self.self_s.items()
                       if n.startswith(module + "."))

        def count(key):
            return self.counts.get(key, 0)

        enum = ENUMERATORS
        mods = ("strings.string_module", "strings.band_module")
        shear = ("surface.shear_coordinates", "surface.shear_of_lamination")
        out = {
            "exactlinalg.rref.calls": calls("exactlinalg.rref"),
            "exactlinalg.rref.cells": count("exactlinalg.rref.cells"),
            "exactlinalg.rref.self_s": self_time("exactlinalg.rref"),
            "exactlinalg.sparse_rank.calls": calls("exactlinalg.sparse_rank"),
            "exactlinalg.sparse_rank.nnz":
                count("exactlinalg.sparse_rank.nnz"),
            "exactlinalg.sparse_rank.self_s":
                self_time("exactlinalg.sparse_rank"),
            "exactlinalg.self_s": module_self("exactlinalg"),
            "strings.enumerate.calls": calls(*enum),
            "strings.enumerate.words": sum(count(e + ".words") for e in enum),
            "strings.enumerate.self_s": self_time(*enum),
            "strings.module.calls": calls(*mods),
            "strings.module.self_s": self_time(*mods),
            "strings.decompose.calls": calls("strings.decompose"),
            "strings.decompose.self_s": self_time("strings.decompose"),
            "strings.iso_test.self_s": self_time("strings.iso_test"),
            "strings.self_s": module_self("strings"),
            "schemes.generic_multiset.calls":
                calls("schemes.generic_multiset"),
            "schemes.generic_multiset.cold_calls":
                count("schemes.generic_multiset.cold_calls"),
            "schemes.generic_multiset.self_s":
                self_time("schemes.generic_multiset"),
            "schemes.generic_point.conjugations":
                count("schemes.generic_point.conjugations"),
            "schemes.ceh_values.self_s": self_time("schemes.ceh_values"),
            "schemes.self_s": module_self("schemes"),
            "laurent.order_coideals.calls": calls("laurent.order_coideals"),
            "laurent.order_coideals.subsets":
                count("laurent.order_coideals.subsets"),
            "laurent.order_coideals.coideals":
                count("laurent.order_coideals.coideals"),
            "laurent.order_coideals.self_s":
                self_time("laurent.order_coideals"),
            "laurent.coideal_generating_function.self_s":
                self_time("laurent.coideal_generating_function"),
            "laurent.bangle.self_s": self_time("laurent.bangle"),
            "laurent.self_s": module_self("laurent"),
            "surface.shear.self_s": self_time(*shear),
            "surface.rotate_tau.self_s": self_time("surface.rotate_tau"),
            "surface.coefficient_quiver.self_s":
                self_time("surface.coefficient_quiver"),
            "surface.self_s": module_self("surface"),
            "quiver.self_s": module_self("quiver"),
            "cli.self_s": module_self("cli"),
            "fileio.self_s": module_self("fileio"),
        }
        for f in ("tau_dtr", "min_proj_presentation", "ext1_dim",
                  "standard_homs"):
            out[f"homological.{f}.self_s"] = self_time(f"homological.{f}")
        # homological.hom_dim_oracle is an alias of strings.hom_dim
        out["homological.hom_dim_oracle.self_s"] = self_time(
            "strings.hom_dim")
        out["homological.self_s"] = module_self("homological")
        return {k: (v, "s" if k.endswith("self_s") else "count")
                for k, v in out.items()}
