"""Seeded workloads for the gentlelam benchmark.

Every workload builds its inputs from the seed (and --seconds) alone,
through the public API of the library, as a fixed list `items`.  Inputs
are split into strata by a property that drives their cost (component
count, string length, crossing count) and the list takes a fixed number
from each stratum (see `draw`).  Bangles draws at random within each
slice of a stratum, so runs differ in which curves they see but not in
the mix of easy and hard ones.  Census and oracles see the same inputs
in every run, because their cost proxies rank ops too poorly for that
(see there); the seed sets only the order of their ops.

A run times the list in several passes (see run.py), each in a fresh
interpreter and in its own seeded order, so no library cache carries
from one pass to the next.  Oracles and bangles size the list so that
the passes take about --seconds on an idle 2-vCPU x86-64 VM with
CPython 3.11; census times a fixed list.

An op is a pair of callables: `run()` does the timed work and returns
its raw outputs; `check(out)` compares the outputs of the two routes of
an oracle pair (untimed) and returns (ok, payload), where payload is a
string of the exact outputs that goes into the run's digest.

Library functions are always looked up on the `gentlelam` package or
module at call time, so a tracer installed after set-up sees the calls.
"""

import contextlib
import io
import itertools
import json
import os
import random

import gentlelam as gl
from gentlelam import cli, fileio

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")


def _load(name):
    with open(os.path.join(INPUTS, name)) as fh:
        return json.load(fh)


def pants():
    T = fileio.triangulation_from_dict(_load("pants.json"))
    return T, gl.build_QT(T)


def draw(rng, groups, counts, cost):
    """A stratified sample of `counts[name]` inputs from each group.

    The group is sorted by `cost`, a cheap proxy for the cost of an op,
    and cut into n equal slices; one input is drawn from each slice, at
    random, or the middle one when `rng` is None.  Each seed thus draws
    other inputs with the same mix of cheap and dear ones.  A group with
    fewer than n inputs repeats some."""
    out = []
    for name, n in counts.items():
        group = sorted(groups[name], key=lambda item: (cost(item), str(item)))
        out += [group[int((k + (0.5 if rng is None else rng.random()))
                          * len(group) / n)] for k in range(n)]
    return out


def turns(w):
    """Changes between direct and inverse letters along a word: the
    number of coideals of its coefficient quiver, and so the cost of a
    Laurent expansion, grows with it."""
    return sum(a[1] != b[1] for a, b in zip(w.letters, w.letters[1:]))


# ---------------------------------------------------------------------------
# census: the `components` CLI request over the pants algebra


class Census:
    """One op: `gentlelam components --dims d --format json` in process,
    for d in {0,1,2}^6.

    Op cost spans 0.07-9 s over the 729 dimension vectors, so a random
    sample of a few dozen moves ops_per_s by ~15% from seed to seed.
    The run is one systematic sample instead: the vectors are sorted by a
    cost proxy (component count, then sum of squares) and the middle one
    of every 729/`BINS` is taken.  Op cost steps up with the component
    count, so `BINS` puts the median (rank 14 of 27: one component) and
    the tail rank (p62, rank 17: two components) inside a step; at 32 the
    tail rank sat on the step from two to three components and moved
    ~12% from run to run.  Every run sees the same `BINS` requests, with
    the CLI's default --seed (a seeded --seed moved op_tail_ms by ~10%
    from seed to seed); the seed sets their order in each pass.  --seconds
    does not apply: with fewer vectors the tail percentile would sink
    toward the median, and three passes over these already take 40-55 s.
    """

    BINS = 27

    def __init__(self, seed, seconds, workdir):
        T, A = pants()
        self.algebra_file = os.path.join(workdir, "pants_algebra.json")
        with open(self.algebra_file, "w") as fh:
            json.dump(fileio.algebra_to_dict(A), fh)
        ds = list(itertools.product(range(3), repeat=A.n))
        ncomp = {d: len(gl.components(A, d)) for d in ds}
        ds.sort(key=lambda d: (ncomp[d], sum(x * x for x in d), d))
        step = len(ds) / self.BINS
        self.items = [ds[int((k + 0.5) * step)] for k in range(self.BINS)]

    def op(self, d):
        argv = ["components", "--input", self.algebra_file,
                "--dims", ",".join(map(str, d)), "--format", "json"]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return rc, buf.getvalue()

        def check(out):
            rc, text = out
            if rc != 0:
                return False, text
            comps = json.loads(text)["components"]
            ok = sum(1 for c in comps if c["tau_reduced"]) <= 1
            for c in comps:
                ok &= isinstance(c["decomposition"], list)
                ok &= c["tau_reduced"] == (c["c"] == c["e"] == c["h"])
            return ok, text

        return run, check


# ---------------------------------------------------------------------------
# oracles: tau and Hom oracle pairs on strings of length <= 8


class Oracles:
    """One op: a string C of length <= 8 over the torus or pants algebra.
    Checks tau_string against tau_dtr (iso_test) and standard_homs against
    hom_dim_oracle, both ways, against three words picked for the op, one
    of each module dimension in `WORD_DIMS`; each word of a dimension is
    picked equally often (up to one).  Strata are (algebra, length); a
    draw holds them in proportion to their sizes.  The cost proxy within
    a stratum is the length of tau C.

    Op cost spans ~1-230 ms and the proxy ranks it poorly (10-50x within a
    stratum), so a seeded sample moved op_p50_ms by ~20% from seed to
    seed.  Every run therefore sees the same strings and words, the middle
    one of every slice of each stratum; the seed sets the order of each
    pass.
    """

    MAX_LEN = 8
    WORD_DIMS = (2, 3, 4)
    ROUNDS_PER_S = 0.32  # draws of PER_ROUND per second of --seconds
    PER_ROUND = {
        ("torus", "0-5"): 2, ("torus", "6"): 2, ("torus", "7"): 3,
        ("torus", "8"): 4,
        ("pants", "0-5"): 2, ("pants", "6"): 1, ("pants", "7"): 1,
        ("pants", "8"): 2,
    }

    def __init__(self, seed, seconds, workdir):
        torus = fileio.algebra_from_dict(_load("torus_quiver.json"))
        algebras = {"torus": torus, "pants": pants()[1]}
        groups = {k: [] for k in self.PER_ROUND}
        self.words = {}
        for name, A in algebras.items():
            for C in gl.enumerate_strings(A, self.MAX_LEN):
                length = len(C)
                key = str(length) if length > 5 else "0-5"
                groups[(name, key)].append((name, C))
            words = {dim: [] for dim in self.WORD_DIMS}
            for w in gl.enumerate_strings(A, 4) + gl.enumerate_bands(A, 4):
                M = self._module(A, w)
                if M.dim() in words:
                    words[M.dim()].append((w, M))
            self.words[name] = words
        self.algebras = algebras
        rounds = max(1, round(seconds * self.ROUNDS_PER_S))
        strings = draw(
            None, groups, {k: n * rounds for k, n in self.PER_ROUND.items()},
            cost=lambda item: self._tau_len(*item))
        picks = {(name, dim): itertools.cycle(range(len(ws)))
                 for name, words in self.words.items()
                 for dim, ws in words.items()}
        self.items = [(name, C, tuple(next(picks[name, dim])
                                      for dim in self.WORD_DIMS))
                      for name, C in strings]

    def _tau_len(self, name, C):
        tau = gl.tau_string(self.algebras[name], C)
        return -1 if tau is None else len(tau)

    @staticmethod
    def _module(A, w):
        if isinstance(w, gl.BandWord):
            return gl.band_module(A, w, 1)
        return gl.string_module(A, w)

    def op(self, item):
        name, C, picks = item
        A = self.algebras[name]
        words = [self.words[name][dim][k]
                 for dim, k in zip(self.WORD_DIMS, picks)]

        def run():
            M = gl.string_module(A, C)
            t_comb = gl.tau_string(A, C)
            t_hom = gl.tau_dtr(A, M)
            if t_comb is None:
                tau_ok = t_hom.dim() == 0
            else:
                tau_ok = gl.iso_test(A, gl.string_module(A, t_comb), t_hom)
            homs = []
            for Y, MY in words:
                homs.append((len(gl.standard_homs(A, C, Y)),
                             gl.hom_dim_oracle(A, M, MY)))
                homs.append((len(gl.standard_homs(A, Y, C)),
                             gl.hom_dim_oracle(A, MY, M)))
            return t_comb, t_hom, tau_ok, homs

        def check(out):
            t_comb, t_hom, tau_ok, homs = out
            ok = tau_ok and all(a == b for a, b in homs)
            return ok, (f"{name} {C} {[str(Y) for Y, _ in words]} {t_comb} "
                        f"{t_hom.dims} {homs}")

        return run, check


# ---------------------------------------------------------------------------
# bangles: Laurent expansion of single curves


class Bangles:
    """One op: a curve on the pants with `CROSSINGS` crossings, either an
    open string curve or a band loop.  Computes its bangle; checks
    shear_coordinates against the g-vector of its module and the curve
    rotation against tau of the module.  A draw holds one string curve
    and one loop for every crossing count (there are few loops, so they
    repeat); the cost proxy within a crossing count is `turns`."""

    CROSSINGS = range(8, 17)
    ROUNDS_PER_S = 0.3  # draws per second of --seconds

    def __init__(self, seed, seconds, workdir):
        rng = random.Random(seed)
        T, A = pants()
        top = max(self.CROSSINGS)
        groups = {(kind, m): [] for kind in ("string", "band")
                  for m in self.CROSSINGS}
        for C in gl.enumerate_strings(A, top - 1):
            if len(C) + 1 in self.CROSSINGS:
                groups[("string", len(C) + 1)].append(C)
        for B in gl.enumerate_bands(A, top):
            if len(B) in self.CROSSINGS:
                groups[("band", len(B))].append(B)
        self.T, self.A = T, A
        self.B = gl.signed_adjacency(T)
        rounds = max(1, round(seconds * self.ROUNDS_PER_S))
        self.items = draw(rng, groups, {k: rounds for k in groups}, turns)

    def op(self, w):
        T, A, B = self.T, self.A, self.B
        band = isinstance(w, gl.BandWord)
        if band:
            gamma = gl.band_to_curve(T, A, w)
            M = gl.band_module(A, w, 2)
        else:
            gamma = gl.string_to_curve(T, A, w)
            M = gl.string_module(A, w)

        def run():
            poly = gl.bangle(T, gamma, B)
            s = gl.shear_coordinates(T, gamma)
            g = gl.g_vector(A, gl.DecoratedModule(M, (0,) * A.n))
            rot = gl.rotate_tau(T, gamma, "forward")
            tau = None if band else gl.tau_string(A, w)
            return poly, s, g, rot, tau

        def check(out):
            poly, s, g, rot, tau = out
            if band:
                rot_ok = rot is gamma  # tau fixes band modules
            elif tau is None:
                rot_ok = rot.kind == "arc"
            else:
                rot_ok = gl.canonical_string(
                    A, gl.curve_to_module(T, rot)) == \
                    gl.canonical_string(A, tau)
            return s == g and rot_ok, f"{w} {s} {poly.to_json()}"

        return run, check


WORKLOADS = {
    "census": Census,
    "oracles": Oracles,
    "bangles": Bangles,
}
