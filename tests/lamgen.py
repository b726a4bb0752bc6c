"""Random valid laminations on a triangulated surface, for the tests."""

import random

from gentlelam import (CurveSeq, band_to_curve, enumerate_bands, int_zero,
                       make_lamination, rotate_tau)
from gentlelam.surface import InvalidLamination, _curve_key


def curve_pool(T, A, max_crossings=8, depth=4):
    """Arcs, their rotations, and the simple loops of the surface."""
    pool = [CurveSeq("arc", arc=j) for j in T.internal_arcs]
    frontier = list(pool)
    seen = {str(g) for g in pool}
    for _ in range(depth):
        nxt = []
        for g in frontier:
            for direction in ("forward", "backward"):
                r = rotate_tau(T, g, direction)
                if r.kind == "open" and len(r.crossings) > max_crossings:
                    continue
                key = str(r) + str(getattr(r, "endpoints", ""))
                if key not in seen:
                    seen.add(key)
                    nxt.append(r)
        pool.extend(nxt)
        frontier = nxt
    for B in enumerate_bands(A, max_crossings):
        g = band_to_curve(T, A, B)
        if int_zero(T, g, g):
            pool.append(g)
    # drop duplicates up to the module dictionary
    out = {}
    for g in pool:
        out.setdefault(_curve_key(T, A, g), g)
    return list(out.values())


def compatibility(T, A, pool):
    ok = {}
    for i, g in enumerate(pool):
        for j in range(i, len(pool)):
            ok[(i, j)] = ok[(j, i)] = int_zero(T, g, pool[j])
    return ok


def random_laminations(T, A, count, seed=0, max_mult=2, max_entries=3):
    pool = curve_pool(T, A)
    compat = compatibility(T, A, pool)
    rng = random.Random(seed)
    out = []
    tries = 0
    seen = set()
    while len(out) < count and tries < count * 60:
        tries += 1
        order = list(range(len(pool)))
        rng.shuffle(order)
        chosen = []
        for i in order:
            if not compat[(i, i)]:
                continue
            if all(compat[(i, j)] for j in chosen):
                chosen.append(i)
            if len(chosen) >= rng.randint(1, max_entries):
                break
        if not chosen:
            continue
        entries = [(pool[i], rng.randint(1, max_mult)) for i in chosen]
        key = tuple(sorted((str(g), m) for g, m in entries))
        if key in seen:
            continue
        seen.add(key)
        out.append(make_lamination(T, entries))
    if len(out) < count:
        raise InvalidLamination(f"only generated {len(out)} laminations")
    return out
