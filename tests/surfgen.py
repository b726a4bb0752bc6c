"""Seeded random gluings of triangles, for the tests.

A draw takes k triangles (1 <= k <= 6), matches some of their 3k sides
in pairs, and names the pairs as the internal arcs 1..m; every other
side is a boundary segment, named b<triangle><slot>.  Most draws are no
marked surface (a marked point away from the boundary, or pieces that
never meet), and `Triangulation` has to tell them apart.
"""

import random


def random_gluing(rng, max_triangles=6):
    """(internal_arcs, boundary_segments, triangles) of one draw."""
    k = rng.randint(1, max_triangles)
    sides = [(t, s) for t in range(k) for s in range(3)]
    rng.shuffle(sides)
    m = rng.randint(0, len(sides) // 2)
    name = {side: f"b{side[0]}{side[1]}" for side in sides[2 * m:]}
    for j in range(m):
        name[sides[2 * j]] = name[sides[2 * j + 1]] = j + 1
    return (tuple(range(1, m + 1)),
            tuple(name[side] for side in sides[2 * m:]),
            tuple(tuple(name[(t, s)] for s in range(3)) for t in range(k)))


def gluings(seed, count, max_triangles=6):
    rng = random.Random(seed)
    return [random_gluing(rng, max_triangles) for _ in range(count)]


def is_connected(triangles):
    """Whether the triangles form one piece through their shared arcs."""
    at = {}
    for t, tri in enumerate(triangles):
        for e in tri:
            if isinstance(e, int):
                at.setdefault(e, []).append(t)
    seen, todo = {0}, [0]
    while todo:
        t = todo.pop()
        for e in triangles[t]:
            for u in at.get(e, ()):
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
    return len(seen) == len(triangles)
