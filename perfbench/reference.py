"""The host-speed reference that op and set-up times are scaled by.

The benchmark runs on a few vCPUs of a shared host whose speed for
CPython work swings by up to ~1.9x for seconds to many minutes as
other tenants come and go (steal time stays near 1%: the vCPU runs, but
slower, as when a sibling hyperthread or the shared cache is busy).  No
statistic over wall times taken minutes apart resolves a 25% change
then.  So each op is bracketed by timings of `reference()`, a fixed
piece of pure-Python work of the same kind as the library's (exact
Fraction elimination, tuple keys, dict updates) that imports nothing
from the library, and the op's wall time is scaled by
REFERENCE_S / (the reference time measured around it).  A scaled time
is the op's wall time on a host that runs the reference in REFERENCE_S,
the reference's time when the host is idle; a change to the library
moves it, a change in the host's load mostly does not.
"""

import random
import time
from fractions import Fraction

# reference() on an idle host: 2-vCPU x86-64 VM (Intel Xeon, 2.1 GHz),
# CPython 3.11.7 (the fastest of ~8000 calls; loaded, up to ~5.5 ms)
REFERENCE_S = 0.0028

_rng = random.Random(7)
_MATRIX = [[Fraction(_rng.randrange(-9, 10), _rng.randrange(1, 5))
            for _ in range(8)] for _ in range(8)]


def reference():
    """Fixed work: reduce an 8x8 Fraction matrix, then 3000 dict updates
    on tuple keys."""
    m = [row[:] for row in _MATRIX]
    n = len(m)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    counts = {}
    for i in range(3000):
        key = (i % 97, i % 13, str(i % 7))
        counts[key] = counts.get(key, 0) + 1
    return m, counts


def probe(repeats=3):
    """The median time of `repeats` calls of reference(), in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return sorted(times)[repeats // 2]
