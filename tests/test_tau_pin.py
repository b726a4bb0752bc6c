"""The combinatorial AR translate pinned by a digest: `tau_string` of
every trivial string (both signs) and of every string of length <= 3,
over the golden algebras and surfaces and the `tests/fuzz.py` algebras
of seeds 0-2999.  Any change to how a word grows or loses its ends, the
side of a vertex a trivial string faces included, shows here."""

import hashlib
import random

from conftest import GOLDEN_ALGEBRAS, GOLDEN_SURFACES, case_algebra
from fuzz import random_gentle
from gentlelam import StringWord, enumerate_strings, tau_string

TAU_DIGEST = ("5fdd9ea3da217b4f13999c587afc721b"
              "ba4d5fbc135e76e0a85d8cde188ce5be")


def algebras():
    for name in GOLDEN_ALGEBRAS + GOLDEN_SURFACES:
        yield case_algebra(name)
    for seed in range(3000):
        yield random_gentle(random.Random(seed))


def test_tau_string_digest():
    h = hashlib.sha256()
    count = 0
    for A in algebras():
        words = [StringWord((), v, sign) for v in range(1, A.n + 1)
                 for sign in (1, -1)] + enumerate_strings(A, 3)
        for C in words:
            h.update(f"{C}|{tau_string(A, C)}\n".encode())
        count += len(words)
    assert (count, h.hexdigest()) == (50065, TAU_DIGEST)
